package fingerprint

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
)

// Machine signature: the hardware half of the key persisted measurements
// live under. A latency is only valid on the CPU it was measured on, so
// the search memo (core.DiskMemo) namespaces its latencies by this string
// plus tensor.KernelSignature — moving the memo file to a different
// machine, changing the core count, or switching kernel tiers (avx2 vs
// the pure-Go fallback) silently invalidates old latencies instead of
// replaying them.

var (
	machineOnce sync.Once
	machineSig  string
)

// Machine returns a stable signature for the executing machine:
// GOOS/GOARCH, the logical CPU count, and the CPU model name from
// /proc/cpuinfo when available. The kernel tier is not part of it: callers
// append tensor.KernelSignature, which keeps this package free of the
// tensor dependency. The value is computed once; it
// contains no spaces-sensitive framing beyond single spaces, and is safe
// to embed in JSON map keys.
func Machine() string {
	machineOnce.Do(func() {
		parts := []string{
			runtime.GOOS + "/" + runtime.GOARCH,
			"ncpu=" + strconv.Itoa(runtime.NumCPU()),
		}
		if model := cpuModel(); model != "" {
			parts = append(parts, model)
		}
		machineSig = strings.Join(parts, " ")
	})
	return machineSig
}

// cpuModel extracts the first "model name" line from /proc/cpuinfo
// (Linux); other platforms contribute only GOOS/GOARCH/ncpu.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "model name") {
			continue
		}
		if _, val, ok := strings.Cut(line, ":"); ok {
			return strings.Join(strings.Fields(val), " ")
		}
	}
	return ""
}
