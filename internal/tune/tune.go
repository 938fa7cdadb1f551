// Package tune implements the compile-time kernel autotuner: it searches
// the blocked-GEMM and flash-attention parameter spaces per
// distinct layer shape by timing candidate configurations on synthetic
// operands (timing.MinOfRuns, so a scheduler hiccup cannot crown the wrong
// winner), and persists winners in a JSON cache keyed by
// (machine signature, shape key). A Tuner satisfies plan.KernelTuner;
// serving and inspection binaries install one with plan.SetTuner before
// compiling, so every GEMM-shaped op in a compiled plan runs the best
// parameters this machine has ever measured for its exact shape.
//
// The cache file groups winners under fingerprint.Machine() + the kernel
// signature (tensor.KernelSignature: tier and kernel generation), so
// copying the file to a different CPU — or rebuilding with the pure-Go
// fallback tier, or with changed kernels — invalidates nothing and replays
// nothing: the new machine simply starts its own section. Second
// and later compiles of the same model zoo on the same machine perform
// zero measurements (tune_test.go asserts this), which keeps tuned compiles
// cheap enough for the SA search loop and serving restarts.
package tune

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"repro/internal/atomicfile"
	"repro/internal/fingerprint"
	"repro/internal/plan"
	"repro/internal/tensor"
	"repro/internal/timing"
)

// Mode selects how much work the tuner may do at compile time.
type Mode string

const (
	// ModeOff returns shipped defaults for every shape (no cache reads, no
	// measurements) — compile behaves exactly as if no tuner were installed.
	ModeOff Mode = "off"
	// ModeLoad consults the winner cache but never measures: hits return
	// cached winners, misses return defaults. Deterministic compile cost.
	ModeLoad Mode = "load"
	// ModeFull consults the cache and measures misses, recording new
	// winners (persisted on Save).
	ModeFull Mode = "full"
)

// ParseMode parses a -tune flag value.
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case ModeOff, ModeLoad, ModeFull:
		return Mode(s), nil
	}
	return ModeOff, fmt.Errorf("tune: unknown mode %q (want off, load, or full)", s)
}

// measurement budgets. Candidate runs are sized so a full-model tune stays
// in the low seconds: GEMM operands are row-clamped to gemmFlopBudget
// flops per run, and every candidate is timed as min-of-2 after 1 warmup.
const (
	gemmFlopBudget = 64 << 20
	tuneWarmup     = 1
	tuneRuns       = 2
)

// entry is one cached winner. A single struct covers both kernel
// families; the shape key's prefix says which fields are meaningful.
type entry struct {
	KC     int    `json:"kc,omitempty"`
	NC     int    `json:"nc,omitempty"`
	Kernel string `json:"kernel,omitempty"`
	BQ     int    `json:"bq,omitempty"`
	BK     int    `json:"bk,omitempty"`
	// Nanos records the winner's measured time, for inspection only.
	Nanos int64 `json:"nanos,omitempty"`
}

// cacheFile is the on-disk shape: machine signature -> shape key -> winner.
type cacheFile struct {
	Machines map[string]map[string]entry `json:"machines"`
}

// Tuner implements plan.KernelTuner with measurement and a persistent
// winner cache. Methods are safe for concurrent use (Compile may be called
// from several goroutines); measurements are serialized under the mutex so
// concurrent tuning cannot corrupt each other's timings.
type Tuner struct {
	mode    Mode
	path    string
	machine string
	// batch is the nominal serving batch a GEMM's rows (or a conv's pixel
	// columns) are scaled by when measuring; the cache key holds the
	// per-sample shape.
	batch int

	mu      sync.Mutex
	winners map[string]entry            // this machine's section
	others  map[string]map[string]entry // other machines' sections, preserved on Save
	dirty   bool

	measurements atomic.Int64
}

// New builds a tuner in the given mode backed by the cache file at path
// (empty path: in-memory only). A missing cache file is not an error; a
// corrupt one is, so a truncated write cannot silently discard a machine's
// tuning history.
func New(mode Mode, path string) (*Tuner, error) {
	t := &Tuner{
		mode:    mode,
		path:    path,
		machine: MachineKey(),
		batch:   8,
		winners: map[string]entry{},
		others:  map[string]map[string]entry{},
	}
	if path == "" || mode == ModeOff {
		return t, nil
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return t, nil
	}
	if err != nil {
		return nil, fmt.Errorf("tune: read cache: %w", err)
	}
	var f cacheFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("tune: parse cache %s: %w", path, err)
	}
	for m, sec := range f.Machines {
		if m == t.machine {
			t.winners = sec
		} else {
			t.others[m] = sec
		}
	}
	if t.winners == nil {
		t.winners = map[string]entry{}
	}
	return t, nil
}

// MachineKey is the cache section key for this process: the CPU signature
// plus the kernel signature (tier and generation), so avx2 winners never
// replay onto the pure-Go fallback build (whose optimum differs) and vice
// versa, and winners measured by an older kernel generation never replay.
func MachineKey() string {
	return fingerprint.Machine() + " " + tensor.KernelSignature()
}

// Mode returns the tuner's mode.
func (t *Tuner) Mode() Mode { return t.mode }

// CachePath returns the backing cache file path ("" for in-memory tuners).
func (t *Tuner) CachePath() string { return t.path }

// Measurements returns the number of candidate timings performed so far.
// A second compile of the same models on the same machine must leave this
// unchanged — every shape hits the cache.
func (t *Tuner) Measurements() int64 { return t.measurements.Load() }

// Entries returns the number of winners cached for this machine.
func (t *Tuner) Entries() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.winners)
}

// SetBatch overrides the nominal batch GEMM measurements are scaled by.
func (t *Tuner) SetBatch(b int) {
	if b > 0 {
		t.batch = b
	}
}

// Save persists the winner cache (all machines' sections) atomically. No-op without a path or when nothing changed.
func (t *Tuner) Save() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.path == "" || !t.dirty {
		return nil
	}
	f := cacheFile{Machines: map[string]map[string]entry{t.machine: t.winners}}
	for m, sec := range t.others {
		f.Machines[m] = sec
	}
	if err := atomicfile.WriteJSON(t.path, &f); err != nil {
		return fmt.Errorf("tune: save cache: %w", err)
	}
	t.dirty = false
	return nil
}

// Gemm picks f32 blocked-GEMM parameters for a per-sample [m,k] @ [k,n]
// layer shape whose nominal batch scales the m side, or the n side when
// batchN is set (the channel-major conv).
func (t *Tuner) Gemm(m, n, k int, batchN bool) (tensor.GemmParams, string) {
	if t.mode == ModeOff {
		return tensor.DefaultGemmParams(), plan.TuneDefault
	}
	key := fmt.Sprintf("gemm m%d n%d k%d", m, n, k)
	if batchN {
		key += " nb"
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.winners[key]; ok {
		return tensor.GemmParams{KC: e.KC, NC: e.NC, Kernel: e.Kernel}, plan.TuneCache
	}
	if t.mode != ModeFull {
		return tensor.DefaultGemmParams(), plan.TuneDefault
	}
	gp, nanos := t.measureGemm(t.gemmShape(m, n, k, batchN))
	t.winners[key] = entry{KC: gp.KC, NC: gp.NC, Kernel: gp.Kernel, Nanos: nanos}
	t.dirty = true
	return gp, plan.TuneMeasured
}

// Attn picks flash-attention tiles for sequence length seq and head dim hd.
func (t *Tuner) Attn(seq, hd int) (tensor.AttnParams, string) {
	if t.mode == ModeOff {
		return tensor.DefaultAttnParams(), plan.TuneDefault
	}
	key := fmt.Sprintf("attn t%d hd%d", seq, hd)
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.winners[key]; ok {
		return tensor.AttnParams{BQ: e.BQ, BK: e.BK}, plan.TuneCache
	}
	if t.mode != ModeFull {
		return tensor.DefaultAttnParams(), plan.TuneDefault
	}
	ap, nanos := t.measureAttn(seq, hd)
	t.winners[key] = entry{BQ: ap.BQ, BK: ap.BK, Nanos: nanos}
	t.dirty = true
	return ap, plan.TuneMeasured
}

// gemmShape returns the [m,k] @ [k,n] product measureGemm times for a
// per-sample layer shape: the side the batch scales (n when batchN is set,
// m otherwise) is multiplied by the nominal batch, clamped so one run stays
// under gemmFlopBudget flops.
func (t *Tuner) gemmShape(m, n, k int, batchN bool) (int, int, int) {
	if batchN {
		return m, max(1, min(n*t.batch, gemmFlopBudget/(2*m*k))), k
	}
	return max(1, min(m*t.batch, gemmFlopBudget/(2*n*k))), n, k
}

// measureGemm times every candidate blocking on synthetic [m,k] @ [k,n]
// operands and returns the winner.
func (t *Tuner) measureGemm(m, n, k int) (tensor.GemmParams, int64) {
	a, b, dst := tensor.New(m, k), tensor.New(k, n), tensor.New(m, n)
	rng := tensor.NewRNG(7)
	rng.FillNormal(a, 0, 1)
	rng.FillNormal(b, 0, 1)
	best := tensor.DefaultGemmParams()
	bestNanos := int64(-1)
	for _, kern := range []string{tensor.Kernel4x16, tensor.Kernel8x8} {
		for _, kc := range []int{128, 256} {
			for _, nc := range []int{128, 256} {
				gp := tensor.GemmParams{KC: kc, NC: nc, Kernel: kern}
				d := timing.MinOfRuns(tuneWarmup, tuneRuns, func() { tensor.MatMulIntoP(dst, a, b, gp) })
				t.measurements.Add(1)
				if bestNanos < 0 || int64(d) < bestNanos {
					best, bestNanos = gp, int64(d)
				}
			}
		}
	}
	return best, bestNanos
}

// measureAttn times flash-attention tile candidates on one synthetic head.
// Candidates that clamp to the same effective tiles (short sequences) are
// timed once.
func (t *Tuner) measureAttn(seq, hd int) (tensor.AttnParams, int64) {
	qkv := tensor.New(seq, 3*hd)
	tensor.NewRNG(7).FillNormal(qkv, 0, 1)
	out := make([]float32, seq*hd)
	stride := 3 * hd
	d := qkv.Data()
	qd, kd, vd := d, d[hd:], d[2*hd:]
	scale := float32(1)
	best := tensor.DefaultAttnParams()
	bestNanos := int64(-1)
	seen := map[[2]int]bool{}
	for _, bq := range []int{16, 32, 64} {
		for _, bk := range []int{32, 64, 128} {
			ap := tensor.AttnParams{BQ: bq, BK: bk}
			cq, ck := ap.Norm(seq)
			if seen[[2]int{cq, ck}] {
				continue
			}
			seen[[2]int{cq, ck}] = true
			ws := make([]float32, tensor.AttendWorkspace(cq, ck))
			dur := timing.MinOfRuns(tuneWarmup, tuneRuns, func() {
				tensor.FlashAttendHead(out, hd, qd, kd, vd, stride, seq, hd, scale, cq, ck, ws)
			})
			t.measurements.Add(1)
			if bestNanos < 0 || int64(dur) < bestNanos {
				best, bestNanos = ap, int64(dur)
			}
		}
	}
	return best, bestNanos
}
