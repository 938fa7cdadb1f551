//go:build amd64 && !gmorph_novec

package tensor

import "testing"

// qdotVariants lists every int8 block kernel this build holds, each with
// the reason this CPU cannot run it, if any.
func qdotVariants() []qdotVariant {
	avx2, vnni := "", ""
	if !cpuHasAVX2FMA() {
		avx2 = "CPU or OS lacks AVX2+FMA with YMM state"
		vnni = avx2
	} else if !cpuHasVNNI() {
		vnni = "CPU or OS lacks AVX512F+VL+VNNI with opmask/ZMM state"
	}
	return []qdotVariant{
		{"go", goQDot4x2, ""},
		{"avx2", avx2QDot4x2, avx2},
		{"vnni", vnniQDot4x2, vnni},
	}
}

// geluVariants lists every GELU kernel pair this build holds.
func geluVariants() []geluVariant {
	avx2 := ""
	if !cpuHasAVX2FMA() {
		avx2 = "CPU or OS lacks AVX2+FMA with YMM state"
	}
	return []geluVariant{
		{"go", goGELURow, goGELUGradRow, ""},
		{"avx2", geluAVX2, geluGradAVX2, avx2},
	}
}

// TestVNNIGate pins the CPUID/XCR0 decision: every feature bit and the
// opmask and ZMM XSAVE state are required, so a CPU or VM missing any of
// them keeps the AVX2 kernel instead of faulting on VPDPBUSD.
func TestVNNIGate(t *testing.T) {
	const (
		f, vl, vnni = 1 << 16, 1 << 31, 1 << 11
		fullXCR0    = 0xE7 // x87, XMM, YMM, opmask, ZMM_Hi256, Hi16_ZMM
	)
	for _, tc := range []struct {
		name           string
		ebx, ecx, xcr0 uint32
		want           bool
	}{
		{"all bits, AVX-512 state on", f | vl, vnni, fullXCR0, true},
		{"extra bits ignored", ^uint32(0), ^uint32(0), ^uint32(0), true},
		{"VNNI without VL", f, vnni, fullXCR0, false},
		{"VL without VNNI", f | vl, 0, fullXCR0, false},
		{"VNNI and VL without AVX512F", vl, vnni, fullXCR0, false},
		{"AVX-512 state off (XMM+YMM only)", f | vl, vnni, 0x07, false},
		{"no opmask state", f | vl, vnni, fullXCR0 &^ 0x20, false},
		{"no Hi16_ZMM state", f | vl, vnni, fullXCR0 &^ 0x80, false},
		{"no YMM state", f | vl, vnni, fullXCR0 &^ 0x04, false},
	} {
		if got := vnniUsable(tc.ebx, tc.ecx, tc.xcr0); got != tc.want {
			t.Errorf("%s: vnniUsable(%#x, %#x, %#x) = %v, want %v", tc.name, tc.ebx, tc.ecx, tc.xcr0, got, tc.want)
		}
	}
	// The bound variant follows the gate on this CPU.
	if vecKind == "avx2" {
		want := "avx2"
		if cpuHasVNNI() {
			want = "vnni"
		}
		if q8Kind != want {
			t.Errorf("int8 kernel bound %q, CPU gate says %q", q8Kind, want)
		}
	}
	t.Logf("kernels: %s", KernelSignature())
}
