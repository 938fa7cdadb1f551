package tensor

import (
	"math"
	"testing"
)

// convRowsCase is one ConvRowsInto geometry: x [n, c, h, w], oc output
// channels, a k×k kernel.
type convRowsCase struct{ n, c, h, w, oc, k, stride, pad int }

// checkConvRows runs ConvRowsInto and ConvWeightGradInto on tc and
// compares them bit for bit with the unfold they replace (Im2ColCMInto +
// MatMulInto, Im2ColCMInto + MatMulTransBInto), both on x at tc.pad and on
// PadInto's copy of x at pad 0, the training body's form. It reports the
// form convImplicit picked.
func checkConvRows(t *testing.T, tc convRowsCase, seed uint64) int {
	t.Helper()
	rng := NewRNG(seed)
	x, w := New(tc.n, tc.c, tc.h, tc.w), New(tc.oc, tc.c*tc.k*tc.k)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(w, 0, 1)
	// ReLU-like zeros, and a few negative zeros, in the input.
	for i, v := range x.data {
		switch {
		case i%7 == 3:
			x.data[i] = float32(math.Copysign(0, -1))
		case v < -0.5:
			x.data[i] = 0
		}
	}
	oh, ow := ConvOut(tc.h, tc.k, tc.stride, tc.pad), ConvOut(tc.w, tc.k, tc.stride, tc.pad)
	m := tc.n * oh * ow
	cols := New(tc.c*tc.k*tc.k, m)
	Im2ColCMInto(cols, x, tc.k, tc.k, tc.stride, tc.pad)
	want := New(tc.oc, m)
	MatMulInto(want, w, cols)
	dz, wantDW := New(tc.oc, m), New(tc.c*tc.k*tc.k, tc.oc)
	rng.FillNormal(dz, 0, 1)
	MatMulTransBInto(wantDW, cols, dz)

	xp := New(tc.n, tc.c, tc.h+2*tc.pad, tc.w+2*tc.pad)
	PadInto(xp, x, tc.pad)
	for _, in := range []struct {
		name string
		x    *Tensor
		pad  int
	}{{"input", x, tc.pad}, {"padded copy", xp, 0}} {
		got := Full(float32(math.NaN()), tc.oc, m)
		ConvRowsInto(got, w, in.x, tc.k, tc.stride, in.pad)
		for i, v := range got.data {
			if math.Float32bits(v) != math.Float32bits(want.data[i]) {
				t.Fatalf("%+v (%s): ConvRowsInto[%d][%d] = %v, unfold+GEMM %v", tc, in.name, i/m, i%m, v, want.data[i])
			}
		}
		gotDW := Full(float32(math.NaN()), tc.c*tc.k*tc.k, tc.oc)
		ConvWeightGradInto(gotDW, dz, in.x, tc.k, tc.stride, in.pad)
		for i, v := range gotDW.data {
			if math.Float32bits(v) != math.Float32bits(wantDW.data[i]) {
				t.Fatalf("%+v (%s): ConvWeightGradInto[%d][%d] = %v, unfold+GEMM %v", tc, in.name, i/tc.oc, i%tc.oc, v, wantDW.data[i])
			}
		}
	}
	return convImplicit(oh, ow, tc.w+2*tc.pad, tc.stride)
}

// TestConvImplicitMatchesUnfold holds ConvRowsInto to the unfold+GEMM bits
// over output channels 1–17, input channels 1–20, output widths 8–40 and
// batches 1–33, and checks which form convImplicit picks: on the assembly
// tier the row forms for stride-1 convs with OW % 8 == 0 (16-wide blocks
// where OW % 16 == 0), the padded-pitch grid for other stride-1 maps of at
// least one block, and the unfold for the rest and for everything on the
// pure-Go tier; every form must agree.
func TestConvImplicitMatchesUnfold(t *testing.T) {
	ows := []int{8, 16, 24, 32, 40}
	batches := []int{1, 2, 3, 16, 33}
	seed := uint64(1)
	for oc := 1; oc <= 17; oc++ {
		for _, c := range []int{1, 2, 3, 4, 5, 8, 13, 16, 20} {
			seed++
			ow := ows[(oc+c)%len(ows)]
			n := batches[(oc*3+c)%len(batches)]
			if n*ow*c > 8000 { // keep the sweep quick; large batches stay covered
				n = 1 + int(seed%4)
			}
			k, pad := 3, 1
			switch seed % 5 {
			case 1:
				k, pad = 1, 0
			case 2:
				k, pad = 5, 2
			}
			h := 1 + int(seed%9) // oh = h: 1 to 9 output rows
			tc := convRowsCase{n: n, c: c, h: h, w: ow, oc: oc, k: k, stride: 1, pad: pad}
			want := convRows16
			if ow%16 != 0 {
				want = convRows8
			}
			if !vecActive {
				want = convUnfold
			}
			if got := checkConvRows(t, tc, seed); got != want {
				t.Fatalf("%+v: convImplicit form %d, want %d", tc, got, want)
			}
		}
	}
	// The search's training shapes at its batch, all four VGG stages.
	for i, tc := range []convRowsCase{
		{16, 3, 32, 32, 2, 3, 1, 1}, {16, 2, 32, 32, 2, 3, 1, 1},
		{16, 2, 16, 16, 4, 3, 1, 1}, {33, 4, 8, 8, 8, 3, 1, 1},
	} {
		checkConvRows(t, tc, uint64(100+i))
	}
	// Other stride-1 widths run the grid: the search's 4×4 stage, 12- and
	// 5-pixel rows, and 1×1 kernels, one over a map of exactly one block.
	for i, tc := range []convRowsCase{
		{16, 8, 4, 4, 16, 3, 1, 1}, {16, 16, 4, 4, 16, 3, 1, 1},
		{3, 4, 12, 12, 6, 3, 1, 1}, {2, 3, 5, 5, 9, 3, 1, 1},
		{4, 5, 3, 7, 3, 1, 1, 0}, {2, 2, 2, 4, 3, 1, 1, 0},
		{3, 3, 3, 3, 17, 3, 1, 1},
	} {
		want := convGrid8
		if !vecActive {
			want = convUnfold
		}
		if got := checkConvRows(t, tc, uint64(200+i)); got != want {
			t.Fatalf("%+v: convImplicit form %d, want the grid (%d)", tc, got, want)
		}
	}
	// Strided convs and maps smaller than a block unfold.
	for i, tc := range []convRowsCase{
		{2, 3, 16, 16, 5, 3, 2, 1}, {16, 16, 2, 2, 16, 3, 1, 1},
		{2, 3, 8, 8, 4, 2, 2, 0}, {5, 2, 1, 7, 3, 1, 1, 0},
	} {
		if got := checkConvRows(t, tc, uint64(300+i)); got != convUnfold {
			t.Fatalf("%+v: convImplicit form %d, want the unfold", tc, got)
		}
	}
}

// FuzzConvImplicitParity is TestConvImplicitMatchesUnfold over fuzzed
// geometry: whichever form they take, ConvRowsInto and ConvWeightGradInto
// must give the unfold+GEMM bits, from the input and from its padded copy.
func FuzzConvImplicitParity(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(32), uint8(2), uint8(4), uint8(1), uint8(0), uint64(1))
	f.Add(uint8(17), uint8(20), uint8(40), uint8(3), uint8(1), uint8(1), uint8(0), uint64(2))
	f.Add(uint8(8), uint8(4), uint8(8), uint8(33), uint8(8), uint8(1), uint8(0), uint64(3))
	f.Add(uint8(5), uint8(3), uint8(24), uint8(1), uint8(3), uint8(2), uint8(1), uint64(4))
	f.Add(uint8(16), uint8(16), uint8(4), uint8(16), uint8(4), uint8(1), uint8(0), uint64(5))
	f.Fuzz(func(t *testing.T, ocRaw, cRaw, wRaw, nRaw, hRaw, kRaw, sRaw uint8, seed uint64) {
		k := []int{1, 3, 5}[int(kRaw)%3]
		stride := 1 + int(sRaw)%2
		pad := k / 2
		tc := convRowsCase{
			n: int(nRaw)%33 + 1, c: int(cRaw)%20 + 1,
			h: int(hRaw)%12 + 1, w: int(wRaw)%48 + 1,
			oc: int(ocRaw)%17 + 1, k: k, stride: stride, pad: pad,
		}
		if tc.n*tc.c*tc.h*tc.w > 1<<15 {
			tc.n = 1
		}
		checkConvRows(t, tc, seed)
	})
}
