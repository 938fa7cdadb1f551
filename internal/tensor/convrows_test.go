package tensor

import (
	"math"
	"os"
	"os/exec"
	"testing"
)

// convRowsCase is one ConvRowsInto geometry: x [n, c, h, w], oc output
// channels, a k×k kernel.
type convRowsCase struct{ n, c, h, w, oc, k, stride, pad int }

// checkConvRows runs ConvRowsInto and ConvWeightGradInto on tc and
// compares them bit for bit with the unfold they replace (Im2ColCMInto +
// MatMulInto, Im2ColCMInto + MatMulTransBInto), both on x at tc.pad and on
// PadInto's copy of x at pad 0, the training body's form. It reports the
// forms convImplicit and convWeightGradForm picked.
func checkConvRows(t *testing.T, tc convRowsCase, seed uint64) (fwd, dw int) {
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
	return convImplicit(oh, ow, tc.w+2*tc.pad, tc.stride), convWeightGradForm(tc.stride)
}

// wantWeightGradForm is the dW form tc should take: the implicit GEMM on
// every stride-1 conv of the assembly tier, at any output width, and the
// unfold elsewhere.
func wantWeightGradForm(tc convRowsCase) int {
	if vecActive && tc.stride == 1 {
		return convRows8
	}
	return convUnfold
}

// TestConvImplicitMatchesUnfold holds ConvRowsInto and ConvWeightGradInto
// to the unfold+GEMM bits over output channels 1–17, input channels 1–20,
// output widths 1–40 and batches 1–33, and checks which forms they pick:
// on the assembly tier the forward takes the row forms for stride-1 convs
// with OW % 8 == 0 (16-wide blocks where OW % 16 == 0), the padded-pitch
// grid for other stride-1 maps of at least one block, and the unfold for
// the rest, and the weight gradient is implicit on every stride-1 conv;
// on the pure-Go tier both unfold. Every form must agree.
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
			if got, dw := checkConvRows(t, tc, seed); got != want || dw != wantWeightGradForm(tc) {
				t.Fatalf("%+v: forms %d (forward), %d (dW), want %d, %d", tc, got, dw, want, wantWeightGradForm(tc))
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
		if got, dw := checkConvRows(t, tc, uint64(200+i)); got != want || dw != wantWeightGradForm(tc) {
			t.Fatalf("%+v: forms %d (forward), %d (dW), want the grid (%d) and %d", tc, got, dw, want, wantWeightGradForm(tc))
		}
	}
	// Strided convs and maps smaller than a block unfold their forward; the
	// stride-1 ones, the 2×2 and 1×1 maps of the search's last stage among
	// them, still take the implicit weight gradient.
	for i, tc := range []convRowsCase{
		{2, 3, 16, 16, 5, 3, 2, 1}, {16, 16, 2, 2, 16, 3, 1, 1},
		{2, 3, 8, 8, 4, 2, 2, 0}, {5, 2, 1, 7, 3, 1, 1, 0},
		{16, 16, 1, 1, 16, 3, 1, 1}, {3, 4, 1, 3, 5, 3, 1, 1},
	} {
		if got, dw := checkConvRows(t, tc, uint64(300+i)); got != convUnfold || dw != wantWeightGradForm(tc) {
			t.Fatalf("%+v: forms %d (forward), %d (dW), want the unfold and %d", tc, got, dw, wantWeightGradForm(tc))
		}
	}
	// The weight gradient's form at every output width 1–8, on both tiers.
	for ow := 1; ow <= 8; ow++ {
		tc := convRowsCase{n: 3, c: 5, h: 3, w: ow, oc: 9, k: 3, stride: 1, pad: 1}
		if _, dw := checkConvRows(t, tc, uint64(400+ow)); dw != wantWeightGradForm(tc) {
			t.Fatalf("%+v: dW form %d, want %d", tc, dw, wantWeightGradForm(tc))
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

// checkConvInputGrad runs ConvInputGradInto on tc, leasing its scratch and
// in a caller's, and compares it with the path it replaces,
// MatMulTransAInto + Col2ImCMInto: every element bit for bit, NaN at the
// same positions. specials puts a few NaNs and ±Infs into dz, next to the
// ReLU-masked zeros and negative zeros every case has; the weight stays
// finite, as ConvInputGradInto's contract wants. It reports the form
// convInputGradForm picked.
func checkConvInputGrad(t *testing.T, tc convRowsCase, seed uint64, specials bool) int {
	t.Helper()
	rng := NewRNG(seed)
	oh, ow := ConvOut(tc.h, tc.k, tc.stride, tc.pad), ConvOut(tc.w, tc.k, tc.stride, tc.pad)
	kk, m := tc.c*tc.k*tc.k, tc.n*oh*ow
	w, dz := New(tc.oc, kk), New(tc.oc, m)
	rng.FillNormal(w, 0, 1)
	rng.FillNormal(dz, 0, 1)
	for i, v := range dz.data {
		switch {
		case i%7 == 3:
			dz.data[i] = float32(math.Copysign(0, -1))
		case v < -0.5:
			dz.data[i] = 0
		}
	}
	if specials {
		for i, v := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
			dz.data[int(rng.Uint64()%uint64(len(dz.data)))] = v
			if i == 0 {
				w.data[int(rng.Uint64()%uint64(len(w.data)))] = 0 // 0·Inf makes a NaN too
			}
		}
	}
	cols := New(kk, m)
	MatMulTransAInto(cols, w, dz)
	want := New(tc.n, tc.c, tc.h, tc.w)
	Col2ImCMInto(want, cols, tc.k, tc.k, tc.stride, tc.pad)
	own := make([]float32, ConvInputGradScratch(tc.n, tc.c, tc.h, tc.w, tc.oc, tc.k, tc.stride, tc.pad))
	for i := range own {
		own[i] = float32(math.NaN()) // the scratch comes dirty
	}
	for _, scratch := range [][]float32{nil, own} {
		got := Full(float32(math.NaN()), tc.n, tc.c, tc.h, tc.w)
		ConvInputGradInto(got, w, dz, scratch, tc.k, tc.stride, tc.pad)
		for i, v := range got.data {
			g, e := math.Float32bits(v), math.Float32bits(want.data[i])
			if g != e && !(v != v && want.data[i] != want.data[i]) {
				t.Fatalf("%+v: ConvInputGradInto[%d] = %v (%#x), dcols GEMM + fold %v (%#x)", tc, i, v, g, want.data[i], e)
			}
		}
	}
	return convInputGradForm(tc.h, tc.w, tc.k, tc.stride, tc.pad)
}

// wantInputGradForm is the form ConvInputGradInto should take for tc, the
// rule written out: on the assembly tier a stride-1 conv with pad < K runs
// the 16-wide row blocks when the input is a multiple of 16 wide, 8-wide
// when of 8, the padded-pitch grid when the image spans one 8-position
// block of dz's padded pitch W+K−1, and the GEMM and the fold otherwise.
func wantInputGradForm(tc convRowsCase) int {
	switch {
	case !vecActive || tc.stride != 1 || tc.pad >= tc.k:
		return convUnfold
	case tc.w%16 == 0:
		return convRows16
	case tc.w%8 == 0:
		return convRows8
	case (tc.h-1)*(tc.w+tc.k-1)+tc.w >= 8:
		return convGrid8
	}
	return convUnfold
}

// TestConvInputGradMatchesFold holds ConvInputGradInto to the dcols GEMM +
// fold bits over output channels 1–17, input channels 1–20, input widths
// 1–48, batches 1–33, 1×1, 3×3 and 5×5 kernels at every padding 0…K−1,
// with and without NaN and ±Inf in dz, and checks which form each shape
// takes on the bound tier.
func TestConvInputGradMatchesFold(t *testing.T) {
	widths := []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 20, 24, 31, 32, 40, 47, 48}
	batches := []int{1, 2, 3, 16, 33}
	chans := []int{1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 20}
	seed := uint64(1000)
	forms := map[int]int{}
	for oc := 1; oc <= 17; oc++ {
		for ci, c := range chans {
			seed++
			k := []int{1, 3, 5}[(oc+ci)%3]
			tc := convRowsCase{
				n: batches[(oc*3+ci)%len(batches)], c: c,
				h: 1 + (oc+2*ci)%9, w: widths[(oc*5+ci)%len(widths)],
				oc: oc, k: k, stride: 1, pad: (oc + ci) % k,
			}
			if tc.n*tc.c*tc.h*tc.w > 12000 { // keep the sweep quick; large batches stay covered
				tc.n = 1 + int(seed%4)
			}
			for min(tc.h, tc.w)+2*tc.pad < k { // a map smaller than the kernel needs the padding
				tc.pad++
			}
			got := checkConvInputGrad(t, tc, seed, seed%2 == 0)
			if want := wantInputGradForm(tc); got != want {
				t.Fatalf("%+v: convInputGradForm %d, want %d", tc, got, want)
			}
			forms[got]++
		}
	}
	// The search's training shapes at its batch of 16 (convs of the first
	// stage have 3 input channels), strided convs, a padding of K, and
	// 2×2 and 1×1 maps.
	for i, tc := range []convRowsCase{
		{16, 3, 32, 32, 2, 3, 1, 1}, {16, 2, 32, 32, 2, 3, 1, 1},
		{16, 2, 16, 16, 4, 3, 1, 1}, {16, 4, 16, 16, 4, 3, 1, 1},
		{16, 4, 8, 8, 8, 3, 1, 1}, {16, 8, 8, 8, 8, 3, 1, 1},
		{16, 8, 4, 4, 16, 3, 1, 1}, {16, 16, 4, 4, 16, 3, 1, 1},
		{16, 16, 2, 2, 16, 3, 1, 1}, {16, 16, 1, 1, 16, 3, 1, 1},
		{2, 3, 16, 16, 5, 3, 2, 1}, {3, 4, 9, 9, 6, 3, 2, 0},
		{2, 3, 8, 8, 4, 1, 1, 1}, {33, 5, 8, 8, 17, 5, 1, 4},
	} {
		got := checkConvInputGrad(t, tc, uint64(2000+i), i%2 == 1)
		if want := wantInputGradForm(tc); got != want {
			t.Fatalf("%+v: convInputGradForm %d, want %d", tc, got, want)
		}
		forms[got]++
	}
	if vecActive && (forms[convRows16] == 0 || forms[convRows8] == 0 || forms[convGrid8] == 0 || forms[convUnfold] == 0) {
		t.Fatalf("the sweep missed a form: %v cases by form", forms)
	}
	t.Logf("%s: cases by form %v", VecKind(), forms)
}

// TestConvInputGradAcrossGOMAXPROCS runs TestConvInputGradMatchesFold in a
// child at GOMAXPROCS 1 and 2: the worker pool fixes its width at first
// use, so a width is a process. Each child holds the implicit form to the
// GEMM + fold bits, which no split of the work moves.
func TestConvInputGradAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("re-executes the test binary")
	}
	for _, procs := range []string{"1", "2"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestConvInputGradMatchesFold$", "-test.count=1")
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+procs)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("GOMAXPROCS=%s: %v\n%s", procs, err, out)
		}
	}
}

// FuzzConvInputGradParity is TestConvInputGradMatchesFold over fuzzed
// geometry: whichever form it takes, ConvInputGradInto must give the dcols
// GEMM + fold bits.
func FuzzConvInputGradParity(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(32), uint8(2), uint8(4), uint8(1), uint8(1), uint8(0), uint64(1))
	f.Add(uint8(17), uint8(20), uint8(40), uint8(3), uint8(1), uint8(1), uint8(0), uint8(0), uint64(2))
	f.Add(uint8(8), uint8(4), uint8(8), uint8(33), uint8(8), uint8(2), uint8(3), uint8(0), uint64(3))
	f.Add(uint8(16), uint8(16), uint8(4), uint8(16), uint8(4), uint8(1), uint8(1), uint8(0), uint64(4))
	f.Add(uint8(5), uint8(3), uint8(24), uint8(1), uint8(3), uint8(1), uint8(1), uint8(1), uint64(5))
	f.Fuzz(func(t *testing.T, ocRaw, cRaw, wRaw, nRaw, hRaw, kRaw, padRaw, sRaw uint8, seed uint64) {
		k := []int{1, 3, 5}[int(kRaw)%3]
		tc := convRowsCase{
			n: int(nRaw)%33 + 1, c: int(cRaw)%20 + 1,
			h: int(hRaw)%12 + 1, w: int(wRaw)%48 + 1,
			oc: int(ocRaw)%17 + 1, k: k, stride: 1 + int(sRaw)%2, pad: int(padRaw) % k,
		}
		if tc.n*tc.c*tc.h*tc.w > 1<<15 {
			tc.n = 1
		}
		if ConvOut(tc.h, tc.k, tc.stride, tc.pad) < 1 || ConvOut(tc.w, tc.k, tc.stride, tc.pad) < 1 {
			return
		}
		checkConvInputGrad(t, tc, seed, seed%2 == 0)
	})
}
