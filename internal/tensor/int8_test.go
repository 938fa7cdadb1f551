package tensor

import (
	"math"
	"testing"
)

func TestQuantizeI8Into(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	src := []float32{0, negZero, 1, -1, 0.4, -0.4, 0.5, -0.5, 200, -200, 63.5, 126.5, -126.5, 1e30, -1e30, inf, -inf, nan}
	dst := make([]int8, len(src))
	QuantizeI8Into(dst, src, 1, 1, len(src), 1) // scale 1: q = clamp(round(v), -127, 127)
	want := []int8{0, 0, 1, -1, 0, 0, 1, -1, 127, -127, 64, 127, -127, 127, -127, 127, -127, -127}
	for i := range want {
		if dst[i] != want[i] {
			t.Errorf("QuantizeI8Into[%d] = %d, want %d (src %g)", i, dst[i], want[i], src[i])
		}
	}
	// Channels-last: two images of three channels over more pixels than one
	// parallel tile, with a ragged last tile.
	n, c, hw := 2, 3, 2*quantTile+37
	x := make([]float32, n*c*hw)
	rng := NewRNG(3)
	for i := range x {
		x[i] = float32(rng.NormFloat64() * 80)
	}
	got := make([]int8, len(x))
	QuantizeI8Into(got, x, n, c, hw, 0.5)
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			for p := 0; p < hw; p++ {
				want := quantizeOne(x[(ni*c+ci)*hw+p], 2)
				if g := got[(ni*hw+p)*c+ci]; g != want {
					t.Fatalf("image %d channel %d pixel %d: %d, want %d", ni, ci, p, g, want)
				}
			}
		}
	}
}

func TestQuantizeRowsI8Into(t *testing.T) {
	rows, k := 3, 37
	kp := PadK(k)
	src := make([]float32, rows*k)
	rng := NewRNG(2)
	for i := range src {
		src[i] = float32(rng.NormFloat64())
	}
	dst := make([]int8, rows*kp)
	for i := range dst {
		dst[i] = 99 // the tails must be overwritten with zeros
	}
	QuantizeI8Into(dst[:0], nil, 0, 1, 1, 1) // no-op, exercises empty input
	QuantizeRowsI8Into(dst, src, rows, k, kp, 0.05)
	flat := make([]int8, rows*k)
	QuantizeI8Into(flat, src, 1, 1, rows*k, 0.05)
	for i := 0; i < rows; i++ {
		for j := 0; j < kp; j++ {
			got := dst[i*kp+j]
			if j < k {
				if got != flat[i*k+j] {
					t.Fatalf("row %d col %d: %d != flat %d", i, j, got, flat[i*k+j])
				}
			} else if got != 0 {
				t.Fatalf("row %d pad col %d: %d, want 0", i, j, got)
			}
		}
	}
}

func TestQuantizeChannelsI8(t *testing.T) {
	// Two rows with different ranges: each must get its own scale.
	w := []float32{1, -2, 0.5, 100, 50, -25}
	q, scales := QuantizeChannelsI8(w, 2, 3)
	if got, want := scales[0], float32(2.0/QuantClip); math.Abs(float64(got-want)) > 1e-7 {
		t.Errorf("row 0 scale = %g, want %g", got, want)
	}
	if got, want := scales[1], float32(100.0/QuantClip); math.Abs(float64(got-want)) > 1e-7 {
		t.Errorf("row 1 scale = %g, want %g", got, want)
	}
	// absmax of each row must quantize to exactly ±127.
	if q[1] != -127 {
		t.Errorf("row 0 absmax quantized to %d, want -127", q[1])
	}
	if q[3] != 127 {
		t.Errorf("row 1 absmax quantized to %d, want 127", q[3])
	}
	// Round trip error bounded by scale/2 per element.
	for r := 0; r < 2; r++ {
		for i := 0; i < 3; i++ {
			back := float32(q[r*3+i]) * scales[r]
			if diff := math.Abs(float64(back - w[r*3+i])); diff > float64(scales[r])/2+1e-6 {
				t.Errorf("round trip [%d,%d]: %g -> %g (scale %g)", r, i, w[r*3+i], back, scales[r])
			}
		}
	}
}

func TestIm2ColI8MatchesFloat(t *testing.T) {
	rng := NewRNG(7)
	for _, tc := range []struct{ n, c, h, w, k, stride, pad int }{
		{1, 1, 5, 5, 3, 1, 1},
		{2, 3, 8, 8, 3, 1, 1},
		{2, 4, 9, 7, 3, 2, 1},
		{1, 2, 6, 6, 1, 1, 0},
		{2, 3, 8, 8, 5, 2, 2},
	} {
		x := New(tc.n, tc.c, tc.h, tc.w)
		rng.FillNormal(x, 0, 1)
		// Quantize the input channels-last, unfold in bytes, and compare
		// against unfolding the dequantized NCHW input in float: identical
		// element for element, the byte rows (ky, kx, ci)-ordered.
		scale := float32(0.05)
		hw, taps := tc.h*tc.w, tc.k*tc.k
		xq := make([]int8, x.Size())
		QuantizeI8Into(xq, x.Data(), tc.n, tc.c, hw, scale)
		xdq := New(tc.n, tc.c, tc.h, tc.w)
		for ni := 0; ni < tc.n; ni++ {
			for ci := 0; ci < tc.c; ci++ {
				for p := 0; p < hw; p++ {
					xdq.Data()[(ni*tc.c+ci)*hw+p] = float32(xq[(ni*hw+p)*tc.c+ci]) * scale
				}
			}
		}
		oh, ow := ConvOut(tc.h, tc.k, tc.stride, tc.pad), ConvOut(tc.w, tc.k, tc.stride, tc.pad)
		rows, rowLen := tc.n*oh*ow, tc.c*taps
		kp := PadK(rowLen)
		colsQ := make([]int8, rows*kp)
		for i := range colsQ {
			colsQ[i] = 99 // padding and tails must be overwritten with zeros
		}
		Im2ColI8Into(colsQ, xq, tc.n, tc.c, tc.h, tc.w, tc.k, tc.k, tc.stride, tc.pad)
		colsF := NaiveIm2ColCM(xdq, tc.k, tc.k, tc.stride, tc.pad) // [(ci, ky, kx), pixel]
		for r := 0; r < rows; r++ {
			for j := 0; j < kp; j++ {
				got := float32(colsQ[r*kp+j]) * scale
				want := float32(0)
				if j < rowLen {
					tap, ci := j/tc.c, j%tc.c
					want = colsF.At(ci*taps+tap, r)
				}
				if got != want {
					t.Fatalf("%+v: cols[%d,%d] = %g, want %g", tc, r, j, got, want)
				}
			}
		}
	}
}

// padRows lays signed int8 rows [rows,k] out at stride kp with zero tails.
func padRows(a []int8, rows, k, kp int) []int8 {
	out := make([]int8, rows*kp)
	for i := 0; i < rows; i++ {
		copy(out[i*kp:], a[i*k:(i+1)*k])
	}
	return out
}

// checkQGEMM runs QGEMMInto with the weight w [n,k] as A and the
// activations x [m,k] as B, in both store orientations — channel-major
// [n, m] (a convolution's rows) and row-major [m, n] (a linear layer's
// output) — and requires each to equal NaiveQGEMMTransBInto(x, w) bit for
// bit.
func checkQGEMM(t *testing.T, x, w []int8, m, k, n int, scales, bias []float32) {
	t.Helper()
	want := New(m, n)
	NaiveQGEMMTransBInto(want, x, w, m, k, n, scales, bias)
	kp := PadK(k)
	a, b := PackWeightsI8(w, n, k, 1), padRows(x, m, k, kp)
	for _, o := range []struct {
		name   string
		rs, cs int
		at     func(i, j int) int // index of want[i,j] in c
	}{
		{"channel-major", m, 1, func(i, j int) int { return j*m + i }},
		{"row-major", 1, n, func(i, j int) int { return i*n + j }},
	} {
		c := make([]float32, m*n)
		for i := range c {
			c[i] = float32(math.NaN()) // every element must be stored
		}
		QGEMMInto(c, o.rs, o.cs, a, n, b, m, kp, scales, bias)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				got, exp := c[o.at(i, j)], want.At(i, j)
				if math.Float32bits(got) != math.Float32bits(exp) {
					t.Fatalf("m=%d k=%d n=%d bias=%v %s: [%d,%d] = %g, want %g (exact match required)",
						m, k, n, bias != nil, o.name, i, j, got, exp)
				}
			}
		}
	}
}

func qgemmCase(t *testing.T, seed int64, m, k, n int, bias bool) {
	t.Helper()
	rng := NewRNG(uint64(seed))
	x, w := make([]int8, m*k), make([]int8, n*k)
	xf, wf := New(m, k), New(n, k)
	rng.FillNormal(xf, 0, 60)
	rng.FillNormal(wf, 0, 60)
	for i, v := range xf.Data() {
		x[i] = quantizeOne(v, 1)
	}
	for i, v := range wf.Data() {
		w[i] = quantizeOne(v, 1)
	}
	st := New(n)
	rng.FillNormal(st, 0, 0.01)
	var bs []float32
	if bias {
		bt := New(n)
		rng.FillNormal(bt, 0, 1)
		bs = bt.Data()
	}
	checkQGEMM(t, x, w, m, k, n, st.Data(), bs)
}

// qdotVariant is one int8 block kernel that tests and benchmarks bind in
// place of qdot4x2; skip, if set, says why this CPU or build cannot run it.
// qdotVariants (vec_amd64_test.go, vec_other_test.go) lists them.
type qdotVariant struct {
	name string
	fn   qdotFn
	skip string
}

// bindQDot binds qdot4x2 to fn and returns the function that restores the
// startup binding.
func bindQDot(fn qdotFn) (restore func()) {
	old := qdot4x2
	qdot4x2 = fn
	return func() { qdot4x2 = old }
}

// forEachQDot runs body as one subtest per int8 block kernel variant, with
// qdot4x2 bound to it, and skips — naming the reason in the log — each
// variant this CPU or build cannot run.
func forEachQDot(t *testing.T, body func(t *testing.T)) {
	for _, v := range qdotVariants() {
		t.Run(v.name, func(t *testing.T) {
			if v.skip != "" {
				t.Skip(v.skip)
			}
			defer bindQDot(v.fn)()
			body(t)
		})
	}
}

// TestQGEMMParity covers the kernel's ragged edges on every int8 variant:
// fewer than four weight rows, a ragged last row block, one activation
// column, odd column counts and more columns than one parallel tile.
func TestQGEMMParity(t *testing.T) {
	t.Logf("startup binding: %s", KernelSignature())
	forEachQDot(t, func(t *testing.T) {
		for _, tc := range []struct{ m, k, n int }{
			{1, 1, 1}, {3, 5, 7}, {4, 16, 4}, {17, 33, 9}, {8, 64, 31},
			{16, 144, 32}, {2, 7, 4}, {5, 96, 6}, {3, 64, 3}, {9, 100, 12},
			{1, 27, 64}, {130, 27, 6}, {129, 40, 2}, {64, 576, 13},
		} {
			for _, bias := range []bool{false, true} {
				qgemmCase(t, int64(tc.m*1000+tc.k*10+tc.n), tc.m, tc.k, tc.n, bias)
			}
		}
	})
}

// TestQGEMMSaturatedExtremes drives every operand to ±127 at the deepest K
// QuantDepthOK admits, so the int32 accumulators reach ±K·127² — the bound
// qgemmMaxK is sized for — and any int16 saturation or int32 overflow
// inside a kernel variant would show. Both store orientations are checked.
func TestQGEMMSaturatedExtremes(t *testing.T) {
	k := qgemmMaxK
	if !QuantDepthOK(k) || QuantDepthOK(k+1) {
		t.Fatalf("QuantDepthOK admits up to %d, want exactly %d", k, qgemmMaxK)
	}
	sign := func(row, p int) int8 {
		switch row % 4 {
		case 0:
			return 127
		case 1:
			return -127
		case 2:
			return int8(127 - 254*(p%2))
		}
		return int8(-127 + 254*(p%2))
	}
	m, n := 5, 6
	x, w := make([]int8, m*k), make([]int8, n*k)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			x[i*k+p] = sign(i, p)
		}
	}
	for j := 0; j < n; j++ {
		for p := 0; p < k; p++ {
			w[j*k+p] = sign(j, p)
		}
	}
	scales := make([]float32, n)
	for i := range scales {
		scales[i] = 1
	}
	forEachQDot(t, func(t *testing.T) {
		checkQGEMM(t, x, w, m, k, n, scales, nil)
		// Rows with the same sign pattern reach the positive bound exactly.
		c := make([]float32, m*n)
		QGEMMInto(c, 1, n, PackWeightsI8(w, n, k, 1), n, padRows(x, m, k, k), m, k, scales, nil)
		if got, want := c[2*n+2], float32(k*QuantClip*QuantClip); got != want {
			t.Fatalf("saturated dot = %g, want %g", got, want)
		}
	})
}

// FuzzQuantizedGEMMParity fuzzes shapes on every int8 kernel variant the
// CPU runs: the int8 GEMM must be bit-exact against the naive reference in
// both store orientations, with ragged row blocks, ragged column pairs and
// several parallel column tiles in between.
func FuzzQuantizedGEMMParity(f *testing.F) {
	f.Add(int64(1), 4, 9, 6, true)
	f.Add(int64(2), 1, 1, 1, false)
	f.Add(int64(3), 7, 33, 5, true)
	f.Add(int64(4), 2, 64, 3, false)
	f.Add(int64(5), 129, 80, 7, true)
	f.Fuzz(func(t *testing.T, seed int64, m, k, n int, bias bool) {
		m, k, n = 1+absInt(m)%150, 1+absInt(k)%200, 1+absInt(n)%24
		forEachQDot(t, func(t *testing.T) { qgemmCase(t, seed, m, k, n, bias) })
	})
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// BenchmarkQuantConvPipeline compares the full f32 conv hot loop
// (channel-major unfold + GEMM with the weight as the A operand) against
// the int8 one (quantize + pixel-major int8 unfold + int8 GEMM with the
// weight as A and a fused requantize) on VGG-sized layers, the last one a
// weight-bound branch conv at batch 1. The int8 leg runs once per kernel
// variant the CPU can run (int8/go, int8/avx2, int8/vnni), bound the way the
// tests bind them, so one box compares the variants without an env switch.
// GMAC/s counts the conv's unpadded multiply-adds.
func BenchmarkQuantConvPipeline(b *testing.B) {
	for _, tc := range []struct {
		name             string
		n, c, h, w, outC int
	}{
		{"c64x32x32_o64", 1, 64, 32, 32, 64},
		{"c128x16x16_o128", 1, 128, 16, 16, 128},
		{"c512x4x4_o512", 1, 512, 4, 4, 512},
		{"c512x2x2_o512", 1, 512, 2, 2, 512},
		{"c64x32x32_o64_n8", 8, 64, 32, 32, 64},
	} {
		k, stride, pad := 3, 1, 1
		oh, ow := ConvOut(tc.h, k, stride, pad), ConvOut(tc.w, k, stride, pad)
		rows, rowLen := tc.n*oh*ow, tc.c*k*k
		macs := float64(tc.outC * rows * rowLen)
		gmacs := func(b *testing.B) {
			b.ReportMetric(macs*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
		}
		rng := NewRNG(11)
		x := New(tc.n, tc.c, tc.h, tc.w)
		rng.FillNormal(x, 0, 1)
		// ~half the activations are post-ReLU zeros in real nets.
		for i, v := range x.Data() {
			if v < 0 {
				x.Data()[i] = 0
			}
		}
		wgt := New(tc.outC, rowLen)
		rng.FillNormal(wgt, 0, 0.1)
		qwData, wScales := QuantizeChannelsI8(wgt.Data(), tc.outC, rowLen)
		qw := PackWeightsI8(qwData, tc.outC, rowLen, k*k)
		kp := PadK(rowLen)
		xScale := QuantScale(3)
		scales := make([]float32, tc.outC)
		for i := range scales {
			scales[i] = xScale * wScales[i]
		}

		b.Run(tc.name+"/f32", func(b *testing.B) {
			cols, outCM := New(rowLen, rows), New(tc.outC, rows)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Im2ColCMInto(cols, x, k, k, stride, pad)
				MatMulInto(outCM, wgt, cols)
			}
			gmacs(b)
		})
		for _, v := range qdotVariants() {
			b.Run(tc.name+"/int8/"+v.name, func(b *testing.B) {
				if v.skip != "" {
					b.Skip(v.skip)
				}
				defer bindQDot(v.fn)()
				xq := make([]int8, x.Size())
				cols := make([]int8, rows*kp)
				out := make([]float32, tc.outC*rows)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					QuantizeI8Into(xq, x.Data(), tc.n, tc.c, tc.h*tc.w, xScale)
					Im2ColI8Into(cols, xq, tc.n, tc.c, tc.h, tc.w, k, k, stride, pad)
					QGEMMInto(out, rows, 1, qw, tc.outC, cols, rows, kp, scales, nil)
				}
				gmacs(b)
			})
		}
	}
}
