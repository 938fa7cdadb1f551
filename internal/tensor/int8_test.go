package tensor

import (
	"math"
	"testing"
)

func TestQuantizeU8Into(t *testing.T) {
	src := []float32{0, 1, -1, 0.4, -0.4, 0.5, -0.5, 200, -200, 63.5}
	dst := make([]uint8, len(src))
	QuantizeU8Into(dst, src, 1) // scale 1: q = clamp(round(v), -127, 127) + 127
	want := []int32{0, 1, -1, 0, 0, 1, -1, 127, -127, 64}
	for i := range want {
		if got := int32(dst[i]) - 127; got != want[i] {
			t.Errorf("QuantizeU8Into[%d] = %d, want %d (src %g)", i, got, want[i], src[i])
		}
	}
}

func TestQuantizeRowsU8Into(t *testing.T) {
	rows, k := 3, 37
	kp := PadK(k)
	src := make([]float32, rows*k)
	rng := NewRNG(2)
	for i := range src {
		src[i] = float32(rng.NormFloat64())
	}
	dst := make([]uint8, rows*kp)
	QuantizeU8Into(dst[:0], nil, 1) // no-op, exercises empty input
	QuantizeRowsU8Into(dst, src, rows, k, kp, 0.05)
	flat := make([]uint8, rows*k)
	QuantizeU8Into(flat, src, 0.05)
	for i := 0; i < rows; i++ {
		for j := 0; j < kp; j++ {
			got := dst[i*kp+j]
			if j < k {
				if got != flat[i*k+j] {
					t.Fatalf("row %d col %d: %d != flat %d", i, j, got, flat[i*k+j])
				}
			} else if got != QuantPadByte {
				t.Fatalf("row %d pad col %d: %d, want %d", i, j, got, QuantPadByte)
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

func TestIm2ColU8MatchesFloat(t *testing.T) {
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
		// Quantize the input, unfold in bytes, and compare against unfolding
		// the dequantized input in float: identical element for element.
		scale := float32(0.05)
		xq := make([]uint8, x.Size())
		QuantizeU8Into(xq, x.Data(), scale)
		xdq := New(tc.n, tc.c, tc.h, tc.w)
		for i, q := range xq {
			xdq.Data()[i] = float32(int32(q)-127) * scale
		}
		oh, ow := ConvOut(tc.h, tc.k, tc.stride, tc.pad), ConvOut(tc.w, tc.k, tc.stride, tc.pad)
		rows, rowLen := tc.n*oh*ow, tc.c*tc.k*tc.k
		kp := PadK(rowLen)
		colsQ := make([]uint8, rows*kp)
		Im2ColU8Into(colsQ, xq, tc.n, tc.c, tc.h, tc.w, tc.k, tc.k, tc.stride, tc.pad)
		colsF := Transpose2D(NaiveIm2ColCM(xdq, tc.k, tc.k, tc.stride, tc.pad))
		for r := 0; r < rows; r++ {
			for j := 0; j < kp; j++ {
				got := float32(int32(colsQ[r*kp+j])-127) * scale
				want := float32(0)
				if j < rowLen {
					want = colsF.Data()[r*rowLen+j]
				}
				if got != want {
					t.Fatalf("%+v: cols[%d,%d] = %g, want %g", tc, r, j, got, want)
				}
			}
		}
	}
}

// biasRows converts signed int8 rows [rows,k] to the biased padded layout.
func biasRows(a []int8, rows, k, kp int) []uint8 {
	out := make([]uint8, rows*kp)
	for i := range out {
		out[i] = QuantPadByte
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < k; j++ {
			out[i*kp+j] = uint8(int32(a[i*k+j]) + 127)
		}
	}
	return out
}

func qgemmCase(t *testing.T, seed int64, m, k, n int, bias, relu bool, qp QGemmParams) {
	t.Helper()
	rng := NewRNG(uint64(seed))
	a := make([]int8, m*k)
	b := make([]int8, n*k)
	af, bf := New(m, k), New(n, k)
	rng.FillNormal(af, 0, 60)
	rng.FillNormal(bf, 0, 60)
	for i, v := range af.Data() {
		a[i] = quantizeOne(v, 1)
	}
	for i, v := range bf.Data() {
		b[i] = quantizeOne(v, 1)
	}
	st := New(n)
	rng.FillNormal(st, 0, 0.01)
	scales := st.Data()
	var bs []float32
	if bias {
		bt := New(n)
		rng.FillNormal(bt, 0, 1)
		bs = bt.Data()
	}
	wScales := make([]float32, n)
	for i := range wScales {
		wScales[i] = 1 // combined scale passed directly via scales
	}
	qw := PackQuantWeights(b, n, k, wScales)
	ap := biasRows(a, m, k, qw.KP)
	got, want := New(m, n), New(m, n)
	QGEMMIntoP(got, ap, qw, m, scales, bs, relu, qp)
	NaiveQGEMMTransBInto(want, a, b, m, k, n, scales, bs, relu)
	for i := range got.Data() {
		if got.Data()[i] != want.Data()[i] {
			t.Fatalf("m=%d k=%d n=%d bias=%v relu=%v %s: dst[%d] = %g, want %g (exact match required)",
				m, k, n, bias, relu, qp.String(), i, got.Data()[i], want.Data()[i])
		}
	}
}

func TestQGEMMParity(t *testing.T) {
	for _, tc := range []struct{ m, k, n int }{
		{1, 1, 1}, {3, 5, 7}, {4, 16, 4}, {17, 33, 9}, {8, 64, 31},
		{16, 144, 32}, {2, 7, 4}, {5, 96, 6}, {3, 64, 3}, {9, 100, 12},
	} {
		for _, bias := range []bool{false, true} {
			for _, relu := range []bool{false, true} {
				qgemmCase(t, int64(tc.m*1000+tc.k*10+tc.n), tc.m, tc.k, tc.n, bias, relu, DefaultQGemmParams())
			}
		}
	}
}

// TestQGEMMSaturatedExtremes drives every operand to ±127 so lane packing,
// block accumulation, and the bias-correction identity are exercised at
// their numeric bounds.
func TestQGEMMSaturatedExtremes(t *testing.T) {
	m, k, n := 3, 2*QGEMMBlock+5, 5
	patterns := []int8{127, -127, 0, 127, -127}
	a := make([]int8, m*k)
	b := make([]int8, n*k)
	for i := range a {
		a[i] = patterns[i%len(patterns)]
	}
	for i := range b {
		b[i] = patterns[(i*3+1)%len(patterns)]
	}
	scales := make([]float32, n)
	for i := range scales {
		scales[i] = 1
	}
	qw := PackQuantWeights(b, n, k, scales)
	ap := biasRows(a, m, k, qw.KP)
	got, want := New(m, n), New(m, n)
	QGEMMInto(got, ap, qw, m, scales, nil, false)
	NaiveQGEMMTransBInto(want, a, b, m, k, n, scales, nil, false)
	for i := range got.Data() {
		if got.Data()[i] != want.Data()[i] {
			t.Fatalf("dst[%d] = %g, want %g", i, got.Data()[i], want.Data()[i])
		}
	}
}

// FuzzQuantizedGEMMParity fuzzes shapes AND the activation-row tile: the
// int8 kernel must be bit-exact against the naive reference for every
// TileM, including tiles larger than m and the zero value (normed to the
// default), with ragged row remainders in between.
func FuzzQuantizedGEMMParity(f *testing.F) {
	f.Add(int64(1), 4, 9, 6, true, true, 0)
	f.Add(int64(2), 1, 1, 1, false, false, 1)
	f.Add(int64(3), 7, 33, 5, true, false, 3)
	f.Add(int64(4), 2, 64, 3, false, true, 32)
	f.Add(int64(5), 29, 80, 7, true, true, 16)
	f.Fuzz(func(t *testing.T, seed int64, m, k, n int, bias, relu bool, tileM int) {
		m, k, n = 1+absInt(m)%40, 1+absInt(k)%96, 1+absInt(n)%24
		qgemmCase(t, seed, m, k, n, bias, relu, QGemmParams{TileM: absInt(tileM) % (QGemmMaxTileM + 2)})
	})
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// BenchmarkQuantConvPipeline compares the full f32 conv hot loop
// (channel-major unfold + GEMM with the weight as the A operand) against the int8 one (quantize + byte im2col + SWAR
// QGEMM with fused requantize) on VGG-sized layers.
func BenchmarkQuantConvPipeline(b *testing.B) {
	for _, tc := range []struct {
		name             string
		n, c, h, w, outC int
	}{
		{"c64x32x32_o64", 8, 64, 32, 32, 64},
		{"c32x64x64_o64", 8, 32, 64, 64, 64},
		{"c128x16x16_o128", 8, 128, 16, 16, 128},
	} {
		k, stride, pad := 3, 1, 1
		oh, ow := ConvOut(tc.h, k, stride, pad), ConvOut(tc.w, k, stride, pad)
		rows, rowLen := tc.n*oh*ow, tc.c*k*k
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
		qw := PackQuantWeights(qwData, tc.outC, rowLen, wScales)
		xScale := QuantScale(3)
		scales := make([]float32, tc.outC)
		for i := range scales {
			scales[i] = xScale * wScales[i]
		}
		out := New(rows, tc.outC)

		b.Run(tc.name+"/f32", func(b *testing.B) {
			cols, outCM := New(rowLen, rows), New(tc.outC, rows)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Im2ColCMInto(cols, x, k, k, stride, pad)
				MatMulInto(outCM, wgt, cols)
			}
		})
		b.Run(tc.name+"/int8", func(b *testing.B) {
			xq := make([]uint8, x.Size())
			cols := make([]uint8, rows*qw.KP)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				QuantizeU8Into(xq, x.Data(), xScale)
				Im2ColU8Into(cols, xq, tc.n, tc.c, tc.h, tc.w, k, k, stride, pad)
				QGEMMInto(out, cols, qw, rows, scales, nil, false)
			}
		})
	}
}
