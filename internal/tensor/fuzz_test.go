package tensor

import (
	"math"
	"testing"
)

// Fuzz targets for blocked-vs-naive kernel parity. The corpus is seeded
// with the shapes the internal/models zoo actually produces (3x3 stride-1
// pad-1 convolutions lowered to [N*OH*OW, C*9] x [outC, C*9]ᵀ GEMMs, plus
// classifier-head matmuls), and the fuzzer then explores arbitrary small
// shapes and value patterns.

// FuzzMatMulParity checks MatMulInto (blocked, packed, unrolled) against
// NaiveMatMulInto on random shapes and values, including the sparse inputs
// that trigger the kernel's zero-skip path.
func FuzzMatMulParity(f *testing.F) {
	// Model-zoo GEMM shapes (modulo the %64+1 clamp below): a 3->16 stem
	// conv over 8x8 (m=64,k=27,n=16), a 16->32 conv (k=144), and the
	// classifier head (k=128,n=10).
	f.Add(uint8(63), uint8(26), uint8(15), uint64(1), false)
	f.Add(uint8(48), uint8(143%64), uint8(31), uint64(2), false)
	f.Add(uint8(3), uint8(127%64), uint8(9), uint64(3), false)
	// Unroll remainders and degenerate dims.
	f.Add(uint8(0), uint8(0), uint8(0), uint64(4), false)
	f.Add(uint8(2), uint8(4), uint8(2), uint64(5), true)
	f.Add(uint8(16), uint8(3), uint8(16), uint64(6), true)
	f.Fuzz(func(t *testing.T, mRaw, kRaw, nRaw uint8, seed uint64, sparse bool) {
		m := int(mRaw)%64 + 1
		k := int(kRaw)%64 + 1
		n := int(nRaw)%64 + 1
		rng := NewRNG(seed)
		a, b := New(m, k), New(k, n)
		rng.FillNormal(a, 0, 1)
		rng.FillNormal(b, 0, 1)
		if sparse {
			// ReLU-like sparsity exercises the all-zero group skip.
			ad := a.Data()
			for i := range ad {
				if ad[i] < 0 {
					ad[i] = 0
				}
			}
		}
		got, want := New(m, n), New(m, n)
		MatMulInto(got, a, b)
		NaiveMatMulInto(want, a, b)
		if d := maxAbsDiff(got, want); d > parityTol*math.Sqrt(float64(k)) {
			t.Fatalf("MatMul [%d,%d]@[%d,%d] (sparse=%v): max diff %g", m, k, k, n, sparse, d)
		}
	})
}

// FuzzGemmParamsParity checks the blocked GEMM driver — both the plain and
// the transposed-B products — against the naive reference under fuzzed
// forced blockings. Dimensions reach past the packed-panel extents the
// fuzzed KC/NC select, so panel seams, ragged tail tiles, and both
// microkernel register blocks are all crossed. Any blocking must agree
// with the naive reference AND with the exported entry point's own
// blocking to the parity tolerance. At the entry point's KC it must agree
// bit for bit, whatever its NC and, on the assembly tier, whatever its
// register block — gemmBlocking's rule swaps the block on that promise.
func FuzzGemmParamsParity(f *testing.F) {
	// Panel-crossing seeds: k and n past one KC/NC panel, ragged remainders
	// against both register blocks, and degenerate single-element shapes.
	f.Add(uint16(65), uint16(129), uint16(37), uint8(0), uint8(1), true, uint64(1), false)
	f.Add(uint16(17), uint16(150), uint16(140), uint8(1), uint8(0), false, uint64(2), true)
	f.Add(uint16(4), uint16(96), uint16(8), uint8(3), uint8(2), true, uint64(3), false)
	f.Add(uint16(1), uint16(1), uint16(1), uint8(0), uint8(0), false, uint64(4), false)
	f.Fuzz(func(t *testing.T, mRaw, kRaw, nRaw uint16, kcRaw, ncRaw uint8, transB bool, seed uint64, eightWide bool) {
		m := int(mRaw)%80 + 1
		k := int(kRaw)%320 + 1
		n := int(nRaw)%160 + 1
		// Small panels force seam crossings inside fuzz-sized problems; a
		// zero draw takes the full gemmPanel.
		gp := gemmParams{kc: int(kcRaw) % 4 * 32, nc: int(ncRaw) % 4 * 32, mr: 4, nr: 16}
		if gp.kc == 0 {
			gp.kc = gemmPanel
		}
		if gp.nc == 0 {
			gp.nc = gemmPanel
		}
		if eightWide {
			gp.mr, gp.nr = 8, 8
		}
		rng := NewRNG(seed)
		want := New(m, n)
		got, gotDefault := New(m, n), New(m, n)
		if transB {
			a, b := New(m, k), New(n, k)
			rng.FillNormal(a, 0, 1)
			rng.FillNormal(b, 0, 1)
			gemmBlocked(got.data, a.data, b.data, nil, m, n, k, true, gp)
			MatMulTransBInto(gotDefault, a, b)
			NaiveMatMulTransBInto(want, a, b)
		} else {
			a, b := New(m, k), New(k, n)
			rng.FillNormal(a, 0, 1)
			rng.FillNormal(b, 0, 1)
			gemmBlocked(got.data, a.data, b.data, nil, m, n, k, false, gp)
			MatMulInto(gotDefault, a, b)
			NaiveMatMulInto(want, a, b)
		}
		if d := maxAbsDiff(got, want); d > parityTol*math.Sqrt(float64(k)) {
			t.Fatalf("GEMM m%d k%d n%d transB=%v %+v: max diff vs naive %g", m, k, n, transB, gp, d)
		}
		if d := maxAbsDiff(got, gotDefault); d > parityTol*math.Sqrt(float64(k)) {
			t.Fatalf("GEMM m%d k%d n%d transB=%v %+v: max diff vs own blocking %g", m, k, n, transB, gp, d)
		}
		if gp.kc != gemmPanel || (!vecActive && gp.nr != gemmBlocking(n, k).nr) {
			return
		}
		for i, v := range got.data {
			if math.Float32bits(v) != math.Float32bits(gotDefault.data[i]) {
				t.Fatalf("GEMM m%d k%d n%d transB=%v %+v (%s tier): element %d = %g, own blocking %g",
					m, k, n, transB, gp, VecKind(), i, v, gotDefault.data[i])
			}
		}
	})
}

// FuzzMatMulTransAParity checks the weight-gradient GEMM (transpose, then
// the packed driver) against NaiveMatMulTransAInto. k and n reach past the
// default 256-wide KC/NC panels, so multi-panel accumulation, ragged last
// panels and M/N tail tiles are all crossed.
func FuzzMatMulTransAParity(f *testing.F) {
	// Conv dW shapes (m = out channels, k = batch pixels, n = C·K·K), a
	// linear dW (m = in features, k = batch) and panel-seam crossings.
	f.Add(uint8(7), uint16(511), uint16(26), uint64(1), false)
	f.Add(uint8(15), uint16(263), uint16(143), uint64(2), true)
	f.Add(uint8(63), uint16(15), uint16(9), uint64(3), false)
	f.Add(uint8(2), uint16(600), uint16(300), uint64(4), false)
	f.Add(uint8(0), uint16(0), uint16(0), uint64(5), false)
	f.Fuzz(func(t *testing.T, mRaw uint8, kRaw, nRaw uint16, seed uint64, sparse bool) {
		m := int(mRaw)%64 + 1
		k := int(kRaw)%640 + 1
		n := int(nRaw)%320 + 1
		rng := NewRNG(seed)
		a, b := New(k, m), New(k, n)
		rng.FillNormal(a, 0, 1)
		rng.FillNormal(b, 0, 1)
		if sparse {
			// ReLU-masked gradients: the naive reference's zero skip runs.
			ad := a.Data()
			for i := range ad {
				if ad[i] < 0 {
					ad[i] = 0
				}
			}
		}
		got, want := Full(7, m, n), New(m, n)
		MatMulTransAInto(got, a, b)
		NaiveMatMulTransAInto(want, a, b)
		if d := maxAbsDiff(got, want); d > parityTol*math.Sqrt(float64(k)) {
			t.Fatalf("MatMulTransA [%d,%d]ᵀ@[%d,%d] (sparse=%v): max diff %g", k, m, k, n, sparse, d)
		}
	})
}

// cmGeometry decodes a fuzzed channel-major unfold/fold geometry: batch,
// channels, kernel, stride and pad, and ragged spatial sizes that may leave
// whole border rows and columns reading only padding.
func cmGeometry(nRaw, cRaw, hRaw, wRaw, kRaw, strideRaw, padRaw uint8) (n, c, h, w, k, stride, pad int) {
	return int(nRaw)%4 + 1, int(cRaw)%5 + 1, int(hRaw)%12 + 1, int(wRaw)%12 + 1,
		int(kRaw)%5 + 1, int(strideRaw)%3 + 1, int(padRaw) % 3
}

// FuzzIm2ColCMParity checks the item-parallel channel-major unfold against
// NaiveIm2ColCM bit for bit (an unfold only copies), starting from a dirty
// destination so every padding entry must be written.
func FuzzIm2ColCMParity(f *testing.F) {
	f.Add(uint8(1), uint8(2), uint8(8), uint8(8), uint8(2), uint8(0), uint8(1), uint64(1))
	f.Add(uint8(2), uint8(3), uint8(7), uint8(9), uint8(0), uint8(1), uint8(0), uint64(2))
	f.Add(uint8(0), uint8(0), uint8(5), uint8(4), uint8(4), uint8(2), uint8(2), uint64(3))
	f.Add(uint8(15), uint8(2), uint8(31), uint8(31), uint8(2), uint8(0), uint8(1), uint64(4))
	// A kernel wider than the padded row: some taps have no in-range column.
	f.Add(uint8(0), uint8(0), uint8(3), uint8(0), uint8(4), uint8(0), uint8(2), uint64(5))
	f.Fuzz(func(t *testing.T, nRaw, cRaw, hRaw, wRaw, kRaw, strideRaw, padRaw uint8, seed uint64) {
		n, c, h, w, k, stride, pad := cmGeometry(nRaw, cRaw, hRaw, wRaw, kRaw, strideRaw, padRaw)
		if h+2*pad < k || w+2*pad < k {
			t.Skip("no output position")
		}
		x := New(n, c, h, w)
		NewRNG(seed).FillNormal(x, 0, 1)
		want := NaiveIm2ColCM(x, k, k, stride, pad)
		got := Full(float32(math.NaN()), want.Shape()...)
		Im2ColCMInto(got, x, k, k, stride, pad)
		for i, v := range got.Data() {
			if v != want.Data()[i] {
				t.Fatalf("im2col-cm n%d c%d %dx%d k%d s%d p%d: element %d = %g, want %g", n, c, h, w, k, stride, pad, i, v, want.Data()[i])
			}
		}
	})
}

// FuzzCol2ImCMParity checks the plane-parallel channel-major fold against
// NaiveCol2ImCM over random geometries, strides and pads, into a dirty
// destination, including kernels wider than the padded stride (overlapping
// taps) and strides that skip input pixels.
func FuzzCol2ImCMParity(f *testing.F) {
	f.Add(uint8(1), uint8(2), uint8(8), uint8(8), uint8(2), uint8(0), uint8(1), uint64(1))
	f.Add(uint8(2), uint8(3), uint8(7), uint8(9), uint8(0), uint8(1), uint8(0), uint64(2))
	f.Add(uint8(0), uint8(0), uint8(5), uint8(4), uint8(4), uint8(2), uint8(2), uint64(3))
	f.Add(uint8(3), uint8(1), uint8(1), uint8(1), uint8(2), uint8(2), uint8(1), uint64(4))
	f.Add(uint8(0), uint8(0), uint8(3), uint8(0), uint8(4), uint8(0), uint8(2), uint64(5))
	f.Fuzz(func(t *testing.T, nRaw, cRaw, hRaw, wRaw, kRaw, strideRaw, padRaw uint8, seed uint64) {
		n, c, h, w, k, stride, pad := cmGeometry(nRaw, cRaw, hRaw, wRaw, kRaw, strideRaw, padRaw)
		if h+2*pad < k || w+2*pad < k {
			t.Skip("no output position")
		}
		oh, ow := ConvOut(h, k, stride, pad), ConvOut(w, k, stride, pad)
		cols := New(c*k*k, n*oh*ow)
		NewRNG(seed).FillNormal(cols, 0, 1)
		got := Full(float32(math.NaN()), n, c, h, w)
		Col2ImCMInto(got, cols, k, k, stride, pad)
		if d := maxAbsDiff(got, NaiveCol2ImCM(cols, n, c, h, w, k, k, stride, pad)); d > parityTol*float64(k) {
			t.Fatalf("col2im-cm n%d c%d %dx%d k%d s%d p%d: max diff %g", n, c, h, w, k, stride, pad, d)
		}
	})
}

// FuzzConv2dParity checks the channel-major unfold + GEMM convolution
// pipeline against the direct seven-loop NaiveConv2d over random geometries, strides, and pads.
func FuzzConv2dParity(f *testing.F) {
	// Model-zoo geometry: 3x3 stride-1 pad-1 over small feature maps, the
	// 1x1 projection used by residual downsampling, and a strided conv.
	f.Add(uint8(2), uint8(3), uint8(8), uint8(8), uint8(4), uint8(3), uint8(1), uint8(1), uint64(1))
	f.Add(uint8(1), uint8(4), uint8(6), uint8(6), uint8(2), uint8(1), uint8(1), uint8(0), uint64(2))
	f.Add(uint8(2), uint8(2), uint8(9), uint8(7), uint8(3), uint8(3), uint8(2), uint8(1), uint64(3))
	f.Add(uint8(1), uint8(1), uint8(5), uint8(5), uint8(1), uint8(5), uint8(1), uint8(2), uint64(4))
	f.Fuzz(func(t *testing.T, nRaw, cRaw, hRaw, wRaw, outCRaw, kRaw, strideRaw, padRaw uint8, seed uint64) {
		n := int(nRaw)%3 + 1
		c := int(cRaw)%4 + 1
		k := int(kRaw)%5 + 1
		stride := int(strideRaw)%3 + 1
		pad := int(padRaw) % 3
		h := int(hRaw)%10 + k // ensure at least one output position
		w := int(wRaw)%10 + k
		outC := int(outCRaw)%4 + 1
		rng := NewRNG(seed)
		x := New(n, c, h, w)
		weight := New(outC, c*k*k)
		rng.FillNormal(x, 0, 1)
		rng.FillNormal(weight, 0, 1)
		bias := make([]float32, outC)
		for i := range bias {
			bias[i] = rng.Float32() - 0.5
		}
		got := im2colConv(x, weight, bias, k, k, stride, pad)
		want := NaiveConv2d(x, weight, bias, k, k, stride, pad)
		if !SameShape(got, want) {
			t.Fatalf("shape mismatch: %v vs %v", got.Shape(), want.Shape())
		}
		if d := maxAbsDiff(got, want); d > parityTol*math.Sqrt(float64(c*k*k)) {
			t.Fatalf("conv n%d c%d %dx%d outC%d k%d s%d p%d: max diff %g", n, c, h, w, outC, k, stride, pad, d)
		}
	})
}
