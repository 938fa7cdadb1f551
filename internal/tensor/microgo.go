package tensor

import (
	"math"
	"unsafe"
)

// Pure-Go 8-wide-lane kernels: the portable tier behind the dispatch
// variables in vec.go, and the only tier on non-amd64, under the
// gmorph_novec build tag, or when the CPU lacks AVX2+FMA. They mirror the
// assembly microkernels' register blocking over [8]float32 lanes — the
// gonum-style layout — so both tiers consume the same packed-strip format
// and the blocked driver in matmul.go never needs to know which is bound.
//
// goGemmStrip is the fully general variant (any rows <= MR, any width <=
// NR) and is this tier's only edge kernel: it takes every ragged tile (M
// and N tails) when the assembly tier is not bound. The assembly tier never
// reaches it — its N tails run the full-width kernel on a scratch tile
// (gemmEngine.edgeTile). Routing this tier the same way, through
// goGemm4x16 on a scratch tile, measured slower: the lane kernel's full
// 16-wide work on a 2–8-wide tail costs more than the scalar strip, which
// also keeps its zero-group skip for ReLU-sparse operands.

// goGemm4x16 accumulates a full 4x16 tile: c[r][0:16] += a[r][0:k] @ bp
// for r in 0..3, with a rows lda floats apart, c rows ldc floats apart,
// and bp packed as k rows of 16 contiguous floats.
func goGemm4x16(k int, a *float32, lda int, bp *float32, c *float32, ldc int) {
	as := unsafe.Slice(a, 3*lda+k)
	bs := unsafe.Slice(bp, k*16)
	cs := unsafe.Slice(c, 3*ldc+16)
	var acc [4][2][8]float32
	for r := 0; r < 4; r++ {
		crow := cs[r*ldc:][:16]
		c0 := (*[8]float32)(crow[0:8])
		c1 := (*[8]float32)(crow[8:16])
		acc[r][0] = *c0
		acc[r][1] = *c1
	}
	a0 := as[0*lda:][:k]
	a1 := as[1*lda:][:k]
	a2 := as[2*lda:][:k]
	a3 := as[3*lda:][:k]
	for p := 0; p < k; p++ {
		brow := bs[p*16:][:16]
		b0 := (*[8]float32)(brow[0:8])
		b1 := (*[8]float32)(brow[8:16])
		v0, v1, v2, v3 := a0[p], a1[p], a2[p], a3[p]
		for x := 0; x < 8; x++ {
			b0x, b1x := b0[x], b1[x]
			acc[0][0][x] += v0 * b0x
			acc[0][1][x] += v0 * b1x
			acc[1][0][x] += v1 * b0x
			acc[1][1][x] += v1 * b1x
			acc[2][0][x] += v2 * b0x
			acc[2][1][x] += v2 * b1x
			acc[3][0][x] += v3 * b0x
			acc[3][1][x] += v3 * b1x
		}
	}
	for r := 0; r < 4; r++ {
		crow := cs[r*ldc:][:16]
		*(*[8]float32)(crow[0:8]) = acc[r][0]
		*(*[8]float32)(crow[8:16]) = acc[r][1]
	}
}

// goGemm8x8 accumulates a full 8x8 tile: c[r][0:8] += a[r][0:k] @ bp for r
// in 0..7, bp packed as k rows of 8 contiguous floats.
func goGemm8x8(k int, a *float32, lda int, bp *float32, c *float32, ldc int) {
	as := unsafe.Slice(a, 7*lda+k)
	bs := unsafe.Slice(bp, k*8)
	cs := unsafe.Slice(c, 7*ldc+8)
	var acc [8][8]float32
	for r := 0; r < 8; r++ {
		acc[r] = *(*[8]float32)(cs[r*ldc:][:8])
	}
	for p := 0; p < k; p++ {
		b0 := (*[8]float32)(bs[p*8:][:8])
		for r := 0; r < 8; r++ {
			v := as[r*lda+p]
			lane := &acc[r]
			for x := 0; x < 8; x++ {
				lane[x] += v * b0[x]
			}
		}
	}
	for r := 0; r < 8; r++ {
		*(*[8]float32)(cs[r*ldc:][:8]) = acc[r]
	}
}

// goGemmStrip is the ragged-tile kernel: c[r][0:w] += a[r][0:kc] @ bp for
// r in [0, rows), where bp is a packed strip of kc rows x nr floats
// (zero-padded past column w). The four-k-step unroll and the zero-group
// skip match the pre-vector scalar GEMM, so the fallback tier keeps its
// ReLU-sparsity win.
func goGemmStrip(kc int, ad []float32, lda, rows int, bp []float32, nr int, cd []float32, ldc, w int) {
	for r := 0; r < rows; r++ {
		arow := ad[r*lda:][:kc]
		crow := cd[r*ldc:][:w]
		p := 0
		for ; p+3 < kc; p += 4 {
			a0, a1, a2, a3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
			if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
				continue
			}
			b0 := bp[p*nr:][:w]
			b1 := bp[(p+1)*nr:][:w]
			b2 := bp[(p+2)*nr:][:w]
			b3 := bp[(p+3)*nr:][:w]
			for j := range crow {
				crow[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
			}
		}
		for ; p < kc; p++ {
			av := arow[p]
			if av == 0 {
				continue
			}
			brow := bp[p*nr:][:w]
			for j := range crow {
				crow[j] += av * brow[j]
			}
		}
	}
}

// goDot returns a . b over len(a) elements (len(b) >= len(a)), with four
// independent partial sums so the adds pipeline.
func goDot(a, b []float32) float32 {
	var s0, s1, s2, s3 float32
	p := 0
	for ; p+7 < len(a); p += 8 {
		aa := (*[8]float32)(a[p : p+8])
		bb := (*[8]float32)(b[p : p+8])
		s0 += aa[0]*bb[0] + aa[4]*bb[4]
		s1 += aa[1]*bb[1] + aa[5]*bb[5]
		s2 += aa[2]*bb[2] + aa[6]*bb[6]
		s3 += aa[3]*bb[3] + aa[7]*bb[7]
	}
	for ; p < len(a); p++ {
		s0 += a[p] * b[p]
	}
	return (s0 + s1) + (s2 + s3)
}

// goAxpy computes y += a * x over len(y) elements (len(x) >= len(y)).
func goAxpy(y []float32, a float32, x []float32) {
	p := 0
	for ; p+7 < len(y); p += 8 {
		yy := (*[8]float32)(y[p : p+8])
		xx := (*[8]float32)(x[p : p+8])
		for i := 0; i < 8; i++ {
			yy[i] += a * xx[i]
		}
	}
	for ; p < len(y); p++ {
		y[p] += a * x[p]
	}
}

// goScale computes y *= a in place.
func goScale(y []float32, a float32) {
	p := 0
	for ; p+7 < len(y); p += 8 {
		yy := (*[8]float32)(y[p : p+8])
		for i := 0; i < 8; i++ {
			yy[i] *= a
		}
	}
	for ; p < len(y); p++ {
		y[p] *= a
	}
}

// GELU lane kernels. Both tiers evaluate GELU(x) = 0.5·x·(1 + tanh(u)),
// u = √(2/π)·(x + 0.044715·x³), in float32 as x·σ(2u) = x / (1 + e) with
// e = exp(−2u) = exp(x·(geluK0 + geluK1·x²)), and its derivative
// σ(2u) + 2x·u'·σ(2u)·(1 − σ(2u)) as q·(1 + a·e·q) with q = 1/(1 + e) and
// a = x·(geluD0 + geluD1·x²). Writing 1 − σ as e·q keeps its relative
// accuracy where σ rounds to 1. The exponential is the Cephes expf form: a
// Cody–Waite reduction z = n·ln2 + r with n = round(z·log2e) (the
// 1.5·2²³ shifter rounds to nearest and leaves n in the low mantissa bits),
// a degree-7 polynomial in r, and 2ⁿ built from exponent bits. z is clamped
// to [−87, 87], so 2ⁿ, e and q all stay normal floats. A NaN input gives a
// NaN output. The AVX2 kernels (vec_amd64.s) run the same steps, fusing
// the multiply-adds, so the tiers agree to rounding, not bit for bit
// (TestGELUAccuracy holds each within 1e-6 of the float64 formula).
const (
	geluK0 = -2 * geluC0
	geluK1 = -2 * geluC0 * geluC1
	geluD0 = 2 * geluC0
	geluD1 = 6 * geluC0 * geluC1

	expClamp   = 87
	expLog2e   = 1.44269504088896341
	expShifter = 12582912 // 1.5·2²³
	expLn2Hi   = 0.693359375
	expLn2Lo   = -2.12194440e-4
	expP0      = 1.9875691500e-4
	expP1      = 1.3981999507e-3
	expP2      = 8.3334519073e-3
	expP3      = 4.1665795894e-2
	expP4      = 1.6666665459e-1
	expP5      = 5.0000001201e-1
)

// geluExp returns e = exp(x·(geluK0 + geluK1·x²)) for one lane.
func geluExp(x float32) float32 {
	z := min(max(x*(geluK0+geluK1*(x*x)), -expClamp), expClamp)
	t := z*expLog2e + expShifter
	n := t - expShifter
	r := z - n*expLn2Hi
	r -= n * expLn2Lo
	p := ((((expP0*r+expP1)*r+expP2)*r+expP3)*r+expP4)*r + expP5
	p = p*(r*r) + r + 1
	return p * math.Float32frombits((math.Float32bits(t)-math.Float32bits(expShifter)+127)<<23)
}

// goGELURow writes dst[i] = GELU(src[i]); dst may alias src.
func goGELURow(dst, src []float32) {
	dst = dst[:len(src)]
	for i, x := range src {
		dst[i] = x / (1 + geluExp(x))
	}
}

// goGELUGradRow writes dst[i] = g[i]·GELU'(x[i]); dst may alias g or x.
func goGELUGradRow(dst, g, x []float32) {
	dst, g = dst[:len(x)], g[:len(x)]
	for i, xv := range x {
		e := geluExp(xv)
		q := 1 / (1 + e)
		a := xv * (geluD0 + geluD1*(xv*xv))
		dst[i] = g[i] * (q * (a*(e*q) + 1))
	}
}
