//go:build amd64 && !gmorph_novec

package tensor

import "os"

// AVX2+FMA tier: CPUID feature detection and the Go-side bindings for the
// assembly microkernels in vec_amd64.s. When the CPU qualifies (AVX2, FMA,
// and OS-enabled YMM state) the init below rebinds the dispatch variables
// in vec.go; otherwise the pure-Go lane tier stays in place. Within the
// tier, the int8 block kernel is the AVX512-VNNI variant when the CPU and
// OS allow it (vnniUsable), and the AVX2 one otherwise. Set GMORPH_NOVEC=1
// to keep the pure-Go tier on a qualifying CPU without rebuilding (CI uses
// the gmorph_novec build tag for the same purpose, which drops this file
// entirely).

func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbvAsm() (eax, edx uint32)

//go:noescape
func avx2Gemm4x16(k int, a *float32, lda int, bp *float32, c *float32, ldc int)

//go:noescape
func avx2Gemm8x8(k int, a *float32, lda int, bp *float32, c *float32, ldc int)

//go:noescape
func avx2Gemm1x16(k int, a *float32, bp *float32, c *float32)

//go:noescape
func avx2Gemm1x8(k int, a *float32, bp *float32, c *float32)

//go:noescape
func avx2ConvImp4x16(k int, a *float32, lda int, b *float32, off *int32, c *float32, ldc int)

//go:noescape
func avx2ConvImp8x8(k int, a *float32, lda int, b *float32, off *int32, c *float32, ldc int)

//go:noescape
func avx2ConvDW8x8(k int, a *float32, aoff *int32, bp *float32, c *float32, ldc int)

//go:noescape
func avx2QDot4x2(k int, a *int8, lda int, b *int8, ldb int) [8]int32

//go:noescape
func vnniQDot4x2(k int, a *int8, lda int, b *int8, ldb int) [8]int32

//go:noescape
func avx2Dot(a, b *float32, n int) float32

//go:noescape
func avx2Axpy(y, x *float32, a float32, n int)

//go:noescape
func avx2Scale(y *float32, a float32, n int)

//go:noescape
func avx2Max(x *float32, n int) float32

//go:noescape
func avx2Exp(dst, src *float32, n int, scale, shift float32) float32

//go:noescape
func avx2GELU(dst, src *float32, n int)

//go:noescape
func avx2GELUGrad(dst, gr, x *float32, n int)

//go:noescape
func avx2BiasRow(dst, src *float32, n int, b float32, relu bool)

//go:noescape
func avx2AddReLU(dst, x, y *float32, n int)

//go:noescape
func avx2BNRow(act, xh, src *float32, n int, b, mean, inv, gamma, beta float32, relu bool)

//go:noescape
func avx2MaxPool2x2(dst, src *float32, arg *byte, rows, n, w, ow int)

// cpuHasAVX2FMA reports whether the CPU and OS support the assembly tier:
// AVX2 and FMA instruction sets, plus XMM/YMM state enabled in XCR0 (the
// OSXSAVE check guards the XGETBV read).
func cpuHasAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidAsm(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&fmaBit == 0 || ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	xcr0, _ := xgetbvAsm()
	if xcr0&0x6 != 0x6 { // XMM and YMM state both OS-managed
		return false
	}
	_, ebx7, _, _ := cpuidAsm(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0
}

// vnniUsable decides, from CPUID leaf 7's EBX and ECX and from XCR0, whether
// vnniQDot4x2 may run: it needs AVX512F and AVX512VL (the EVEX encoding on
// YMM registers, Y16-Y31 included), AVX512_VNNI (VPDPBUSD), and the OS
// saving the opmask and ZMM state (XCR0 bits 5-7) next to XMM and YMM
// (bits 1-2). A VM that reports the instructions but keeps the AVX-512
// state off fails the last test and stays on the AVX2 kernel.
func vnniUsable(ebx7, ecx7, xcr0 uint32) bool {
	const (
		avx512fBit    = 1 << 16 // leaf 7 EBX
		avx512vlBit   = 1 << 31 // leaf 7 EBX
		avx512vnniBit = 1 << 11 // leaf 7 ECX
		zmmState      = 0xE6    // XCR0: XMM, YMM, opmask, ZMM_Hi256, Hi16_ZMM
	)
	return ebx7&avx512fBit != 0 && ebx7&avx512vlBit != 0 &&
		ecx7&avx512vnniBit != 0 && xcr0&zmmState == zmmState
}

// cpuHasVNNI applies vnniUsable to this CPU. Only called once
// cpuHasAVX2FMA has passed, so leaf 7 exists and XGETBV is allowed.
func cpuHasVNNI() bool {
	_, ebx7, ecx7, _ := cpuidAsm(7, 0)
	xcr0, _ := xgetbvAsm()
	return vnniUsable(ebx7, ecx7, xcr0)
}

func init() {
	if os.Getenv("GMORPH_NOVEC") != "" || !cpuHasAVX2FMA() {
		return
	}
	vecActive = true
	vecKind = "avx2"
	microGemm4x16 = avx2Gemm4x16
	microGemm8x8 = avx2Gemm8x8
	microGemm1x16 = avx2Gemm1x16
	microGemm1x8 = avx2Gemm1x8
	convImp4x16, convImp8x8 = avx2ConvImp4x16, avx2ConvImp8x8
	convDW8x8 = avx2ConvDW8x8
	qdot4x2, q8Kind = avx2QDot4x2, "avx2"
	if cpuHasVNNI() {
		qdot4x2, q8Kind = vnniQDot4x2, "vnni"
	}
	vdot = dotAVX2
	vaxpy = axpyAVX2
	vscale = scaleAVX2
	vmax = maxAVX2
	expRow = expAVX2
	geluRow, geluGradRow, GELUWork = geluAVX2, geluGradAVX2, 1
	biasRow, addReLURow, bnRow = biasRowAVX2, addReLUAVX2, bnRowAVX2
	maxPool2x2 = maxPool2x2AVX2
}

// dotAVX2 is the slice-level dot product: the assembly runs the 8-aligned
// prefix, Go finishes the tail. len(b) must be >= len(a).
func dotAVX2(a, b []float32) float32 {
	n := len(a) &^ 7
	var s float32
	if n > 0 {
		s = avx2Dot(&a[0], &b[0], n)
	}
	for p := n; p < len(a); p++ {
		s += a[p] * b[p]
	}
	return s
}

// axpyAVX2 computes y += a * x. len(x) must be >= len(y).
func axpyAVX2(y []float32, a float32, x []float32) {
	n := len(y) &^ 7
	if n > 0 {
		avx2Axpy(&y[0], &x[0], a, n)
	}
	for p := n; p < len(y); p++ {
		y[p] += a * x[p]
	}
}

// scaleAVX2 computes y *= a in place.
func scaleAVX2(y []float32, a float32) {
	n := len(y) &^ 7
	if n > 0 {
		avx2Scale(&y[0], a, n)
	}
	for p := n; p < len(y); p++ {
		y[p] *= a
	}
}

// maxAVX2 returns the largest element of x (len(x) >= 1): the assembly
// runs the 8-aligned prefix, Go the tail.
func maxAVX2(x []float32) float32 {
	n := len(x) &^ 7
	if n == 0 {
		return goMax(x)
	}
	m := avx2Max(&x[0], n)
	for _, v := range x[n:] {
		if v > m {
			m = v
		}
	}
	return m
}

// expAVX2 is the slice-level exp row: the assembly runs the 8-aligned
// prefix, and a ragged tail runs through it too, zero-padded in a stack
// buffer, so an element's bits never depend on the row's length. The sum
// is the prefix's, then the tail's elements added in order.
func expAVX2(dst, src []float32, scale, shift float32) float32 {
	dst = dst[:len(src)]
	n := len(src) &^ 7
	var sum float32
	if n > 0 {
		sum = avx2Exp(&dst[0], &src[0], n, scale, shift)
	}
	if n < len(src) {
		var buf [8]float32
		copy(buf[:], src[n:])
		avx2Exp(&buf[0], &buf[0], 8, scale, shift)
		for i, e := range buf[:len(src)-n] {
			dst[n+i] = e
			sum += e
		}
	}
	return sum
}

// geluAVX2 is the slice-level GELU: the assembly runs the 8-aligned prefix,
// and a ragged tail runs through it too, zero-padded in a stack buffer, so
// an element's bits never depend on where a caller's rows or chunks split.
func geluAVX2(dst, src []float32) {
	dst = dst[:len(src)]
	n := len(src) &^ 7
	if n > 0 {
		avx2GELU(&dst[0], &src[0], n)
	}
	if n < len(src) {
		var buf [8]float32
		copy(buf[:], src[n:])
		avx2GELU(&buf[0], &buf[0], 8)
		copy(dst[n:], buf[:])
	}
}

// geluGradAVX2 is geluAVX2's derivative twin: dst = g·GELU'(x).
func geluGradAVX2(dst, g, x []float32) {
	dst, g = dst[:len(x)], g[:len(x)]
	n := len(x) &^ 7
	if n > 0 {
		avx2GELUGrad(&dst[0], &g[0], &x[0], n)
	}
	if n < len(x) {
		var gb, xb [8]float32
		copy(gb[:], g[n:])
		copy(xb[:], x[n:])
		avx2GELUGrad(&gb[0], &gb[0], &xb[0], 8)
		copy(dst[n:], gb[:])
	}
}

// biasRowAVX2 is the slice-level bias row: the assembly runs the 8-aligned
// prefix and the pure-Go twin, whose bits it gives, the tail.
func biasRowAVX2(dst, src []float32, b float32, relu bool) {
	dst = dst[:len(src)]
	n := len(src) &^ 7
	if n > 0 {
		avx2BiasRow(&dst[0], &src[0], n, b, relu)
	}
	goBiasRow(dst[n:], src[n:], b, relu)
}

// addReLUAVX2 is the slice-level add+ReLU row, split like biasRowAVX2.
func addReLUAVX2(dst, x, y []float32) {
	dst, y = dst[:len(x)], y[:len(x)]
	n := len(x) &^ 7
	if n > 0 {
		avx2AddReLU(&dst[0], &x[0], &y[0], n)
	}
	goAddReLURow(dst[n:], x[n:], y[n:])
}

// bnRowAVX2 is the slice-level batch-norm row, split like biasRowAVX2.
func bnRowAVX2(act, xh, src []float32, b, mean, inv, gamma, beta float32, relu bool) {
	act, xh = act[:len(src)], xh[:len(src)]
	n := len(src) &^ 7
	if n > 0 {
		avx2BNRow(&act[0], &xh[0], &src[0], n, b, mean, inv, gamma, beta, relu)
	}
	goBNRow(act[n:], xh[n:], src[n:], b, mean, inv, gamma, beta, relu)
}

// maxPool2x2AVX2 is the plane-level 2×2 stride-2 max pool: the assembly
// pools the first multiple of 8 windows of every output row, and the
// pure-Go twin, whose bits it gives, the rest of each row. The slicing
// bounds what the assembly reads and writes.
func maxPool2x2AVX2(dst, src []float32, w, oh, ow int, arg []byte) {
	n := ow &^ 7
	if n > 0 && oh > 0 {
		_, _ = dst[:oh*ow], src[:(2*oh-1)*w+2*n]
		var ap *byte
		if arg != nil {
			ap = &arg[:oh*ow][0]
		}
		avx2MaxPool2x2(&dst[0], &src[0], ap, oh, n, w, ow)
	}
	if n == ow {
		return
	}
	for oy := 0; oy < oh; oy++ {
		var a []byte
		if arg != nil {
			a = arg[oy*ow+n : (oy+1)*ow]
		}
		goMaxPool2x2Row(dst[oy*ow+n:(oy+1)*ow], src[2*oy*w+2*n:], src[(2*oy+1)*w+2*n:], a)
	}
}
