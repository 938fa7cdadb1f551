package tensor

// Vector kernel dispatch. The blocked GEMM, the training convolution's
// implicit GEMM, the int8 GEMM, the attention softmax's rows, the GELU rows
// and the row epilogues all bottom out in the small set of primitives
// declared here as function variables. The package default binds the pure-Go
// implementations from microgo.go and int8.go; on amd64 with AVX2+FMA the
// init in vec_amd64.go rebinds them to hand-written assembly microkernels
// (vec_amd64.s); the implicit-GEMM conv kernels exist on that tier only.
// Inside that tier the int8 block kernel has two variants: the
// AVX512-VNNI one (one VPDPBUSD per 32 MACs) where CPUID and XCR0 allow
// it, the AVX2 one elsewhere; both return the same exact int32 sums, so
// the variant changes speed, never a bit. The
// binding is decided once at process start, so kernel selection never
// changes mid-run and results stay deterministic across worker counts.
//
// Forcing the pure-Go tier:
//
//   - build with `-tags gmorph_novec` (vec_amd64.go and vec_amd64.s drop
//     out of the build entirely), or
//   - set GMORPH_NOVEC=1 in the environment (runtime opt-out, same
//     binary).
//
// Parity with naive.go is enforced for both tiers by
// kernels_parity_test.go, int8_test.go and the fuzz harness; CI runs the
// suite with the vector tier enabled and forced off.

// microFn is an MR x NR GEMM microkernel: c[0:MR][0:NR] += a[0:MR][0:k] @
// bp, where a rows are lda floats apart, c rows ldc floats apart, and bp
// is a packed strip holding k rows of NR contiguous floats.
type microFn func(k int, a *float32, lda int, bp *float32, c *float32, ldc int)

// micro1Fn is the single-row variant for MR tails: c[0:NR] += a[0:k] @ bp.
type micro1Fn func(k int, a *float32, bp *float32, c *float32)

// convImpFn is an MR x NR implicit-GEMM conv microkernel: c[0:MR][0:NR] =
// a[0:MR][0:k] @ B, where B row p is the NR contiguous floats at b+off[p],
// a rows are lda floats apart and c rows ldc floats apart (ConvRowsInto).
type convImpFn func(k int, a *float32, lda int, b *float32, off *int32, c *float32, ldc int)

// convDWFn is the implicit-GEMM weight-gradient kernel: c[0:8][0:8] +=
// A[0:8][0:k] @ bp, where A row r is the k contiguous floats at a+aoff[r],
// bp is a packed 8-wide strip and c rows are ldc floats apart
// (ConvWeightGradInto).
type convDWFn func(k int, a *float32, aoff *int32, bp *float32, c *float32, ldc int)

// qdotFn is the int8 GEMM's 4x2 block of exact int32 dot products: it
// returns c[2i+j] = Σ_{p<k} a[i·lda+p]·b[j·ldb+p] for i < 4, j < 2, over
// signed int8 rows and k a positive multiple of QGEMMBlock.
type qdotFn func(k int, a *int8, lda int, b *int8, ldb int) [8]int32

var (
	// vecActive reports whether the assembly microkernel tier was
	// detected and bound at init.
	vecActive bool
	// vecKind names the bound tier for reports and startup logs.
	vecKind = "go8"

	// GEMM microkernels; nil unless the assembly tier is active (the
	// blocked driver falls back to the go* lane micros).
	microGemm4x16 microFn
	microGemm8x8  microFn
	microGemm1x16 micro1Fn
	microGemm1x8  micro1Fn

	// Implicit-GEMM conv microkernels; nil unless the assembly tier is
	// active (ConvRowsInto then unfolds and runs the GEMM driver).
	convImp4x16 convImpFn
	convImp8x8  convImpFn
	convDW8x8   convDWFn

	// The int8 GEMM's block kernel (int8.go) and the name of the bound
	// variant: "go", "avx2" or "vnni".
	qdot4x2 qdotFn = goQDot4x2
	q8Kind         = "go"

	// Attention / epilogue primitives. Contracts: vdot requires
	// len(b) >= len(a); vaxpy requires len(x) >= len(y); vmax requires
	// len(x) >= 1 and may skip a NaN element.
	vdot   func(a, b []float32) float32              = goDot
	vaxpy  func(y []float32, a float32, x []float32) = goAxpy
	vscale func(y []float32, a float32)              = goScale
	vmax   func(x []float32) float32                 = goMax

	// The softmax's exp row (attention.go): dst[i] = exp(scale·src[i] −
	// shift), returning the sum of dst (microgo.go has the contract).
	expRow func(dst, src []float32, scale, shift float32) float32 = goExpRow

	// GELU row kernels behind GELURow and GELUGradRow (transformer.go).
	geluRow     func(dst, src []float32)  = goGELURow
	geluGradRow func(dst, g, x []float32) = goGELUGradRow

	// Conv epilogue row kernels behind BiasRow, AddReLURow, BNRow and
	// MaxPoolPlane's 2×2 window (epilogue.go has the contracts).
	biasRow    func(dst, src []float32, b float32, relu bool)                             = goBiasRow
	addReLURow func(dst, x, y []float32)                                                  = goAddReLURow
	bnRow      func(act, xh, src []float32, b, mean, inv, gamma, beta float32, relu bool) = goBNRow
	maxPool2x2 func(dst, src []float32, w, oh, ow int, arg []byte)                        = goMaxPool2x2
)

// VecKind reports which kernel tier this process bound at startup: "avx2"
// for the assembly microkernels, "go8" for the pure-Go 8-wide-lane
// fallback (non-amd64, gmorph_novec builds, GMORPH_NOVEC=1, or a CPU
// without AVX2+FMA).
func VecKind() string { return vecKind }

// kernelGeneration numbers the kernels' behaviour: bump it whenever a
// change alters what the GEMM/conv kernels compute bit for bit or how fast
// they run on some shape. Generation 1 — keys written without a kgen field
// — ran ragged GEMM tiles and Aᵀ·B on scalar code; generation 2 ran the
// eager convolution layer by layer on row-major im2col columns; generation
// 3 ran the compiled plan's convolution on row-major columns, re-packing
// the weight as the B operand on every forward; generation 4 ran the int8
// GEMM as a SWAR kernel over biased-uint8 activation rows; generation 5
// ran every f32 GEMM on the 4x16 register block unless a kernel autotuner
// stamped another one per op; generation 6 ran the int8 block kernel on
// AVX2 even where AVX512-VNNI was available, and its signature did not
// name the int8 variant; generation 7 ran GELU as float64 tanh in an op of
// its own after the FFN's first linear, and the closing residual add as
// another; generation 8 forked and joined the f32 GEMM driver's workers
// once per (column panel, k panel), so a deep narrow product rarely had a
// second worker; generation 9 re-packed every f32 linear weight of a
// compiled plan as the B operand on every forward; generation 10 ran
// attention's QKᵀ and PV as one dot or axpy call per (query row, key), with
// a float64 exp per score; generation 11 finished the compiled plan's conv
// ops with a scalar bias+ReLU loop that branched on the sign and pooled
// 2×2 windows through the generic k×k window loop. The training
// convolution's implicit GEMM (ConvRowsInto, ConvWeightGradInto) does not
// bump it: it gives the unfold's bits, and the latencies keyed by the generation are timings of
// the compiled plan, which still unfolds and runs the GEMM driver.
const kernelGeneration = 12

// KernelSignature names the bound tier, the int8 block kernel's variant and
// the kernel generation, e.g. "vec=avx2 q8=vnni kgen=12". Anything persisted
// from a kernel measurement (memoised candidate latencies) is keyed by it
// next to the machine signature, so numbers measured by other kernels are
// never replayed.
func KernelSignature() string {
	return "vec=" + vecKind + " q8=" + q8Kind + " kgen=" + itoa(kernelGeneration)
}
