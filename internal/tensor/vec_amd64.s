//go:build amd64 && !gmorph_novec

#include "textflag.h"

// AVX2+FMA microkernels. Layout contract (shared with microgo.go): bp is a
// packed strip of k rows x NR contiguous floats; a rows are lda floats
// apart; c rows are ldc floats apart. Every GEMM kernel loads the
// destination tile into YMM accumulators (the implicit-GEMM conv forward
// kernels start them at zero instead), runs the k loop in strictly
// ascending p order (so accumulation order per element matches the
// pure-Go strip kernel's panel ordering and stays deterministic across
// worker counts), and stores the tile back once.

// func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func avx2Gemm4x16(k int, a *float32, lda int, bp *float32, c *float32, ldc int)
//
// C[4][16] += A[4][k] @ BP. Eight YMM accumulators (two 8-lane halves per
// row), k unrolled by two: per pair, four row broadcasts feed eight FMAs
// against the two B halves.
TEXT ·avx2Gemm4x16(SB), NOSPLIT, $0-48
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), AX
	MOVQ lda+16(FP), R8
	MOVQ bp+24(FP), BX
	MOVQ c+32(FP), DI
	MOVQ ldc+40(FP), R9
	SHLQ $2, R8                 // strides in bytes
	SHLQ $2, R9

	// A row pointers.
	MOVQ AX, R10
	LEAQ (AX)(R8*1), R11
	LEAQ (AX)(R8*2), R12
	LEAQ (R11)(R8*2), R13

	// Load the C tile.
	MOVQ    DI, DX
	VMOVUPS (DX), Y0
	VMOVUPS 32(DX), Y1
	ADDQ    R9, DX
	VMOVUPS (DX), Y2
	VMOVUPS 32(DX), Y3
	ADDQ    R9, DX
	VMOVUPS (DX), Y4
	VMOVUPS 32(DX), Y5
	ADDQ    R9, DX
	VMOVUPS (DX), Y6
	VMOVUPS 32(DX), Y7

	MOVQ CX, SI
	ANDQ $-2, SI                // SI = number of paired k steps * 1
	JZ   tail

pair:
	VMOVUPS      (BX), Y8
	VMOVUPS      32(BX), Y9
	VBROADCASTSS (R10), Y10
	VBROADCASTSS (R11), Y11
	VBROADCASTSS (R12), Y14
	VBROADCASTSS (R13), Y15
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1
	VFMADD231PS  Y8, Y11, Y2
	VFMADD231PS  Y9, Y11, Y3
	VFMADD231PS  Y8, Y14, Y4
	VFMADD231PS  Y9, Y14, Y5
	VFMADD231PS  Y8, Y15, Y6
	VFMADD231PS  Y9, Y15, Y7

	VMOVUPS      64(BX), Y12
	VMOVUPS      96(BX), Y13
	VBROADCASTSS 4(R10), Y10
	VBROADCASTSS 4(R11), Y11
	VBROADCASTSS 4(R12), Y14
	VBROADCASTSS 4(R13), Y15
	VFMADD231PS  Y12, Y10, Y0
	VFMADD231PS  Y13, Y10, Y1
	VFMADD231PS  Y12, Y11, Y2
	VFMADD231PS  Y13, Y11, Y3
	VFMADD231PS  Y12, Y14, Y4
	VFMADD231PS  Y13, Y14, Y5
	VFMADD231PS  Y12, Y15, Y6
	VFMADD231PS  Y13, Y15, Y7

	ADDQ $128, BX
	ADDQ $8, R10
	ADDQ $8, R11
	ADDQ $8, R12
	ADDQ $8, R13
	SUBQ $2, SI
	JNZ  pair

tail:
	TESTQ $1, CX
	JZ    store
	VMOVUPS      (BX), Y8
	VMOVUPS      32(BX), Y9
	VBROADCASTSS (R10), Y10
	VBROADCASTSS (R11), Y11
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1
	VFMADD231PS  Y8, Y11, Y2
	VFMADD231PS  Y9, Y11, Y3
	VBROADCASTSS (R12), Y10
	VBROADCASTSS (R13), Y11
	VFMADD231PS  Y8, Y10, Y4
	VFMADD231PS  Y9, Y10, Y5
	VFMADD231PS  Y8, Y11, Y6
	VFMADD231PS  Y9, Y11, Y7

store:
	MOVQ    DI, DX
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	ADDQ    R9, DX
	VMOVUPS Y2, (DX)
	VMOVUPS Y3, 32(DX)
	ADDQ    R9, DX
	VMOVUPS Y4, (DX)
	VMOVUPS Y5, 32(DX)
	ADDQ    R9, DX
	VMOVUPS Y6, (DX)
	VMOVUPS Y7, 32(DX)
	VZEROUPPER
	RET

// func avx2Gemm8x8(k int, a *float32, lda int, bp *float32, c *float32, ldc int)
//
// C[8][8] += A[8][k] @ BP. One YMM accumulator per row; rows addressed
// through two bases (rows 0-3 off AX, rows 4-7 off SI) with 1x/2x/3x lda
// index forms.
TEXT ·avx2Gemm8x8(SB), NOSPLIT, $0-48
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), AX
	MOVQ lda+16(FP), R8
	MOVQ bp+24(FP), BX
	MOVQ c+32(FP), DI
	MOVQ ldc+40(FP), R9
	SHLQ $2, R8
	SHLQ $2, R9
	LEAQ (R8)(R8*2), R10        // 3*lda bytes
	LEAQ (AX)(R8*4), SI         // rows 4-7 base

	// Load the C tile.
	MOVQ    DI, DX
	VMOVUPS (DX), Y0
	ADDQ    R9, DX
	VMOVUPS (DX), Y1
	ADDQ    R9, DX
	VMOVUPS (DX), Y2
	ADDQ    R9, DX
	VMOVUPS (DX), Y3
	ADDQ    R9, DX
	VMOVUPS (DX), Y4
	ADDQ    R9, DX
	VMOVUPS (DX), Y5
	ADDQ    R9, DX
	VMOVUPS (DX), Y6
	ADDQ    R9, DX
	VMOVUPS (DX), Y7

	TESTQ CX, CX
	JZ    store

kloop:
	VMOVUPS      (BX), Y8
	VBROADCASTSS (AX), Y9
	VFMADD231PS  Y8, Y9, Y0
	VBROADCASTSS (AX)(R8*1), Y10
	VFMADD231PS  Y8, Y10, Y1
	VBROADCASTSS (AX)(R8*2), Y11
	VFMADD231PS  Y8, Y11, Y2
	VBROADCASTSS (AX)(R10*1), Y12
	VFMADD231PS  Y8, Y12, Y3
	VBROADCASTSS (SI), Y9
	VFMADD231PS  Y8, Y9, Y4
	VBROADCASTSS (SI)(R8*1), Y10
	VFMADD231PS  Y8, Y10, Y5
	VBROADCASTSS (SI)(R8*2), Y11
	VFMADD231PS  Y8, Y11, Y6
	VBROADCASTSS (SI)(R10*1), Y12
	VFMADD231PS  Y8, Y12, Y7
	ADDQ         $32, BX
	ADDQ         $4, AX
	ADDQ         $4, SI
	DECQ         CX
	JNZ          kloop

store:
	MOVQ    DI, DX
	VMOVUPS Y0, (DX)
	ADDQ    R9, DX
	VMOVUPS Y1, (DX)
	ADDQ    R9, DX
	VMOVUPS Y2, (DX)
	ADDQ    R9, DX
	VMOVUPS Y3, (DX)
	ADDQ    R9, DX
	VMOVUPS Y4, (DX)
	ADDQ    R9, DX
	VMOVUPS Y5, (DX)
	ADDQ    R9, DX
	VMOVUPS Y6, (DX)
	ADDQ    R9, DX
	VMOVUPS Y7, (DX)
	VZEROUPPER
	RET

// func avx2Gemm1x16(k int, a *float32, bp *float32, c *float32)
//
// C[0:16] += A[0:k] @ BP: the M-tail kernel for 16-wide strips.
TEXT ·avx2Gemm1x16(SB), NOSPLIT, $0-32
	MOVQ    k+0(FP), CX
	MOVQ    a+8(FP), AX
	MOVQ    bp+16(FP), BX
	MOVQ    c+24(FP), DI
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	TESTQ   CX, CX
	JZ      store

kloop:
	VBROADCASTSS (AX), Y2
	VFMADD231PS  (BX), Y2, Y0
	VFMADD231PS  32(BX), Y2, Y1
	ADDQ         $64, BX
	ADDQ         $4, AX
	DECQ         CX
	JNZ          kloop

store:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VZEROUPPER
	RET

// func avx2Gemm1x8(k int, a *float32, bp *float32, c *float32)
//
// C[0:8] += A[0:k] @ BP: the M-tail kernel for 8-wide strips.
TEXT ·avx2Gemm1x8(SB), NOSPLIT, $0-32
	MOVQ    k+0(FP), CX
	MOVQ    a+8(FP), AX
	MOVQ    bp+16(FP), BX
	MOVQ    c+24(FP), DI
	VMOVUPS (DI), Y0
	TESTQ   CX, CX
	JZ      store

kloop:
	VBROADCASTSS (AX), Y2
	VFMADD231PS  (BX), Y2, Y0
	ADDQ         $32, BX
	ADDQ         $4, AX
	DECQ         CX
	JNZ          kloop

store:
	VMOVUPS Y0, (DI)
	VZEROUPPER
	RET

// Implicit-GEMM conv kernels. The same two tiles as avx2Gemm4x16 and
// avx2Gemm8x8, with two differences: B row p is not a packed strip row but
// the NR floats at b + off[p] (a tap of the zero-padded input,
// ConvRowsInto), and the accumulators start at zero and are stored, not
// added to C. Each C element is still one VFMADD231PS per k step in
// ascending p. A partial tile of rows runs on a scratch C (the caller
// pads A), so there is no single-row form. The 4x16 kernel walks k with
// one index register for both the A rows and the offset table.

// func avx2ConvImp4x16(k int, a *float32, lda int, b *float32, off *int32, c *float32, ldc int)
//
// C[4][16] = A[4][k] @ B, B row p at b + off[p].
TEXT ·avx2ConvImp4x16(SB), NOSPLIT, $0-56
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), AX
	MOVQ lda+16(FP), R8
	MOVQ b+24(FP), BX
	MOVQ off+32(FP), SI
	MOVQ c+40(FP), DI
	MOVQ ldc+48(FP), R9
	SHLQ $2, R8
	SHLQ $2, R9
	MOVQ AX, R10
	LEAQ (AX)(R8*1), R11
	LEAQ (AX)(R8*2), R12
	LEAQ (R11)(R8*2), R13
	XORQ R8, R8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

kloop:
	MOVLQSX      (SI)(R8*4), DX
	VMOVUPS      (BX)(DX*4), Y8
	VMOVUPS      32(BX)(DX*4), Y9
	VBROADCASTSS (R10)(R8*4), Y10
	VBROADCASTSS (R11)(R8*4), Y11
	VBROADCASTSS (R12)(R8*4), Y12
	VBROADCASTSS (R13)(R8*4), Y13
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1
	VFMADD231PS  Y8, Y11, Y2
	VFMADD231PS  Y9, Y11, Y3
	VFMADD231PS  Y8, Y12, Y4
	VFMADD231PS  Y9, Y12, Y5
	VFMADD231PS  Y8, Y13, Y6
	VFMADD231PS  Y9, Y13, Y7
	INCQ         R8
	CMPQ         R8, CX
	JLT          kloop

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    R9, DI
	VMOVUPS Y2, (DI)
	VMOVUPS Y3, 32(DI)
	ADDQ    R9, DI
	VMOVUPS Y4, (DI)
	VMOVUPS Y5, 32(DI)
	ADDQ    R9, DI
	VMOVUPS Y6, (DI)
	VMOVUPS Y7, 32(DI)
	VZEROUPPER
	RET

// func avx2ConvImp8x8(k int, a *float32, lda int, b *float32, off *int32, c *float32, ldc int)
//
// C[8][8] = A[8][k] @ B, B row p at b + off[p]. A rows addressed through
// two bases (rows 0-3 off R10, rows 4-7 off R11) with 1x/2x/3x lda index
// forms, as in avx2Gemm8x8.
TEXT ·avx2ConvImp8x8(SB), NOSPLIT, $0-56
	MOVQ   k+0(FP), CX
	MOVQ   a+8(FP), R10
	MOVQ   lda+16(FP), R8
	MOVQ   b+24(FP), BX
	MOVQ   off+32(FP), SI
	MOVQ   c+40(FP), DI
	MOVQ   ldc+48(FP), R9
	SHLQ   $2, R8
	SHLQ   $2, R9
	LEAQ   (R8)(R8*2), R12      // 3*lda bytes
	LEAQ   (R10)(R8*4), R11     // rows 4-7 base
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

kloop:
	MOVLQSX      (SI), DX
	VMOVUPS      (BX)(DX*4), Y8
	VBROADCASTSS (R10), Y9
	VFMADD231PS  Y8, Y9, Y0
	VBROADCASTSS (R10)(R8*1), Y10
	VFMADD231PS  Y8, Y10, Y1
	VBROADCASTSS (R10)(R8*2), Y11
	VFMADD231PS  Y8, Y11, Y2
	VBROADCASTSS (R10)(R12*1), Y12
	VFMADD231PS  Y8, Y12, Y3
	VBROADCASTSS (R11), Y9
	VFMADD231PS  Y8, Y9, Y4
	VBROADCASTSS (R11)(R8*1), Y10
	VFMADD231PS  Y8, Y10, Y5
	VBROADCASTSS (R11)(R8*2), Y11
	VFMADD231PS  Y8, Y11, Y6
	VBROADCASTSS (R11)(R12*1), Y12
	VFMADD231PS  Y8, Y12, Y7
	ADDQ         $4, SI
	ADDQ         $4, R10
	ADDQ         $4, R11
	DECQ         CX
	JNZ          kloop

	VMOVUPS Y0, (DI)
	ADDQ    R9, DI
	VMOVUPS Y1, (DI)
	ADDQ    R9, DI
	VMOVUPS Y2, (DI)
	ADDQ    R9, DI
	VMOVUPS Y3, (DI)
	ADDQ    R9, DI
	VMOVUPS Y4, (DI)
	ADDQ    R9, DI
	VMOVUPS Y5, (DI)
	ADDQ    R9, DI
	VMOVUPS Y6, (DI)
	ADDQ    R9, DI
	VMOVUPS Y7, (DI)
	VZEROUPPER
	RET

// func avx2ConvDW8x8(k int, a *float32, aoff *int32, bp *float32, c *float32, ldc int)
//
// C[8][8] += A[8][k] @ BP with A row r the k contiguous floats at
// a + aoff[r] (one tap of the padded input along an output row) and BP a
// packed strip as in avx2Gemm8x8: the implicit-GEMM weight gradient,
// ConvWeightGradInto. Like every kernel here it loads C and adds k in
// ascending order with one FMA per step.
TEXT ·avx2ConvDW8x8(SB), NOSPLIT, $0-48
	MOVQ    a+8(FP), AX
	MOVQ    aoff+16(FP), BX
	MOVLQSX (BX), DX
	LEAQ    (AX)(DX*4), DX
	MOVLQSX 4(BX), SI
	LEAQ    (AX)(SI*4), SI
	MOVLQSX 8(BX), R8
	LEAQ    (AX)(R8*4), R8
	MOVLQSX 12(BX), R9
	LEAQ    (AX)(R9*4), R9
	MOVLQSX 16(BX), R10
	LEAQ    (AX)(R10*4), R10
	MOVLQSX 20(BX), R11
	LEAQ    (AX)(R11*4), R11
	MOVLQSX 24(BX), R12
	LEAQ    (AX)(R12*4), R12
	MOVLQSX 28(BX), R13
	LEAQ    (AX)(R13*4), R13
	MOVQ    k+0(FP), CX
	MOVQ    bp+24(FP), BX
	MOVQ    c+32(FP), DI
	MOVQ    ldc+40(FP), AX
	SHLQ    $2, AX

	// Load the C tile.
	VMOVUPS (DI), Y0
	ADDQ    AX, DI
	VMOVUPS (DI), Y1
	ADDQ    AX, DI
	VMOVUPS (DI), Y2
	ADDQ    AX, DI
	VMOVUPS (DI), Y3
	ADDQ    AX, DI
	VMOVUPS (DI), Y4
	ADDQ    AX, DI
	VMOVUPS (DI), Y5
	ADDQ    AX, DI
	VMOVUPS (DI), Y6
	ADDQ    AX, DI
	VMOVUPS (DI), Y7
	XORQ    AX, AX

kloop:
	VMOVUPS      (BX), Y8
	VBROADCASTSS (DX)(AX*4), Y9
	VFMADD231PS  Y8, Y9, Y0
	VBROADCASTSS (SI)(AX*4), Y10
	VFMADD231PS  Y8, Y10, Y1
	VBROADCASTSS (R8)(AX*4), Y11
	VFMADD231PS  Y8, Y11, Y2
	VBROADCASTSS (R9)(AX*4), Y12
	VFMADD231PS  Y8, Y12, Y3
	VBROADCASTSS (R10)(AX*4), Y9
	VFMADD231PS  Y8, Y9, Y4
	VBROADCASTSS (R11)(AX*4), Y10
	VFMADD231PS  Y8, Y10, Y5
	VBROADCASTSS (R12)(AX*4), Y11
	VFMADD231PS  Y8, Y11, Y6
	VBROADCASTSS (R13)(AX*4), Y12
	VFMADD231PS  Y8, Y12, Y7
	ADDQ         $32, BX
	INCQ         AX
	CMPQ         AX, CX
	JLT          kloop

	MOVQ    c+32(FP), DI
	MOVQ    ldc+40(FP), AX
	SHLQ    $2, AX
	VMOVUPS Y0, (DI)
	ADDQ    AX, DI
	VMOVUPS Y1, (DI)
	ADDQ    AX, DI
	VMOVUPS Y2, (DI)
	ADDQ    AX, DI
	VMOVUPS Y3, (DI)
	ADDQ    AX, DI
	VMOVUPS Y4, (DI)
	ADDQ    AX, DI
	VMOVUPS Y5, (DI)
	ADDQ    AX, DI
	VMOVUPS Y6, (DI)
	ADDQ    AX, DI
	VMOVUPS Y7, (DI)
	VZEROUPPER
	RET

// func avx2Dot(a, b *float32, n int) float32
//
// Dot product over n floats, n a positive multiple of 8 (the Go wrapper
// owns the scalar tail). Two accumulators, 16 floats per main step.
TEXT ·avx2Dot(SB), NOSPLIT, $0-28
	MOVQ   a+0(FP), AX
	MOVQ   b+8(FP), BX
	MOVQ   n+16(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	CMPQ   CX, $16
	JL     tail8

loop16:
	VMOVUPS     (AX), Y2
	VMOVUPS     32(AX), Y3
	VFMADD231PS (BX), Y2, Y0
	VFMADD231PS 32(BX), Y3, Y1
	ADDQ        $64, AX
	ADDQ        $64, BX
	SUBQ        $16, CX
	CMPQ        CX, $16
	JGE         loop16

tail8:
	CMPQ        CX, $8
	JL          reduce
	VMOVUPS     (AX), Y2
	VFMADD231PS (BX), Y2, Y0
	ADDQ        $32, AX
	ADDQ        $32, BX
	SUBQ        $8, CX
	JMP         tail8

reduce:
	VADDPS       Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0
	VHADDPS      X0, X0, X0
	VHADDPS      X0, X0, X0
	VZEROUPPER
	MOVSS        X0, ret+24(FP)
	RET

// func avx2Axpy(y, x *float32, a float32, n int)
//
// y += a * x over n floats, n a positive multiple of 8.
TEXT ·avx2Axpy(SB), NOSPLIT, $0-32
	MOVQ         y+0(FP), AX
	MOVQ         x+8(FP), BX
	VBROADCASTSS a+16(FP), Y2
	MOVQ         n+24(FP), CX

loop8:
	VMOVUPS     (AX), Y0
	VFMADD231PS (BX), Y2, Y0
	VMOVUPS     Y0, (AX)
	ADDQ        $32, AX
	ADDQ        $32, BX
	SUBQ        $8, CX
	JG          loop8
	VZEROUPPER
	RET

// func avx2Scale(y *float32, a float32, n int)
//
// y *= a over n floats, n a positive multiple of 8.
TEXT ·avx2Scale(SB), NOSPLIT, $0-24
	MOVQ         y+0(FP), AX
	VBROADCASTSS a+8(FP), Y1
	MOVQ         n+16(FP), CX

loop8:
	VMULPS  (AX), Y1, Y0
	VMOVUPS Y0, (AX)
	ADDQ    $32, AX
	SUBQ    $8, CX
	JG      loop8
	VZEROUPPER
	RET

// func avx2QDot4x2(k int, a *int8, lda int, b *int8, ldb int) [8]int32
//
// The int8 GEMM's 4x2 block: it returns c[2i+j] = Σ_{p<k} a[i·lda+p]·b[j·ldb+p] over
// signed int8 rows, k a positive multiple of 32. Each 16-byte step
// sign-extends the two B rows and then each A row to int16 (VPMOVSXBW), and
// VPMADDWD forms int32 sums of adjacent int16 products, which no int8
// operand can saturate; eight YMM accumulators hold the row x column
// partial sums. The accumulation is exact integer arithmetic, so its order
// does not matter. The tail folds the eight accumulators into one vector of
// eight sums with two rounds of VPHADDD and one cross-lane add.
TEXT ·avx2QDot4x2(SB), NOSPLIT, $0-72
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), AX
	MOVQ lda+16(FP), R8
	MOVQ b+24(FP), BX
	MOVQ ldb+32(FP), R9

	// A row pointers AX, R10, R11, R12; B row pointers BX, DX.
	LEAQ (AX)(R8*1), R10
	LEAQ (AX)(R8*2), R11
	LEAQ (R10)(R8*2), R12
	LEAQ (BX)(R9*1), DX

	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	XORQ  SI, SI

qloop:
	VPMOVSXBW (BX)(SI*1), Y8
	VPMOVSXBW (DX)(SI*1), Y9
	VPMOVSXBW (AX)(SI*1), Y10
	VPMADDWD  Y8, Y10, Y12
	VPADDD    Y12, Y0, Y0
	VPMADDWD  Y9, Y10, Y13
	VPADDD    Y13, Y1, Y1
	VPMOVSXBW (R10)(SI*1), Y11
	VPMADDWD  Y8, Y11, Y14
	VPADDD    Y14, Y2, Y2
	VPMADDWD  Y9, Y11, Y15
	VPADDD    Y15, Y3, Y3
	VPMOVSXBW (R11)(SI*1), Y10
	VPMADDWD  Y8, Y10, Y12
	VPADDD    Y12, Y4, Y4
	VPMADDWD  Y9, Y10, Y13
	VPADDD    Y13, Y5, Y5
	VPMOVSXBW (R12)(SI*1), Y11
	VPMADDWD  Y8, Y11, Y14
	VPADDD    Y14, Y6, Y6
	VPMADDWD  Y9, Y11, Y15
	VPADDD    Y15, Y7, Y7

	VPMOVSXBW 16(BX)(SI*1), Y8
	VPMOVSXBW 16(DX)(SI*1), Y9
	VPMOVSXBW 16(AX)(SI*1), Y10
	VPMADDWD  Y8, Y10, Y12
	VPADDD    Y12, Y0, Y0
	VPMADDWD  Y9, Y10, Y13
	VPADDD    Y13, Y1, Y1
	VPMOVSXBW 16(R10)(SI*1), Y11
	VPMADDWD  Y8, Y11, Y14
	VPADDD    Y14, Y2, Y2
	VPMADDWD  Y9, Y11, Y15
	VPADDD    Y15, Y3, Y3
	VPMOVSXBW 16(R11)(SI*1), Y10
	VPMADDWD  Y8, Y10, Y12
	VPADDD    Y12, Y4, Y4
	VPMADDWD  Y9, Y10, Y13
	VPADDD    Y13, Y5, Y5
	VPMOVSXBW 16(R12)(SI*1), Y11
	VPMADDWD  Y8, Y11, Y14
	VPADDD    Y14, Y6, Y6
	VPMADDWD  Y9, Y11, Y15
	VPADDD    Y15, Y7, Y7

	ADDQ $32, SI
	CMPQ SI, CX
	JLT  qloop

	// Per 128-bit lane: Y0 <- [Σ Y0, Σ Y1, Σ Y2, Σ Y3], Y4 <- [Σ Y4 .. Σ Y7].
	VPHADDD    Y1, Y0, Y0
	VPHADDD    Y3, Y2, Y2
	VPHADDD    Y5, Y4, Y4
	VPHADDD    Y7, Y6, Y6
	VPHADDD    Y2, Y0, Y0
	VPHADDD    Y6, Y4, Y4
	VPERM2I128 $0x20, Y4, Y0, Y8
	VPERM2I128 $0x31, Y4, Y0, Y9
	VPADDD     Y9, Y8, Y8
	VMOVDQU    Y8, ret+40(FP)
	VZEROUPPER
	RET

// func vnniQDot4x2(k int, a *int8, lda int, b *int8, ldb int) [8]int32
//
// The AVX512-VNNI form of avx2QDot4x2: same block, same contract, same
// result bit for bit. VPDPBUSD multiplies unsigned bytes by signed bytes
// and adds each group of four products into an int32 lane: one instruction
// per 32 MACs. The two B rows are made unsigned by flipping their sign bit
// (b XOR 0x80 = b + 128), so each accumulator collects Σ a·(b+128); a third
// VPDPBUSD per A row, of the row against the 128-byte constant, collects
// 128·Σ a, which the tail subtracts before the same VPHADDD fold. Every
// partial sum stays below 255·128·32768 < 2³¹ in magnitude, and int32
// arithmetic wraps anyway, so the difference is the exact signed dot
// product. The row sums live in Y16-Y19, which only EVEX encodings reach.
TEXT ·vnniQDot4x2(SB), NOSPLIT, $0-72
	MOVQ k+0(FP), CX
	MOVQ a+8(FP), AX
	MOVQ lda+16(FP), R8
	MOVQ b+24(FP), BX
	MOVQ ldb+32(FP), R9

	LEAQ (AX)(R8*1), R10
	LEAQ (AX)(R8*2), R11
	LEAQ (R10)(R8*2), R12
	LEAQ (BX)(R9*1), DX

	// Y14 = 0x80 in every byte: the sign-bit flip, and 128 as an unsigned
	// multiplier.
	MOVL         $0x80808080, DI
	MOVQ         DI, X14
	VPBROADCASTD X14, Y14

	VPXOR  Y0, Y0, Y0
	VPXOR  Y1, Y1, Y1
	VPXOR  Y2, Y2, Y2
	VPXOR  Y3, Y3, Y3
	VPXOR  Y4, Y4, Y4
	VPXOR  Y5, Y5, Y5
	VPXOR  Y6, Y6, Y6
	VPXOR  Y7, Y7, Y7
	VPXORD Y16, Y16, Y16
	VPXORD Y17, Y17, Y17
	VPXORD Y18, Y18, Y18
	VPXORD Y19, Y19, Y19
	XORQ   SI, SI

vloop:
	// Y8, Y9 = B rows + 128 as unsigned bytes; A rows are the signed operand.
	VPXOR    (BX)(SI*1), Y14, Y8
	VPXOR    (DX)(SI*1), Y14, Y9
	VMOVDQU  (AX)(SI*1), Y10
	VPDPBUSD Y10, Y8, Y0
	VPDPBUSD Y10, Y9, Y1
	VPDPBUSD Y10, Y14, Y16
	VMOVDQU  (R10)(SI*1), Y11
	VPDPBUSD Y11, Y8, Y2
	VPDPBUSD Y11, Y9, Y3
	VPDPBUSD Y11, Y14, Y17
	VMOVDQU  (R11)(SI*1), Y10
	VPDPBUSD Y10, Y8, Y4
	VPDPBUSD Y10, Y9, Y5
	VPDPBUSD Y10, Y14, Y18
	VMOVDQU  (R12)(SI*1), Y11
	VPDPBUSD Y11, Y8, Y6
	VPDPBUSD Y11, Y9, Y7
	VPDPBUSD Y11, Y14, Y19
	ADDQ     $32, SI
	CMPQ     SI, CX
	JLT      vloop

	// Row i's sums each carry 128·Σ a[i,·] too much.
	VPSUBD Y16, Y0, Y0
	VPSUBD Y16, Y1, Y1
	VPSUBD Y17, Y2, Y2
	VPSUBD Y17, Y3, Y3
	VPSUBD Y18, Y4, Y4
	VPSUBD Y18, Y5, Y5
	VPSUBD Y19, Y6, Y6
	VPSUBD Y19, Y7, Y7

	VPHADDD    Y1, Y0, Y0
	VPHADDD    Y3, Y2, Y2
	VPHADDD    Y5, Y4, Y4
	VPHADDD    Y7, Y6, Y6
	VPHADDD    Y2, Y0, Y0
	VPHADDD    Y6, Y4, Y4
	VPERM2I128 $0x20, Y4, Y0, Y8
	VPERM2I128 $0x31, Y4, Y0, Y9
	VPADDD     Y9, Y8, Y8
	VMOVDQU    Y8, ret+40(FP)
	VZEROUPPER
	RET

// GELU kernels: the lane math of goGELURow and goGELUGradRow (microgo.go),
// eight floats per step with the multiply-adds fused. n is a positive
// multiple of 8 (the Go wrappers run a ragged tail through an 8-float
// stack buffer, so every element takes these same instructions). The
// constants stay in Y7-Y15; the polynomial's and the derivative's are
// broadcast from geluConst per step.
DATA geluConst<>+0(SB)/4, $0xbfcc422a  // geluK0 = −2√(2/π)
DATA geluConst<>+4(SB)/4, $0xbd922279  // geluK1 = −2√(2/π)·0.044715
DATA geluConst<>+8(SB)/4, $0xc2ae0000  // −87
DATA geluConst<>+12(SB)/4, $0x42ae0000 // 87
DATA geluConst<>+16(SB)/4, $0x3fb8aa3b // log2 e
DATA geluConst<>+20(SB)/4, $0x4b400000 // 1.5·2²³
DATA geluConst<>+24(SB)/4, $0x3f318000 // ln 2, high part
DATA geluConst<>+28(SB)/4, $0xb95e8083 // ln 2, low part
DATA geluConst<>+32(SB)/4, $0x3f800000 // 1
DATA geluConst<>+36(SB)/4, $0x4b3fff81 // bits(1.5·2²³) − 127
DATA geluConst<>+40(SB)/4, $0x39506967 // expP0
DATA geluConst<>+44(SB)/4, $0x3ab743ce // expP1
DATA geluConst<>+48(SB)/4, $0x3c088908 // expP2
DATA geluConst<>+52(SB)/4, $0x3d2aa9c1 // expP3
DATA geluConst<>+56(SB)/4, $0x3e2aaaaa // expP4
DATA geluConst<>+60(SB)/4, $0x3f000000 // expP5
DATA geluConst<>+64(SB)/4, $0x3fcc422a // geluD0 = 2√(2/π)
DATA geluConst<>+68(SB)/4, $0x3e5b33b6 // geluD1 = 6√(2/π)·0.044715
GLOBL geluConst<>(SB), RODATA|NOPTR, $72

#define GELU_CONSTS \
	VBROADCASTSS geluConst<>+0(SB), Y7; \
	VBROADCASTSS geluConst<>+4(SB), Y8; \
	VBROADCASTSS geluConst<>+8(SB), Y9; \
	VBROADCASTSS geluConst<>+12(SB), Y10; \
	VBROADCASTSS geluConst<>+16(SB), Y11; \
	VBROADCASTSS geluConst<>+20(SB), Y12; \
	VBROADCASTSS geluConst<>+24(SB), Y13; \
	VBROADCASTSS geluConst<>+28(SB), Y14; \
	VBROADCASTSS geluConst<>+32(SB), Y15

// GELU_EXP: Y0 = x in, Y1 = x² and Y5 = e = exp(x·(geluK0 + geluK1·x²))
// out; clobbers Y2-Y4 and Y6. The clamp keeps z as VMAXPS/VMINPS's second
// source, so a NaN passes through.
#define GELU_EXP \
	VMULPS       Y0, Y0, Y1; \
	VMOVAPS      Y7, Y2; \
	VFMADD231PS  Y8, Y1, Y2; \
	VMULPS       Y2, Y0, Y2; \
	VMAXPS       Y2, Y9, Y2; \
	VMINPS       Y2, Y10, Y2; \
	VMULPS       Y11, Y2, Y3; \
	VADDPS       Y12, Y3, Y3; \
	VSUBPS       Y12, Y3, Y4; \
	VFNMADD231PS Y13, Y4, Y2; \
	VFNMADD231PS Y14, Y4, Y2; \
	VBROADCASTSS geluConst<>+40(SB), Y5; \
	VBROADCASTSS geluConst<>+44(SB), Y6; \
	VFMADD213PS  Y6, Y2, Y5; \
	VBROADCASTSS geluConst<>+48(SB), Y6; \
	VFMADD213PS  Y6, Y2, Y5; \
	VBROADCASTSS geluConst<>+52(SB), Y6; \
	VFMADD213PS  Y6, Y2, Y5; \
	VBROADCASTSS geluConst<>+56(SB), Y6; \
	VFMADD213PS  Y6, Y2, Y5; \
	VBROADCASTSS geluConst<>+60(SB), Y6; \
	VFMADD213PS  Y6, Y2, Y5; \
	VMULPS       Y2, Y2, Y6; \
	VFMADD213PS  Y2, Y6, Y5; \
	VADDPS       Y15, Y5, Y5; \
	VPBROADCASTD geluConst<>+36(SB), Y6; \
	VPSUBD       Y6, Y3, Y3; \
	VPSLLD       $23, Y3, Y3; \
	VMULPS       Y3, Y5, Y5

// func avx2GELU(dst, src *float32, n int)
//
// dst[i] = x / (1 + e) over n floats; dst may alias src.
TEXT ·avx2GELU(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	GELU_CONSTS

gloop:
	VMOVUPS (SI), Y0
	GELU_EXP
	VADDPS  Y15, Y5, Y5
	VDIVPS  Y5, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JG      gloop
	VZEROUPPER
	RET

// func avx2GELUGrad(dst, gr, x *float32, n int)
//
// dst[i] = gr·q·(a·e·q + 1) over n floats, q = 1/(1 + e) and
// a = x·(geluD0 + geluD1·x²); dst may alias gr or x.
TEXT ·avx2GELUGrad(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ gr+8(FP), BX
	MOVQ x+16(FP), SI
	MOVQ n+24(FP), CX
	GELU_CONSTS

dloop:
	VMOVUPS      (SI), Y0
	GELU_EXP
	VADDPS       Y15, Y5, Y6
	VDIVPS       Y6, Y15, Y6
	VMULPS       Y6, Y5, Y5
	VBROADCASTSS geluConst<>+64(SB), Y4
	VBROADCASTSS geluConst<>+68(SB), Y3
	VFMADD231PS  Y3, Y1, Y4
	VMULPS       Y4, Y0, Y4
	VFMADD213PS  Y15, Y5, Y4
	VMULPS       Y6, Y4, Y4
	VMULPS       (BX), Y4, Y4
	VMOVUPS      Y4, (DI)
	ADDQ         $32, SI
	ADDQ         $32, BX
	ADDQ         $32, DI
	SUBQ         $8, CX
	JG           dloop
	VZEROUPPER
	RET
