package tensor

import (
	"fmt"
	"math"
)

// Transformer row kernels. nn's layers (training and the eager reference)
// and the compiled plan's ops call these same functions, so each op has one
// definition of its math: the GELU activation and its derivative, the
// LayerNorm row, the embedding gather and the patch projection with its
// bias+positional epilogue. The attention kernels are in attention.go.
// Every function is single-threaded over the rows it is handed; callers
// split rows or elements over the worker pool, and each output element
// depends only on its own row, so the bits do not depend on the split.

// GELU tanh-approximation constants.
const (
	geluC0 = 0.7978845608028654 // sqrt(2/pi)
	geluC1 = 0.044715
)

// GELUWork is what one element of GELURow or GELUGradRow costs, in the
// units ParallelFor's work counts: an add streams a float in about 0.75 ns
// on a 2-core Xeon. It is bound at init with the kernels. BenchmarkGELURow
// there reads the AVX2 kernel at 0.73–0.83 ns an element (1 unit) and the
// pure-Go twin at 14–17 ns (20 units); the float64 tanh they replaced took
// 61–67 ns (80 units).
var GELUWork = 20

// GELURow writes dst[i] = GELU(src[i]), the tanh approximation
// 0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³))), in float32 on the bound
// kernel tier (microgo.go has the formula). dst may alias src. Every
// element is within 1e-6 of the formula in float64, and its bits depend
// only on its input, not on how the caller splits rows.
func GELURow(dst, src []float32) { geluRow(dst, src) }

// GELUGradRow writes dst[i] = g[i]·GELU'(x[i]), the derivative of GELURow's
// formula, on the bound kernel tier; dst may alias g or x.
func GELUGradRow(dst, g, x []float32) { geluGradRow(dst, g, x) }

// AddRow adds src into dst elementwise over len(dst) elements (len(src) >=
// len(dst)), on the bound axpy kernel at a = 1: fma(1, x, y) rounds x + y
// once, so every element gets the bits of a scalar dst[i] += src[i].
func AddRow(dst, src []float32) { vaxpy(dst, 1, src) }

// LayerNormRow normalizes one row: with the mean and the biased variance of
// src accumulated in float64 (the variance clamped at zero) and inv =
// 1/√(variance+eps), it writes x̂ = (src[i]−mean)·inv into xhat[i] when xhat
// is non-nil and x̂·gamma[i] + beta[i] into dst[i]. It returns inv, which
// the layer's backward needs with x̂.
func LayerNormRow(dst, xhat, src, gamma, beta []float32, eps float32) float32 {
	var sum, sq float64
	for _, v := range src {
		sum += float64(v)
		sq += float64(v) * float64(v)
	}
	d := float64(len(src))
	mean := float32(sum / d)
	variance := float32(sq/d) - mean*mean
	if variance < 0 {
		variance = 0
	}
	inv := float32(1 / math.Sqrt(float64(variance+eps)))
	dst, gamma, beta = dst[:len(src)], gamma[:len(src)], beta[:len(src)]
	for i, v := range src {
		xv := (v - mean) * inv
		if xhat != nil {
			xhat[i] = xv
		}
		dst[i] = xv*gamma[i] + beta[i]
	}
	return inv
}

// TokenMeanRows averages each sample's t token rows of d floats in src into
// its row of dst: the tokens are summed in order, then the sum is scaled by
// 1/t.
func TokenMeanRows(dst, src []float32, t, d int) {
	inv := 1 / float32(t)
	for ni := 0; ni < len(dst)/d; ni++ {
		row := dst[ni*d:][:d]
		copy(row, src[ni*t*d:][:d])
		for ti := 1; ti < t; ti++ {
			for p, v := range src[(ni*t+ti)*d:][:d] {
				row[p] += v
			}
		}
		for p := range row {
			row[p] *= inv
		}
	}
}

// EmbedRows is the token stem's gather: for each token id in ids (integral
// float32 values, t tokens per sample), row i of dst (d floats) becomes
// row ids[i] of the [vocab, d] table plus row i mod t of the [t, d]
// positional table. An id outside [0, vocab) panics.
func EmbedRows(dst, ids, table, pos []float32, d, t int) {
	vocab := len(table) / d
	for i, x := range ids {
		id := int(x)
		if id < 0 || id >= vocab {
			panic(fmt.Sprintf("tensor: embedding token id %d out of vocab %d", id, vocab))
		}
		row := dst[i*d:][:d]
		src := table[id*d:][:d]
		prow := pos[(i%t)*d:][:d]
		for p := range row {
			row[p] = src[p] + prow[p]
		}
	}
}

// PatchEmbedInto is the image stem: it unfolds x [N, C, H, W] into
// non-overlapping patch×patch patches channel-major (cols, [C·P·P, N·T]),
// projects them with w [C·P·P, D] into y [N·T, D], and adds bias and the
// [T, D] positional table row by row. cols is left holding the patches for
// the caller's weight gradient.
func PatchEmbedInto(y, cols, x, w *Tensor, bias, pos []float32, patch int) {
	Im2ColCMInto(cols, x, patch, patch, patch, 0)
	MatMulTransAInto(y, cols, w)
	d := y.Dim(1)
	t := len(pos) / d
	yd := y.Data()
	for r := 0; r < y.Dim(0); r++ {
		row := yd[r*d:][:d]
		prow := pos[(r%t)*d:][:d]
		for j := range row {
			row[j] = row[j] + bias[j] + prow[j]
		}
	}
}
