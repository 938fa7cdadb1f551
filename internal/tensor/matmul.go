package tensor

import (
	"fmt"
	"sync"
)

// GEMM driver. The implementation is cache-blocked in the BLIS style: B is
// packed into KC x NC panels laid out as NR-wide column strips (zero-padded
// to NR, so every strip row is a full vector row), and an MR x NR
// register-blocked microkernel — AVX2 assembly when bound, pure-Go
// [8]float32 lanes otherwise; see vec.go — sweeps the panel for each MR-row
// tile of the destination. Destination tiles are distributed over the
// shared worker pool by absolute tile index, and every kernel accumulates k
// in ascending order, so each output element sees an identical accumulation
// order no matter how tiles are chunked: results are deterministic across
// GOMAXPROCS settings. The panels and the register block come from one
// rule over the product's shape (gemmBlocking in params.go).
// NaiveMatMulInto in naive.go preserves the reference semantics;
// kernels_parity_test.go holds the two within 1e-4 across both kernel
// tiers and forced blockings.

// gemmEngine carries the blocked driver's parallel-body state (the
// per-panel tile sweep) through the worker pool without per-call closure
// captures.
type gemmEngine struct {
	dd, ad, panel []float32
	m, n, lda     int
	j0, jw        int // current column panel
	p0, kw        int // current k panel
	mr, nr        int
	nstrips       int
	kern          microFn  // full-tile kernel, assembly tier (nil when unbound)
	kern1         micro1Fn // single-row M-tail kernel, assembly tier
	goFull        microFn  // full-tile kernel, pure-Go lane tier
	tiles         func(lo, hi int)
}

var gemmEngines = sync.Pool{New: func() any {
	e := &gemmEngine{}
	e.tiles = e.runTiles
	return e
}}

// runTiles accumulates destination tiles [tlo, thi) against the current
// packed panel. A tile is MR consecutive destination rows; within it the
// panel is swept strip by strip. On the first k panel (p0 == 0) a tile
// first zeroes its rows of the column panel, so the accumulation starts
// from +0 without a separate pass over dst; an edge tile copies those zeros
// into its scratch. Full tiles run the full-tile microkernel of
// the bound tier. On the assembly tier every ragged tile runs the assembly
// kernels too: an M tail one row at a time through the single-row kernel,
// an N tail (w < NR) through an MR×NR scratch tile (edgeTile). The pure-Go
// tier sends every ragged tile to goGemmStrip.
func (e *gemmEngine) runTiles(tlo, thi int) {
	mr, nr := e.mr, e.nr
	kw, lda, n := e.kw, e.lda, e.n
	// The edge scratch is leased at most once per call: a stack array would
	// escape through the kernel function variable and allocate per call.
	var edge *[edgeTileLen]float32
	for t := tlo; t < thi; t++ {
		i := t * mr
		rows := e.m - i
		if rows > mr {
			rows = mr
		}
		if e.p0 == 0 {
			for r := i; r < i+rows; r++ {
				clear(e.dd[r*n+e.j0:][:e.jw])
			}
		}
		ab := e.ad[i*lda+e.p0:]
		for s := 0; s < e.nstrips; s++ {
			jj := e.j0 + s*nr
			w := e.j0 + e.jw - jj
			if w > nr {
				w = nr
			}
			bp := e.panel[s*kw*nr:]
			cb := e.dd[i*n+jj:]
			switch {
			case rows == mr && w == nr && e.kern != nil:
				e.kern(kw, &ab[0], lda, &bp[0], &cb[0], n)
			case rows == mr && w == nr:
				e.goFull(kw, &ab[0], lda, &bp[0], &cb[0], n)
			case e.kern == nil:
				goGemmStrip(kw, ab, lda, rows, bp, nr, cb, n, w)
			case w == nr:
				for r := 0; r < rows; r++ {
					e.kern1(kw, &ab[r*lda], &bp[0], &cb[r*n])
				}
			default:
				if edge == nil {
					edge = edgeTiles.Get().(*[edgeTileLen]float32)
				}
				e.edgeTile(edge[:], ab, rows, bp, cb, w)
			}
		}
	}
	if edge != nil {
		edgeTiles.Put(edge)
	}
}

// edgeTileLen is MR·NR of both register blocks (4x16 and 8x8).
const edgeTileLen = 64

// edgeTiles recycles edgeTile scratch. It is its own pool, not the arena:
// a lease taken and returned in the middle of a GEMM reorders the arena's
// free list, so the next large lease can draw the 64-float buffer and
// allocate — plan forwards stopped being allocation-free that way.
var edgeTiles = sync.Pool{New: func() any { return new([edgeTileLen]float32) }}

// edgeTile accumulates a ragged-N tile (w < NR columns, rows <= MR) with
// the assembly kernels, BLIS-style: the destination's w columns are copied
// into the MR×NR scratch tile sc, the full-width kernel runs on sc (the
// packed strip is zero-padded past w, so the padding lanes never feed a
// valid column), and only the w valid columns are copied back. The
// destination is never written past its width or its last row.
func (e *gemmEngine) edgeTile(sc, ab []float32, rows int, bp, cb []float32, w int) {
	nr, lda, n := e.nr, e.lda, e.n
	for r := 0; r < rows; r++ {
		copy(sc[r*nr:][:w], cb[r*n:][:w])
	}
	if rows == e.mr {
		e.kern(e.kw, &ab[0], lda, &bp[0], &sc[0], nr)
	} else {
		for r := 0; r < rows; r++ {
			e.kern1(e.kw, &ab[r*lda], &bp[0], &sc[r*nr])
		}
	}
	for r := 0; r < rows; r++ {
		copy(cb[r*n:][:w], sc[r*nr:][:w])
	}
}

// gemmBlocked is the shared panel loop: dst[m,n] = a[m,k] @ B where B is
// b[k,n] (transB false) or b[n,k] read transposed (transB true). Each
// (column panel, k panel) pair is packed once and then accumulated by all
// destination tiles; the first k panel's tiles zero their region first.
func gemmBlocked(dd, ad, bd []float32, m, n, k int, transB bool, gp gemmParams) {
	if k == 0 {
		clear(dd[:m*n])
		return
	}
	kc, nc, mr, nr := gp.kc, gp.nc, gp.mr, gp.nr
	e := gemmEngines.Get().(*gemmEngine)
	e.dd, e.ad = dd, ad
	e.m, e.n, e.lda = m, n, k
	e.mr, e.nr = mr, nr
	e.kern, e.kern1 = nil, nil
	if vecActive {
		if nr == 16 {
			e.kern, e.kern1 = microGemm4x16, microGemm1x16
		} else {
			e.kern, e.kern1 = microGemm8x8, microGemm1x8
		}
	}
	if nr == 16 {
		e.goFull = goGemm4x16
	} else {
		e.goFull = goGemm8x8
	}
	maxW := nc
	if n < maxW {
		maxW = n
	}
	maxStrips := (maxW + nr - 1) / nr
	buf := GetBufDirty(kc * maxStrips * nr)
	e.panel = *buf
	ntiles := (m + mr - 1) / mr
	for j0 := 0; j0 < n; j0 += nc {
		jw := min(nc, n-j0)
		for p0 := 0; p0 < k; p0 += kc {
			kw := min(kc, k-p0)
			if transB {
				packPanelBT(e.panel, bd, k, j0, jw, p0, kw, nr)
			} else {
				packPanelB(e.panel, bd, n, j0, jw, p0, kw, nr)
			}
			e.j0, e.jw, e.p0, e.kw = j0, jw, p0, kw
			e.nstrips = (jw + nr - 1) / nr
			ParallelFor(ntiles, mr*jw*kw, e.tiles)
		}
	}
	PutBuf(buf)
	e.dd, e.ad, e.panel = nil, nil, nil
	gemmEngines.Put(e)
}

// packPanelB packs B[p0:p0+kw, j0:j0+jw] of a row-major [*, n] matrix into
// NR-wide column strips: strip s holds columns j0+s*nr onward, row p of the
// strip at panel[(s*kw+p)*nr:]. The last strip is zero-padded to nr so the
// microkernels always read full vector rows.
func packPanelB(panel, bd []float32, n, j0, jw, p0, kw, nr int) {
	nstrips := (jw + nr - 1) / nr
	for s := 0; s < nstrips; s++ {
		js := j0 + s*nr
		w := min(nr, j0+jw-js)
		dstS := panel[s*kw*nr:][:kw*nr]
		if w < nr {
			for x := range dstS {
				dstS[x] = 0
			}
		}
		for p := 0; p < kw; p++ {
			copy(dstS[p*nr:p*nr+w], bd[(p0+p)*n+js:][:w])
		}
	}
}

// packPanelBT packs the same strips from a transposed operand: B is [n, k]
// row-major and strip column jj is B's row js+jj, so the pack transposes
// on the fly (unit-stride reads from B, nr-stride writes into the strip).
func packPanelBT(panel, bd []float32, k, j0, jw, p0, kw, nr int) {
	nstrips := (jw + nr - 1) / nr
	for s := 0; s < nstrips; s++ {
		js := j0 + s*nr
		w := min(nr, j0+jw-js)
		dstS := panel[s*kw*nr:][:kw*nr]
		if w < nr {
			for x := range dstS {
				dstS[x] = 0
			}
		}
		for jj := 0; jj < w; jj++ {
			brow := bd[(js+jj)*k+p0:][:kw]
			for p, v := range brow {
				dstS[p*nr+jj] = v
			}
		}
	}
}

// MatMulInto computes dst = a @ b for 2-D tensors: a is [m,k], b is [k,n],
// dst is [m,n]. dst is overwritten.
func MatMulInto(dst, a, b *Tensor) {
	if a.Rank() != 2 || b.Rank() != 2 || dst.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulInto wants rank-2 operands, got %v @ %v -> %v", a.shape, b.shape, dst.shape))
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto shape mismatch %v @ %v -> %v", a.shape, b.shape, dst.shape))
	}
	gemmBlocked(dst.data, a.data, b.data, m, n, k, false, gemmBlocking(n, k))
}

// MatMul returns a @ b as a new [m,n] tensor.
func MatMul(a, b *Tensor) *Tensor {
	out := New(a.shape[0], b.shape[1])
	MatMulInto(out, a, b)
	return out
}

// MatMulTransAInto computes dst = aᵀ @ b where a is [k,m], b is [k,n],
// dst is [m,n]. It is the conv input-gradient and linear weight-gradient
// GEMM of training, and the projection of channel-major patch columns
// (PatchEmbed, the plan's patch op): a is transposed into an arena [m,k]
// buffer and the product runs through the same packed driver and
// microkernels as MatMulInto. The transpose moves m·k floats against
// 2·m·n·k flops.
func MatMulTransAInto(dst, a, b *Tensor) {
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransAInto shape mismatch %vᵀ @ %v -> %v", a.shape, b.shape, dst.shape))
	}
	at := GetBufDirty(m * k)
	transposeInto(*at, a.data, k, m)
	gemmBlocked(dst.data, *at, b.data, m, n, k, false, gemmBlocking(n, k))
	PutBuf(at)
}

// transposeInto writes the [cols, rows] transpose of the row-major
// [rows, cols] matrix src into dst. It walks src in blocks of 32 rows so
// each destination row segment is written contiguously while the block's
// source lines stay cache-resident.
func transposeInto(dst, src []float32, rows, cols int) {
	const tb = 32
	for p0 := 0; p0 < rows; p0 += tb {
		p1 := min(p0+tb, rows)
		for i := 0; i < cols; i++ {
			drow := dst[i*rows+p0 : i*rows+p1]
			for p := range drow {
				drow[p] = src[(p0+p)*cols+i]
			}
		}
	}
}

// MatMulTransBInto computes dst = a @ bᵀ where a is [m,k], b is [n,k],
// dst is [m,n]. Used for the conv weight gradient, PatchEmbed's column
// gradient and the linear input gradient; the pack stage transposes B into
// the strip layout so the same microkernels run as for MatMulInto.
func MatMulTransBInto(dst, a, b *Tensor) {
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransBInto shape mismatch %v @ %vᵀ -> %v", a.shape, b.shape, dst.shape))
	}
	gemmBlocked(dst.data, a.data, b.data, m, n, k, true, gemmBlocking(n, k))
}

// Transpose2D returns the transpose of a 2-D tensor as a new tensor.
func Transpose2D(a *Tensor) *Tensor {
	if a.Rank() != 2 {
		panic(fmt.Sprintf("tensor: Transpose2D wants rank 2, got %v", a.shape))
	}
	out := New(a.shape[1], a.shape[0])
	transposeInto(out.data, a.data, a.shape[0], a.shape[1])
	return out
}
