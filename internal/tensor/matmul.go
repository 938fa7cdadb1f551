package tensor

import (
	"fmt"
	"sync"
)

// GEMM driver. The implementation is cache-blocked in the BLIS style: B is
// packed once, over its full k extent, into NR-wide column strips
// (zero-padded to NR, so every strip row is a full vector row), and an
// MR x NR register-blocked microkernel — AVX2 assembly when bound, pure-Go
// [8]float32 lanes otherwise; see vec.go — sweeps one KC-deep slice of a
// strip for each MR-row tile of the destination. The pack is one
// ParallelFor over strips; the product is one ParallelFor over (column
// panel × tile) indices, so a GEMM pays two fork-joins whatever its panel
// count. A constant B (a compiled plan's linear weight) is packed ahead of
// time by PackB, and MatMulPackedInto runs the same driver from those
// strips without the pack. A caller that owns its parallelism (the
// attention kernels) runs the same tile loop serially through sweep, from
// strips it packed itself. Every kernel accumulates k in ascending order
// and the k panels of a tile run in ascending order, so each output
// element sees an identical accumulation order no matter how tiles are
// chunked: results are deterministic across GOMAXPROCS settings. The
// panels and the register block come from one rule over the product's
// shape (gemmBlocking in params.go). NaiveMatMulInto in naive.go preserves
// the reference semantics; kernels_parity_test.go holds the two within
// 1e-4 across both kernel tiers and forced blockings.

// gemmEngine carries the blocked driver's parallel-body state through the
// worker pool without per-call closure captures. It holds only what is
// fixed for the whole product: concurrent chunks share it, so anything
// that varies by panel is passed as an argument.
type gemmEngine struct {
	dd, ad, bd, panel []float32
	m, n, k           int
	lda, ldc          int // row strides of a and dd
	kc, nc, mr, nr    int
	ntiles            int // MR-row tiles per column panel
	transB            bool
	accum             bool     // add to dd instead of overwriting it
	kern              microFn  // full-tile kernel, assembly tier (nil when unbound)
	kern1             micro1Fn // single-row M-tail kernel, assembly tier
	goFull            microFn  // full-tile kernel, pure-Go lane tier
	pack, tiles       func(lo, hi int)
}

var gemmEngines = sync.Pool{New: func() any {
	e := &gemmEngine{}
	e.pack, e.tiles = e.runPack, e.runTiles
	return e
}}

// runPack packs strips [lo, hi) of B: strip s holds columns s·NR onward
// over all k rows, row p at panel[(s·k+p)·NR:].
func (e *gemmEngine) runPack(lo, hi int) {
	j0 := lo * e.nr
	jw := min(hi*e.nr, e.n) - j0
	dst := e.panel[lo*e.k*e.nr:]
	if e.transB {
		packStripsBT(dst, e.bd, e.k, e.k, j0, jw, e.nr)
	} else {
		packStripsB(dst, e.bd, e.n, e.k, j0, jw, e.nr)
	}
}

// runTiles computes indices [lo, hi) of the product's task space, where
// index t = columnPanel·ntiles + tile. A chunk may straddle column panels;
// each piece runs as one panelTiles call.
func (e *gemmEngine) runTiles(lo, hi int) {
	// The edge scratch is leased at most once per call: a stack array would
	// escape through the kernel function variable and allocate per call.
	var edge *[edgeTileLen]float32
	for lo < hi {
		cp := lo / e.ntiles
		end := min(hi, (cp+1)*e.ntiles)
		e.panelTiles(cp*e.nc, lo-cp*e.ntiles, end-cp*e.ntiles, &edge)
		lo = end
	}
	if edge != nil {
		edgeTiles.Put(edge)
	}
}

// panelTiles accumulates destination tiles [tlo, thi) of the column panel
// starting at column j0, the k panels outer and the tiles inner. A tile is
// MR consecutive destination rows; within it each k panel's slice of the
// packed strips is swept strip by strip. On the first k panel a tile first
// zeroes its rows of the column panel, so the accumulation starts from +0
// without a separate pass over dst (unless the engine accumulates into dd);
// an edge tile copies those zeros into its scratch. Full tiles run the
// full-tile microkernel of the bound tier. On the assembly tier every
// ragged tile runs the assembly kernels too: an M tail one row at a time
// through the single-row kernel, an N tail (w < NR) through an MR×NR
// scratch tile (edgeTile). The pure-Go tier sends every ragged tile to
// goGemmStrip.
func (e *gemmEngine) panelTiles(j0, tlo, thi int, edge **[edgeTileLen]float32) {
	mr, nr, k, lda, ldc := e.mr, e.nr, e.k, e.lda, e.ldc
	jw := min(e.nc, e.n-j0)
	s0, nstrips := j0/nr, (jw+nr-1)/nr
	for p0 := 0; p0 < k; p0 += e.kc {
		kw := min(e.kc, k-p0)
		for t := tlo; t < thi; t++ {
			i := t * mr
			rows := min(mr, e.m-i)
			if p0 == 0 && !e.accum {
				for r := i; r < i+rows; r++ {
					clear(e.dd[r*ldc+j0:][:jw])
				}
			}
			ab := e.ad[i*lda+p0:]
			for s := 0; s < nstrips; s++ {
				jj := j0 + s*nr
				w := min(nr, j0+jw-jj)
				bp := e.panel[((s0+s)*k+p0)*nr:]
				cb := e.dd[i*ldc+jj:]
				switch {
				case rows == mr && w == nr && e.kern != nil:
					e.kern(kw, &ab[0], lda, &bp[0], &cb[0], ldc)
				case rows == mr && w == nr:
					e.goFull(kw, &ab[0], lda, &bp[0], &cb[0], ldc)
				case e.kern == nil:
					goGemmStrip(kw, ab, lda, rows, bp, nr, cb, ldc, w)
				case w == nr:
					for r := 0; r < rows; r++ {
						e.kern1(kw, &ab[r*lda], &bp[0], &cb[r*ldc])
					}
				default:
					if *edge == nil {
						*edge = edgeTiles.Get().(*[edgeTileLen]float32)
					}
					e.edgeTile((*edge)[:], ab, rows, bp, cb, w, kw)
				}
			}
		}
	}
}

// edgeTileLen is MR·NR of both register blocks (4x16 and 8x8).
const edgeTileLen = 64

// edgeTiles recycles edgeTile scratch. It is its own pool, not the arena:
// a lease taken and returned in the middle of a GEMM reorders the arena's
// free list, so the next large lease can draw the 64-float buffer and
// allocate — plan forwards stopped being allocation-free that way.
var edgeTiles = sync.Pool{New: func() any { return new([edgeTileLen]float32) }}

// edgeTile accumulates a ragged-N tile (w < NR columns, rows <= MR, kw
// deep) with the assembly kernels, BLIS-style: the destination's w columns
// are copied into the MR×NR scratch tile sc, the full-width kernel runs on
// sc (the packed strip is zero-padded past w, so the padding lanes never
// feed a valid column), and only the w valid columns are copied back. The
// destination is never written past its width or its last row.
func (e *gemmEngine) edgeTile(sc, ab []float32, rows int, bp, cb []float32, w, kw int) {
	nr, lda, ldc := e.nr, e.lda, e.ldc
	for r := 0; r < rows; r++ {
		copy(sc[r*nr:][:w], cb[r*ldc:][:w])
	}
	if rows == e.mr {
		e.kern(kw, &ab[0], lda, &bp[0], &sc[0], nr)
	} else {
		for r := 0; r < rows; r++ {
			e.kern1(kw, &ab[r*lda], &bp[0], &sc[r*nr])
		}
	}
	for r := 0; r < rows; r++ {
		copy(cb[r*ldc:][:w], sc[r*nr:][:w])
	}
}

// bind sets the engine's blocking to gp and its kernels to the bound
// tier's register block of that shape.
func (e *gemmEngine) bind(gp gemmParams) {
	e.kc, e.nc, e.mr, e.nr = gp.kc, gp.nc, gp.mr, gp.nr
	e.kern, e.kern1 = nil, nil
	if vecActive {
		if gp.nr == 16 {
			e.kern, e.kern1 = microGemm4x16, microGemm1x16
		} else {
			e.kern, e.kern1 = microGemm8x8, microGemm1x8
		}
	}
	if gp.nr == 16 {
		e.goFull = goGemm4x16
	} else {
		e.goFull = goGemm8x8
	}
}

// sweep is the serial form of the driver for callers that own their
// parallelism (the attention kernels run one per (sample, head) unit):
// dd[m, n] = a[m, k]·B, or += when accum is set, with a rows lda floats
// apart, dd rows ldc floats apart and B already packed into panel as the
// driver packs it. Every (column panel × tile) task runs on the calling
// goroutine through the same tile loop as gemmBlocked, edge tiles and
// M tails included. e must be bound (bind) to the blocking panel was
// packed under.
func (e *gemmEngine) sweep(dd, ad, panel []float32, m, n, k, lda, ldc int, accum bool) {
	e.dd, e.ad, e.panel = dd, ad, panel
	e.m, e.n, e.k, e.lda, e.ldc, e.accum = m, n, k, lda, ldc, accum
	e.ntiles = (m + e.mr - 1) / e.mr
	e.runTiles(0, (n+e.nc-1)/e.nc*e.ntiles)
}

// gemmBlocked is the driver: dst[m,n] = a[m,k] @ B where B is b[k,n]
// (transB false) or b[n,k] read transposed (transB true). B is packed once
// into an arena lease, unless packed already holds its strips as PackB lays
// them out under gp (bd is then not read). Every (column panel, tile) pair
// is one index of a single ParallelFor; a pair costs MR·min(NC, n)·k FMAs.
func gemmBlocked(dd, ad, bd, packed []float32, m, n, k int, transB bool, gp gemmParams) {
	if k == 0 {
		clear(dd[:m*n])
		return
	}
	nr := gp.nr
	e := gemmEngines.Get().(*gemmEngine)
	e.bind(gp)
	e.dd, e.ad, e.bd, e.transB = dd, ad, bd, transB
	e.m, e.n, e.k, e.lda, e.ldc, e.accum = m, n, k, k, n, false
	e.panel = packed
	var buf *[]float32
	if packed == nil {
		nstrips := (n + nr - 1) / nr
		buf = GetBufDirty(nstrips * k * nr)
		e.panel = *buf
		ParallelFor(nstrips, k*nr, e.pack)
	}
	e.ntiles = (m + gp.mr - 1) / gp.mr
	panels := (n + gp.nc - 1) / gp.nc
	ParallelFor(panels*e.ntiles, gp.mr*min(gp.nc, n)*k, e.tiles)
	if buf != nil {
		PutBuf(buf)
	}
	e.dd, e.ad, e.bd, e.panel = nil, nil, nil, nil
	gemmEngines.Put(e)
}

// packStripsB packs columns [j0, j0+jw) of the row-major [k, n] matrix B,
// its rows ldb floats apart and j0 a multiple of nr, into NR-wide column
// strips over all k rows: strip s holds columns j0+s*nr onward, row p of
// the strip at panel[(s*k+p)*nr:]. The last strip is zero-padded to nr so
// the microkernels always read full vector rows.
func packStripsB(panel, bd []float32, ldb, k, j0, jw, nr int) {
	nstrips := (jw + nr - 1) / nr
	for s := 0; s < nstrips; s++ {
		js := j0 + s*nr
		w := min(nr, j0+jw-js)
		dstS := panel[s*k*nr:][:k*nr]
		if w < nr {
			clear(dstS)
		}
		for p := 0; p < k; p++ {
			copy(dstS[p*nr:p*nr+w], bd[p*ldb+js:][:w])
		}
	}
}

// packStripsBT packs the same strips from a transposed operand: B is
// [n, k] row-major, its rows ldb floats apart, and strip column jj is B's
// row js+jj, so the pack transposes on the fly (unit-stride reads from B,
// nr-stride writes into the strip).
func packStripsBT(panel, bd []float32, ldb, k, j0, jw, nr int) {
	nstrips := (jw + nr - 1) / nr
	for s := 0; s < nstrips; s++ {
		js := j0 + s*nr
		w := min(nr, j0+jw-js)
		dstS := panel[s*k*nr:][:k*nr]
		if w < nr {
			clear(dstS)
		}
		// Eight B rows at a time: each strip row gets eight adjacent
		// floats per step.
		jj := 0
		for ; jj+7 < w; jj += 8 {
			r0 := bd[(js+jj)*ldb:][:k]
			r1 := bd[(js+jj+1)*ldb:][:k]
			r2 := bd[(js+jj+2)*ldb:][:k]
			r3 := bd[(js+jj+3)*ldb:][:k]
			r4 := bd[(js+jj+4)*ldb:][:k]
			r5 := bd[(js+jj+5)*ldb:][:k]
			r6 := bd[(js+jj+6)*ldb:][:k]
			r7 := bd[(js+jj+7)*ldb:][:k]
			for p := range r0 {
				d := (*[8]float32)(dstS[p*nr+jj:])
				d[0], d[1], d[2], d[3] = r0[p], r1[p], r2[p], r3[p]
				d[4], d[5], d[6], d[7] = r4[p], r5[p], r6[p], r7[p]
			}
		}
		for ; jj < w; jj++ {
			for p, v := range bd[(js+jj)*ldb:][:k] {
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
	gemmBlocked(dst.data, a.data, b.data, nil, m, n, k, false, gemmBlocking(n, k))
}

// PackedB is a constant [k, n] B operand packed once into the driver's
// NR-wide column strips, under the blocking gemmBlocking(n, k) picks: strip
// s holds columns s·NR onward, row p at strips[(s·k+p)·NR:], the last strip
// zero-padded to NR. It is read-only after PackB, so any number of
// goroutines may run MatMulPackedInto from one PackedB at once.
type PackedB struct {
	k, n   int
	gp     gemmParams
	strips []float32
}

// PackB packs the [k, n] matrix w into the strips every MatMulInto(dst, a, w)
// would pack for itself. It walks w row by row, a row's NR-wide pieces
// going to the same row of each strip, with the rows split over the worker
// pool: w is read in order, where a strip-by-strip walk reads it with
// stride n and packs the plan's weights slower at compile.
func PackB(w *Tensor) *PackedB {
	if w.Rank() != 2 {
		panic(fmt.Sprintf("tensor: PackB wants a rank-2 operand, got %v", w.shape))
	}
	k, n := w.shape[0], w.shape[1]
	gp := gemmBlocking(n, k)
	nr := gp.nr
	p := &PackedB{k: k, n: n, gp: gp, strips: make([]float32, (n+nr-1)/nr*k*nr)}
	ParallelFor(k, n, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			row := w.data[r*n:][:n]
			for s, j := 0, 0; j < n; s, j = s+1, j+nr {
				copy(p.strips[(s*k+r)*nr:][:nr], row[j:min(j+nr, n)])
			}
		}
	})
	return p
}

// Unpack returns the [k, n] matrix p was packed from, as a new tensor.
func (p *PackedB) Unpack() *Tensor {
	k, n, nr := p.k, p.n, p.gp.nr
	w := New(k, n)
	for r := 0; r < k; r++ {
		for s, j := 0, 0; j < n; s, j = s+1, j+nr {
			copy(w.data[r*n+j:min((r+1)*n, r*n+j+nr)], p.strips[(s*k+r)*nr:])
		}
	}
	return w
}

// MatMulPackedInto computes dst = a @ b for a [m,k] a and a [k,n] b packed
// by PackB; dst is [m,n] and is overwritten. It runs the same driver, strips
// and kernel calls as MatMulInto on b's unpacked form, so it gives the
// same bits, without packing b.
func MatMulPackedInto(dst, a *Tensor, b *PackedB) {
	if a.Rank() != 2 || dst.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulPackedInto wants rank-2 operands, got %v @ packed -> %v", a.shape, dst.shape))
	}
	m, k, n := a.shape[0], a.shape[1], b.n
	if k != b.k || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulPackedInto shape mismatch %v @ [%d %d] -> %v", a.shape, b.k, b.n, dst.shape))
	}
	gemmBlocked(dst.data, a.data, nil, b.strips, m, n, k, false, b.gp)
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
	gemmBlocked(dst.data, *at, b.data, nil, m, n, k, false, gemmBlocking(n, k))
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
	gemmBlocked(dst.data, a.data, b.data, nil, m, n, k, true, gemmBlocking(n, k))
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
