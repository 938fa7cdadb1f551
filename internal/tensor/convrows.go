package tensor

import (
	"fmt"
	"sync"
)

// Implicit-GEMM forms of ConvRowsInto, picked by convImplicit.
const (
	convUnfold = iota // unfold into columns and run the GEMM driver
	convRows16        // 16-pixel blocks within output rows (4x16 kernel)
	convRows8         // 8-pixel blocks within output rows (8x8 kernel)
	convGrid8         // 8-pixel blocks over the padded row pitch (8x8 kernel)
)

// convImplicit is ConvRowsInto's one shape rule, read off a stride-1
// convolution's output extents and padded input width wp = OW+K-1:
//
//   - convRows16 when OW % 16 == 0, convRows8 when OW % 8 == 0 otherwise:
//     a block is 16 (8) pixels of one output row, which read 16 (8)
//     consecutive floats of every tap of the padded input;
//   - convGrid8 for any other width whose image spans at least one block:
//     the kernels run over output positions oy·WP + ox of the padded row
//     pitch, ox < WP, so consecutive positions again read consecutive
//     floats, and the WP−OW positions past each row's end are computed
//     into a scratch and dropped (1.5× the work of a 4×4 map, 1.2× of
//     12×12);
//   - convUnfold for strided convolutions, maps too small for one block
//     (2×2), and the pure-Go tier.
//
// The pure-Go tier keeps the unfold because its ragged-tile kernel adds
// four k steps at a time (gemmBlocking), so an implicit form there would
// not give the unfold's bits. No knob picks the form.
func convImplicit(oh, ow, wp, stride int) int {
	switch {
	case !vecActive || stride != 1:
		return convUnfold
	case ow%16 == 0:
		return convRows16
	case ow%8 == 0:
		return convRows8
	case (oh-1)*wp+ow >= 8:
		return convGrid8
	}
	return convUnfold
}

// convInputGradForm is ConvInputGradInto's shape rule: convImplicit's, read
// off the transposed problem — a stride-1 convolution of dz, zero-padded by
// K−1−pad, whose output is the H×W input — so the same forms and the same
// limits apply. A padding of K or more, which the transposed problem cannot
// express, unfolds too.
func convInputGradForm(h, w, k, stride, pad int) int {
	if pad >= k {
		return convUnfold
	}
	return convImplicit(h, w, w+k-1, stride)
}

// ConvRowsInto computes the convolution rows dst [OutC, N·OH·OW] = w
// [OutC, C·K·K] · cols, where cols is x [N,C,H,W]'s channel-major unfold
// for a k×k kernel (Im2ColCMInto): row o holds output channel o at every
// output pixel, in (image, oy, ox) order. dst is overwritten. It is the
// training convolution's forward (nn's fused conv body, train and eval).
//
// On shapes convImplicit accepts it is an implicit GEMM. The input is
// copied once, zero-padded, into an arena lease (read in place when pad is
// 0). B row kk = (ci, ky, kx) at output position q is then the padded input
// at off[kk] + q, where off is a per-call tap-offset table, so the
// microkernels read B straight from that copy: nothing is unfolded and no B
// panel is packed. A is the weight, read in place. Work is split over
// (image, output row) tiles, each computing every output channel of its
// pixel blocks, so a conv with two output channels still uses every pool
// worker; under convGrid8, whose maps are small, a tile is an image.
// Elsewhere it unfolds into arena columns and runs MatMulInto.
//
// The forms give the same bits: on the assembly tier every element of each
// is one FMA per k step in ascending kk, starting from zero, with the
// padding taps read as zeros in all (TestConvImplicitMatchesUnfold).
func ConvRowsInto(dst, w, x *Tensor, k, stride, pad int) {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("tensor: ConvRowsInto wants NCHW, got %v", x.shape))
	}
	n, c, h, wd := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh, ow := ConvOut(h, k, stride, pad), ConvOut(wd, k, stride, pad)
	kk, m := c*k*k, n*oh*ow
	if w.Rank() != 2 || w.shape[1] != kk || dst.Rank() != 2 || dst.shape[0] != w.shape[0] || dst.shape[1] != m {
		panic(fmt.Sprintf("tensor: ConvRowsInto weight %v, dst %v for input %v, kernel %d", w.shape, dst.shape, x.shape, k))
	}
	hp, wp := h+2*pad, wd+2*pad
	mode := convImplicit(oh, ow, wp, stride)
	jb := convRowsJobs.Get().(*convRowsJob)
	defer convRowsJobs.Put(jb)
	if mode == convUnfold {
		colsBuf := GetBufDirty(kk * m)
		cols := jb.colsT.Rebind(*colsBuf, kk, m)
		Im2ColCMInto(cols, x, k, k, stride, pad)
		MatMulInto(dst, w, cols)
		PutBuf(colsBuf)
		return
	}
	wt := w.data
	if mr := jb.setMode(mode); w.shape[0]%mr != 0 {
		// Round the weight up to whole MR-row tiles by repeating its last
		// row; the repeated rows' outputs land in the edge scratch only.
		oc, rows := w.shape[0], (w.shape[0]+mr-1)/mr*mr
		if cap(jb.own) < rows*kk {
			jb.own = make([]float32, rows*kk)
		}
		wt = jb.own[:rows*kk]
		copy(wt, w.data)
		for r := oc; r < rows; r++ {
			copy(wt[r*kk:][:kk], w.data[(oc-1)*kk:])
		}
	}
	xpBuf := jb.padInput(x, pad)
	jb.setOffsets(c, k, hp, wp)
	jb.wd, jb.dd = wt, dst.data
	jb.oc, jb.kk, jb.taps = w.shape[0], kk, 0
	jb.img, jb.hp, jb.wp, jb.oh, jb.ow = c*hp*wp, hp, wp, oh, ow
	jb.ldc, jb.outImg = m, oh*ow
	jb.runForm(n, nil)
	PutBuf(xpBuf)
}

// ConvInputGradInto computes dst [N,C,H,W], the input gradient of the
// convolution ConvRowsInto computes, from its weight w [OutC, C·K·K] and
// the gradient dz [OutC, N·OH·OW] of its rows: the columns wᵀ·dz folded
// back onto the input, as MatMulTransAInto and Col2ImCMInto compute them.
// dst is overwritten. scratch is its working space, at least
// ConvInputGradScratch floats, or nil to lease it from the arena.
//
// On shapes convInputGradForm accepts it is an implicit GEMM, with no
// columns and no fold. dz is copied once into the scratch, each plane
// zero-padded by K−1−pad (read in place when that is 0), so tap (ky, kx)
// of input pixel (iy, ix) reads dz's padded plane at (iy+K−1−ky,
// ix+K−1−kx) for every tap, in range or not. The weight is packed once into
// MR-channel tiles, tap by tap. A block of MR input channels × NR input
// pixels then sums its taps in the fold's order for one pixel — ky
// descending, then kx ascending — each tap one FMA chain over the output
// channels from zero, the dcols GEMM's element, added to the block as the
// fold adds it (avx2ConvDX4x16, avx2ConvDX8x8). A tap that falls off dz
// reads zeros, so with a finite weight its chain is +0 (never −0) and the
// add leaves the sum's bits alone: the two forms give the same bits
// (TestConvInputGradMatchesFold). Work is split as ConvRowsInto splits it.
// Elsewhere the scratch holds the columns.
func ConvInputGradInto(dst, w, dz *Tensor, scratch []float32, k, stride, pad int) {
	if dst.Rank() != 4 {
		panic(fmt.Sprintf("tensor: ConvInputGradInto wants NCHW, got %v", dst.shape))
	}
	n, c, h, wd := dst.shape[0], dst.shape[1], dst.shape[2], dst.shape[3]
	oh, ow := ConvOut(h, k, stride, pad), ConvOut(wd, k, stride, pad)
	kk, m, oc := c*k*k, n*oh*ow, w.shape[0]
	if w.Rank() != 2 || w.shape[1] != kk || dz.Rank() != 2 || dz.shape[0] != oc || dz.shape[1] != m {
		panic(fmt.Sprintf("tensor: ConvInputGradInto weight %v, dz %v for input %v, kernel %d", w.shape, dz.shape, dst.shape, k))
	}
	mode, dzLen, need := inputGradScratch(n, c, h, wd, oc, k, stride, pad)
	var buf *[]float32
	if len(scratch) < need {
		buf = GetBufDirty(need)
		scratch = *buf
	}
	jb := convRowsJobs.Get().(*convRowsJob)
	if mode == convUnfold {
		ct := jb.colsT.Rebind(scratch[:need], kk, m)
		MatMulTransAInto(ct, w, dz)
		Col2ImCMInto(dst, ct, k, k, stride, pad)
	} else {
		jb.inputGrad(dst, w, dz, scratch[:dzLen], scratch[dzLen:need], mode, k, pad)
	}
	convRowsJobs.Put(jb)
	if buf != nil {
		PutBuf(buf)
	}
}

// ConvInputGradScratch is the working space, in floats, that
// ConvInputGradInto needs for an input [n, c, h, w] and oc output
// channels: the columns [C·K·K, N·OH·OW] where it unfolds; dz's padded
// planes, and under convGrid8 the grid scratch, where it is implicit.
func ConvInputGradScratch(n, c, h, w, oc, k, stride, pad int) int {
	_, _, need := inputGradScratch(n, c, h, w, oc, k, stride, pad)
	return need
}

// inputGradScratch returns ConvInputGradInto's form and its scratch
// layout: dzLen floats of padded dz first (0 when K−1−pad is 0 and dz is
// read in place), then the grid scratch, need floats in all.
func inputGradScratch(n, c, h, w, oc, k, stride, pad int) (mode, dzLen, need int) {
	mode = convInputGradForm(h, w, k, stride, pad)
	if mode == convUnfold {
		return mode, 0, c * k * k * n * ConvOut(h, k, stride, pad) * ConvOut(w, k, stride, pad)
	}
	if pad < k-1 {
		dzLen = oc * n * (h + k - 1) * (w + k - 1)
	}
	need = dzLen
	if mode == convGrid8 {
		need += c * n * ((h-1)*(w+k-1) + w)
	}
	return mode, dzLen, need
}

// inputGrad runs ConvInputGradInto's implicit form: it packs the weight
// into the job's own buffer, pads dz into dzp (unless dzp is empty, when
// K−1−pad is 0 and dz is read in place) and runs the tiles, the grid form
// through grid.
func (jb *convRowsJob) inputGrad(dst, w, dz *Tensor, dzp, grid []float32, mode, k, pad int) {
	n, c, h, wd := dst.shape[0], dst.shape[1], dst.shape[2], dst.shape[3]
	oc, kk, taps := w.shape[0], w.shape[1], k*k
	mr := jb.setMode(mode)
	rows := (c + mr - 1) / mr * mr
	if cap(jb.own) < rows*taps*oc {
		jb.own = make([]float32, rows*taps*oc)
	}
	// Tile i (channels i..i+MR−1) holds, for tap j = (K−1−ky)·K + kx, its MR
	// weight columns as rows of oc floats; channels past C are zero.
	wt := jb.own[:rows*taps*oc]
	for ci := 0; ci < rows; ci++ {
		for j := 0; j < taps; j++ {
			row := wt[((ci/mr*taps+j)*mr+ci%mr)*oc:][:oc]
			if ci >= c {
				clear(row)
				continue
			}
			tap := ci*taps + (k-1-j/k)*k + j%k
			for o := range row {
				row[o] = w.data[o*kk+tap]
			}
		}
	}
	hp, wp := h+k-1, wd+k-1
	jb.off = jb.off[:0]
	for j := 0; j < taps; j++ {
		jb.off = append(jb.off, int32(j/k*wp+k-1-j%k))
	}
	if len(dzp) == 0 {
		dzp = dz.data
	} else {
		jb.setPad(dzp, dz.data, ConvOut(h, k, 1, pad), ConvOut(wd, k, 1, pad), k-1-pad)
		ParallelFor(oc*n, hp*wp, jb.pad)
	}
	jb.xd, jb.wd, jb.dd = dzp, wt, dst.data
	jb.oc, jb.kk, jb.taps, jb.ldb = c, oc, taps, n*hp*wp
	jb.img, jb.hp, jb.wp, jb.oh, jb.ow = hp*wp, hp, wp, h, wd
	jb.ldc, jb.outImg = h*wd, c*h*wd
	jb.runForm(n, grid)
}

// runForm runs the job's implicit form over n images — row tiles, or whole
// images through the grid scratch, at least C·N·span floats of grid or
// leased when grid is shorter — once its operands and geometry are set,
// and drops its references to them.
func (jb *convRowsJob) runForm(n int, grid []float32) {
	work := jb.oc * jb.kk * max(jb.taps, 1)
	if jb.mode != convGrid8 {
		ParallelFor(n*jb.oh, work*jb.ow, jb.tiles)
	} else {
		jb.span = (jb.oh-1)*jb.wp + jb.ow
		var gridBuf *[]float32
		if len(grid) < jb.oc*n*jb.span {
			gridBuf = GetBufDirty(jb.oc * n * jb.span)
			grid = *gridBuf
		}
		jb.gd = grid[:jb.oc*n*jb.span]
		ParallelFor(n, work*jb.span, jb.tiles)
		if gridBuf != nil {
			PutBuf(gridBuf)
		}
	}
	jb.xd, jb.wd, jb.dd, jb.sd, jb.gd = nil, nil, nil, nil, nil
}

// convWeightGradForm is ConvWeightGradInto's shape rule: the implicit GEMM
// over output rows, its 8x8 kernel (convRows8), for every stride-1
// convolution on the assembly tier, whatever its width; the unfold for the
// rest.
func convWeightGradForm(stride int) int {
	if !vecActive || stride != 1 {
		return convUnfold
	}
	return convRows8
}

// ConvWeightGradInto computes dst [C·K·K, OutC] = cols · dzᵀ, the
// transposed weight gradient of the convolution ConvRowsInto computes:
// cols is x [N,C,H,W]'s channel-major unfold for a k×k kernel and dz
// [OutC, N·OH·OW] the gradient of its rows. dst is overwritten.
//
// On the assembly tier, for stride-1 convolutions of any width, it is an
// implicit GEMM too: cols row kk along one output row is the OW contiguous
// floats of the padded input at off[kk] from the row's corner, so the
// weight-gradient kernel reads eight taps in place as its A rows, and dz,
// packed once into 8-wide strips of output channels, is B; one kernel call
// walks an image's OH rows of OW pixels, skipping the padding between them,
// so a 2×2 map beats its unfold too at the search's channel counts
// (BenchmarkConvBlockTrainStep). Strided convolutions and the pure-Go tier
// unfold into arena columns and run MatMulTransBInto.
// Either way every element is one FMA chain over the pixels in ascending
// order, from zero, so the two give the same bits. Work is split over
// 8-tap tiles of dst.
func ConvWeightGradInto(dst, dz, x *Tensor, k, stride, pad int) {
	n, c, h, wd := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh, ow := ConvOut(h, k, stride, pad), ConvOut(wd, k, stride, pad)
	kk, m, oc := c*k*k, n*oh*ow, dz.shape[0]
	if dz.Rank() != 2 || dz.shape[1] != m || dst.Rank() != 2 || dst.shape[0] != kk || dst.shape[1] != oc {
		panic(fmt.Sprintf("tensor: ConvWeightGradInto dst %v, dz %v for input %v, kernel %d", dst.shape, dz.shape, x.shape, k))
	}
	jb := convRowsJobs.Get().(*convRowsJob)
	defer convRowsJobs.Put(jb)
	if convWeightGradForm(stride) == convUnfold {
		colsBuf := GetBufDirty(kk * m)
		cols := jb.colsT.Rebind(*colsBuf, kk, m)
		Im2ColCMInto(cols, x, k, k, stride, pad)
		MatMulTransBInto(dst, cols, dz)
		PutBuf(colsBuf)
		return
	}
	hp, wp := h+2*pad, wd+2*pad
	xpBuf := jb.padInput(x, pad)
	jb.setOffsets(c, k, hp, wp)
	tiles := (kk + 7) / 8
	for len(jb.off) < tiles*8 {
		jb.off = append(jb.off, jb.off[kk-1])
	}
	strips := (oc + 7) / 8
	np, ng := strips*m*8, tiles*8*strips*8
	if cap(jb.own) < np+ng {
		jb.own = make([]float32, np+ng)
	}
	jb.dd, jb.gd, jb.sd = jb.own[:np], jb.own[np:np+ng], dz.data
	clear(jb.gd)
	jb.oc, jb.kk, jb.m, jb.strips = oc, kk, m, strips
	jb.img, jb.hp, jb.wp, jb.oh, jb.ow = c*hp*wp, hp, wp, oh, ow
	ParallelFor(m, strips*8, jb.packDz)
	ParallelFor(tiles, 64*strips*m, jb.dwTile)
	for r := 0; r < kk; r++ {
		copy(dst.data[r*oc:][:oc], jb.gd[r*strips*8:])
	}
	jb.xd, jb.dd, jb.gd, jb.sd = nil, nil, nil, nil
	PutBuf(xpBuf)
}

// PadInto writes x [N,C,H,W] into dst [N,C,H+2·pad,W+2·pad] with a border of
// pad zeros on every side of each plane. A padded copy unfolds (and feeds
// ConvRowsInto) at pad 0 to the same columns as x at pad, bit for bit: the
// border reads as the zeros the unfold would write.
func PadInto(dst, x *Tensor, pad int) {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	if dst.Rank() != 4 || dst.shape[0] != n || dst.shape[1] != c || dst.shape[2] != h+2*pad || dst.shape[3] != w+2*pad {
		panic(fmt.Sprintf("tensor: PadInto dst %v for input %v, pad %d", dst.shape, x.shape, pad))
	}
	if pad == 0 {
		copy(dst.data, x.data)
		return
	}
	jb := convRowsJobs.Get().(*convRowsJob)
	jb.setPad(dst.data, x.data, h, w, pad)
	ParallelFor(n*c, jb.hp*jb.wp, jb.pad)
	jb.xd, jb.sd = nil, nil
	convRowsJobs.Put(jb)
}

// convRowsJob carries ConvRowsInto's and PadInto's parallel-body state
// through the worker pool: the zero-padded input xd ([N, C, HP, WP]), the
// weight wd, the rows dd and the tap-offset table off, whose entry kk =
// (ci, ky, kx) is that tap's distance in floats from an output position's
// corner in its image of xd.
//
// ConvInputGradInto runs the same tiles over the transposed problem: xd is
// then dz padded per plane ([OutC, N, HP, WP], its channels ldb floats
// apart), wd the packed weight tiles, dd the input gradient [N, C, H, W],
// off one offset per tap, oc the input channels C and kk the FMA chain
// length OutC.
//
// ConvWeightGradInto reuses the job: dd is then dz packed into 8-wide
// strips and gd the strip-padded gradient [C·K·K, 8·strips], both in the
// job's own grow-only buffer, and sd is dz.
type convRowsJob struct {
	xd, wd, dd, sd, gd []float32 // padded input, weight, rows; PadInto's source; grid scratch
	off                []int32
	oc, kk, m, mode    int       // output channels, C·K·K, row length N·OH·OW, form
	taps, ldb          int       // ConvInputGradInto's taps per chain sum and dz channel stride; taps 0 in the forward
	mr, nr             int       // the form's register block
	img, hp, wp, span  int       // padded image size C·HP·WP, plane extents, grid positions per image
	oh, ow, h, w, p    int       // output extents; PadInto's source extents and border
	ldc, outImg        int       // the output's channel and image strides in dd
	strips             int       // ConvWeightGradInto's 8-channel strips of dz
	own                []float32 // grow-only: the padded or packed weight, or ConvWeightGradInto's packed dz and gradient tiles
	colsT              Tensor    // the unfold's columns, where a shape takes it
	pad, tiles, packDz func(lo, hi int)
	dwTile             func(lo, hi int)
}

var convRowsJobs = sync.Pool{New: func() any {
	jb := &convRowsJob{}
	jb.pad, jb.tiles, jb.packDz, jb.dwTile = jb.runPad, jb.runTiles, jb.runPackDz, jb.runDWTile
	return jb
}}

// padInput points xd at x zero-padded by pad: x's own data at pad 0, else
// an arena lease it fills and returns for the caller to put back.
func (jb *convRowsJob) padInput(x *Tensor, pad int) *[]float32 {
	if pad == 0 {
		jb.xd = x.data
		return nil
	}
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	buf := GetBufDirty(n * c * (h + 2*pad) * (w + 2*pad))
	jb.setPad(*buf, x.data, h, w, pad)
	ParallelFor(n*c, jb.hp*jb.wp, jb.pad)
	return buf
}

// setMode sets the job's form and its register block, and returns MR.
func (jb *convRowsJob) setMode(mode int) int {
	jb.mode, jb.mr, jb.nr = mode, 8, 8
	if mode == convRows16 {
		jb.mr, jb.nr = 4, 16
	}
	return jb.mr
}

// setOffsets fills the tap-offset table of a c-channel k×k kernel over
// padded planes [hp, wp], with room to round it up to whole 8-tap tiles.
func (jb *convRowsJob) setOffsets(c, k, hp, wp int) {
	kk := c * k * k
	if cap(jb.off) < (kk+7)&^7 {
		jb.off = make([]int32, kk, (kk+7)&^7)
	}
	jb.off = jb.off[:kk]
	for i := range jb.off {
		ci, ky, kx := i/(k*k), i/k%k, i%k
		jb.off[i] = int32((ci*hp+ky)*wp + kx)
	}
}

// runPackDz packs pixels [lo, hi) of dz into the 8-wide strips: strip s
// holds output channels 8s..8s+7 of pixel j at dd[(s·M + j)·8:], zero past
// the last channel.
func (jb *convRowsJob) runPackDz(lo, hi int) {
	oc, m := jb.oc, jb.m
	for s := 0; s < jb.strips; s++ {
		strip := jb.dd[(s*m+lo)*8 : (s*m+hi)*8]
		valid := min(8, oc-s*8)
		if valid < 8 {
			clear(strip)
		}
		for o := 0; o < valid; o++ {
			for j, v := range jb.sd[(s*8+o)*m+lo : (s*8+o)*m+hi] {
				strip[j*8+o] = v
			}
		}
	}
}

// runDWTile accumulates weight-gradient tiles [lo, hi), tile i being taps
// 8i..8i+7, one kernel call per (tile, strip, image) that walks the
// image's output rows in order, so every element sums the pixels in
// ascending order. The last tile may run past the last tap: its extra rows
// read the last tap again (the offset table repeats it) into rows of gd
// that are dropped.
func (jb *convRowsJob) runDWTile(lo, hi int) {
	ldc, m, ow, oh := jb.strips*8, jb.m, jb.ow, jb.oh
	for i := lo; i < hi; i++ {
		for s := 0; s < jb.strips; s++ {
			c := &jb.gd[i*8*ldc+s*8]
			for ni := 0; ni < m/(oh*ow); ni++ {
				convDW8x8(ow, oh, jb.wp-ow, &jb.xd[ni*jb.img], &jb.off[i*8], &jb.dd[(s*m+ni*oh*ow)*8], c, ldc)
			}
		}
	}
}

// setPad aims the job's pad body at the [h, w] planes of src and their
// padded planes in dst.
func (jb *convRowsJob) setPad(dst, src []float32, h, w, pad int) {
	jb.xd, jb.sd = dst, src
	jb.h, jb.w, jb.p = h, w, pad
	jb.hp, jb.wp = h+2*pad, w+2*pad
}

// runPad copies source planes [lo, hi) into their padded planes, zeroing
// the border.
func (jb *convRowsJob) runPad(lo, hi int) {
	h, w, p, wp := jb.h, jb.w, jb.p, jb.wp
	hpw := jb.hp * wp
	for pl := lo; pl < hi; pl++ {
		dst, src := jb.xd[pl*hpw:][:hpw], jb.sd[pl*h*w:][:h*w]
		clear(dst[:p*wp+p])
		for y := 0; y < h; y++ {
			row := dst[(y+p)*wp+p:][:wp]
			copy(row[:w], src[y*w:][:w])
			clear(row[w:]) // right border, then the next row's left one
		}
		clear(dst[(h+p)*wp+p:])
	}
}

// runTiles computes tiles [lo, hi). Under the row forms tile t = ni·OH + oy
// is output row oy of image ni; under convGrid8 it is image t. Either way
// it covers every output channel. Output channel o of image ni starts at
// dd[o·ldc + ni·outImg].
func (jb *convRowsJob) runTiles(lo, hi int) {
	var edge *[edgeTileLen]float32
	if jb.oc%jb.mr != 0 {
		edge = edgeTiles.Get().(*[edgeTileLen]float32)
		defer edgeTiles.Put(edge)
	}
	if jb.mode == convGrid8 {
		for ni := lo; ni < hi; ni++ {
			jb.gridImage(ni, edge)
		}
		return
	}
	oh, ow, wp := jb.oh, jb.ow, jb.wp
	for t := lo; t < hi; t++ {
		src, col := t/oh*jb.img+t%oh*wp, t/oh*jb.outImg+t%oh*ow
		for ox := 0; ox < ow; ox += jb.nr {
			jb.block(src+ox, jb.dd[col+ox:], jb.ldc, edge)
		}
	}
}

// gridImage computes image ni under convGrid8: 8-position blocks over its
// span (OH−1)·WP+OW of padded-pitch positions into the grid scratch — the
// last block ends at the span's end and may repeat positions, which it
// stores with the same values — then keeps the OW valid positions of each
// output row. Reads stop at the image's last padded float.
func (jb *convRowsJob) gridImage(ni int, edge *[edgeTileLen]float32) {
	span, ldg := jb.span, len(jb.gd)/jb.oc
	g := jb.gd[ni*span:]
	for q := 0; q < span; q += 8 {
		q = min(q, span-8)
		jb.block(ni*jb.img+q, g[q:], ldg, edge)
	}
	ohw := jb.oh * jb.ow
	for o := 0; o < jb.oc; o++ {
		row, src := jb.dd[o*jb.ldc+ni*jb.outImg:][:ohw], g[o*ldg:]
		for oy := 0; oy < jb.oh; oy++ {
			copy(row[oy*jb.ow:][:jb.ow], src[oy*jb.wp:])
		}
	}
}

// block runs the MR×NR kernel over one NR-position block starting at
// padded-input position src, for every MR-row tile of the weight: output
// channel o's block lands at c[o·ldc:]. A last, partial tile runs into the
// edge scratch, and only its real rows are copied out. With taps set it
// runs the input-gradient kernel, whose tile i weight spans taps·kk rows.
func (jb *convRowsJob) block(src int, c []float32, ldc int, edge *[edgeTileLen]float32) {
	kern, dx, mr, nr := convImp4x16, convDX4x16, jb.mr, jb.nr
	if nr == 8 {
		kern, dx = convImp8x8, convDX8x8
	}
	b, off, wd, kk, oc, taps := &jb.xd[src], &jb.off[0], jb.wd, jb.kk, jb.oc, jb.taps
	for i := 0; i < oc; i += mr {
		var cp *float32
		ld := nr
		if i+mr <= oc {
			cp, ld = &c[i*ldc], ldc
		} else {
			cp = &edge[0]
		}
		if taps == 0 {
			kern(kk, &wd[i*kk], kk, b, off, cp, ld)
		} else {
			dx(taps, kk, &wd[i*taps*kk], kk, b, jb.ldb, off, cp, ld)
		}
		if i+mr > oc {
			for r := i; r < oc; r++ {
				copy(c[r*ldc:][:nr], edge[(r-i)*nr:])
			}
		}
	}
}
