package tensor

import (
	"fmt"
	"sync"
)

// Hot-path kernels in this file hand their parallel bodies to the worker
// pool through recycled "job" structs: the captured state lives in struct
// fields and the body is a method value created once when the sync.Pool
// constructs the job. A plain closure would heap-allocate its capture on
// every call — visible GC churn under SA search, and a violation of the
// execution plan's zero-allocations-per-forward contract
// (internal/plan.Instance.Execute).

// ConvOut returns the output spatial size of a convolution/pool with the
// given input size, kernel, stride, and padding.
func ConvOut(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}

// unfoldJob carries the parallel-body state of the channel-major unfold and
// fold kernels (Im2ColCMInto, Col2ImCMInto) through the pool. Both walk one
// convolution geometry; taps caches, per kernel column kx, the output
// columns whose input column is in range, so no inner loop divides or
// branches on padding per element.
type unfoldJob struct {
	xd, cd                                  []float32
	n, c, h, w, oh, ow, kh, kw, stride, pad int
	taps                                    []convTap
	unfoldCM, foldCM                        func(lo, hi int)
}

// convTap is the in-range stretch of one kernel column kx: output columns
// [x0, x1) read input column src + (ox-x0)*stride; the rest read padding.
type convTap struct{ x0, x1, src int }

var unfoldJobs = sync.Pool{New: func() any {
	jb := &unfoldJob{}
	jb.unfoldCM, jb.foldCM = jb.runUnfoldCM, jb.runFoldCM
	return jb
}}

// getUnfoldJob leases a job set up for x [N,C,H,W] data xd and columns cd.
func getUnfoldJob(xd, cd []float32, n, c, h, w, kh, kw, stride, pad int) *unfoldJob {
	jb := unfoldJobs.Get().(*unfoldJob)
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(w, kw, stride, pad)
	jb.xd, jb.cd = xd, cd
	jb.n, jb.c, jb.h, jb.w, jb.oh, jb.ow = n, c, h, w, oh, ow
	jb.kh, jb.kw, jb.stride, jb.pad = kh, kw, stride, pad
	jb.taps = jb.taps[:0]
	for kx := 0; kx < kw; kx++ {
		// ox*stride + kx - pad must land in [0, w).
		x0, x1 := 0, 0
		if d := pad - kx; d > 0 {
			x0 = (d + stride - 1) / stride
		}
		if top := w - 1 + pad - kx; top >= 0 {
			x1 = min(top/stride+1, ow)
		}
		x0 = min(x0, x1)
		jb.taps = append(jb.taps, convTap{x0, x1, x0*stride + kx - pad})
	}
	return jb
}

func putUnfoldJob(jb *unfoldJob) {
	jb.xd, jb.cd = nil, nil
	unfoldJobs.Put(jb)
}

// runUnfoldCM fills the channel-major columns of items [lo, hi), where item
// r·N + ni is column row r = (ci, ky, kx) restricted to image ni: OH·OW
// contiguous floats. Each output row is one in-range input-row segment — a
// plain copy at stride 1 — between zero-filled borders; a stride-1 unfold
// whose output rows are as wide as the input's moves all of them at once
// (unfoldShifted), and one without padding (an input PadInto padded) has no
// borders to fill.
func (jb *unfoldJob) runUnfoldCM(lo, hi int) {
	xd, cd, taps := jb.xd, jb.cd, jb.taps
	n, c, h, w, oh, ow := jb.n, jb.c, jb.h, jb.w, jb.oh, jb.ow
	kh, kw, stride, pad := jb.kh, jb.kw, jb.stride, jb.pad
	hw, ohw := h*w, oh*ow
	r, ni := lo/n, lo%n
	ci, ky, kx := r/(kh*kw), r/kw%kh, r%kw
	for it := lo; it < hi; it, ni = it+1, ni+1 {
		if ni == n { // the next column row: step (ci, ky, kx) without dividing
			ni, kx = 0, kx+1
			if kx == kw {
				kx, ky = 0, ky+1
				if ky == kh {
					ky, ci = 0, ci+1
				}
			}
		}
		plane := xd[(ni*c+ci)*hw:][:hw]
		dst := cd[it*ohw:][:ohw] // item it = r·N + ni starts at r·M + ni·OH·OW
		if stride == 1 && ow == w {
			unfoldShifted(dst, plane, h, w, ky-pad, kx-pad)
			continue
		}
		if stride == 1 && pad == 0 { // every tap in range: one copy per row
			src := plane[ky*w+kx:]
			for oy := 0; oy < oh; oy++ {
				d, s := dst[oy*ow:][:ow], src[oy*w:][:ow]
				if ow >= 16 {
					copy(d, s)
					continue
				}
				for i := range d { // a short row costs less than a memmove call
					d[i] = s[i]
				}
			}
			continue
		}
		tp := taps[kx]
		for oy := 0; oy < oh; oy++ {
			seg := dst[oy*ow:][:ow]
			iy := oy*stride + ky - pad
			if iy < 0 || iy >= h {
				clear(seg)
				continue
			}
			row := plane[iy*w:][:w]
			clear(seg[:tp.x0])
			if stride == 1 && tp.x0 < tp.x1 {
				copy(seg[tp.x0:tp.x1], row[tp.src:])
			} else {
				for ox, sx := tp.x0, tp.src; ox < tp.x1; ox, sx = ox+1, sx+stride {
					seg[ox] = row[sx]
				}
			}
			clear(seg[tp.x1:])
		}
	}
}

// unfoldShifted fills one tap row dst [OH, W] of a stride-1 unfold whose
// output rows are as wide as the input's: it is the input plane [H, W]
// shifted by dy rows and dx columns, zeros shifted in. The in-range rows
// move as one block copy, which drags dx values across each row seam, and
// then only those dx border columns are zeroed.
func unfoldShifted(dst, plane []float32, h, w, dy, dx int) {
	oh := len(dst) / w
	oy0, oy1 := max(0, -dy), min(oh, h-dy)
	if oy1 <= oy0 || dx >= w || -dx >= w {
		clear(dst)
		return
	}
	clear(dst[:oy0*w])
	clear(dst[oy1*w:])
	blk, src := dst[oy0*w:oy1*w], plane[(oy0+dy)*w:(oy1+dy)*w]
	if dx >= 0 {
		copy(blk, src[dx:])
		for o := w - dx; o < len(blk); o += w {
			for i := range blk[o : o+dx] {
				blk[o+i] = 0
			}
		}
		return
	}
	copy(blk[-dx:], src)
	for o := 0; o < len(blk); o += w {
		for i := range blk[o : o-dx] {
			blk[o+i] = 0
		}
	}
}

// runFoldCM folds the (image, channel) planes [lo, hi) of the output from
// channel-major columns. A plane owns its output and sums taps in a fixed
// (oy, ky, kx, ox) order, so every sum is the same under any chunking.
func (jb *unfoldJob) runFoldCM(lo, hi int) {
	xd, cd, taps := jb.xd, jb.cd, jb.taps
	n, c, h, w, oh, ow := jb.n, jb.c, jb.h, jb.w, jb.oh, jb.ow
	kh, kw, stride, pad := jb.kh, jb.kw, jb.stride, jb.pad
	m := n * oh * ow
	for pl := lo; pl < hi; pl++ {
		ni, ci := pl/c, pl%c
		plane := xd[pl*h*w:][:h*w]
		clear(plane)
		for oy := 0; oy < oh; oy++ {
			col := (ni*oh + oy) * ow
			for ky := 0; ky < kh; ky++ {
				iy := oy*stride + ky - pad
				if iy < 0 || iy >= h {
					continue
				}
				row := plane[iy*w:][:w]
				r := (ci*kh + ky) * kw
				for kx, tp := range taps {
					seg := cd[(r+kx)*m+col:][:ow]
					if stride == 1 && tp.x0 < tp.x1 {
						dst := row[tp.src:][:tp.x1-tp.x0]
						for i, v := range seg[tp.x0:tp.x1] {
							dst[i] += v
						}
						continue
					}
					for ox, sx := tp.x0, tp.src; ox < tp.x1; ox, sx = ox+1, sx+stride {
						row[sx] += seg[ox]
					}
				}
			}
		}
	}
}

// Im2ColCMInto unfolds x [N,C,H,W] into channel-major columns
// [C*KH*KW, N*OH*OW]: row (ci, ky, kx) holds that tap's input pixel for
// every output pixel. It is the one unfold layout, for training and the
// compiled plan alike: the forward GEMM W[OutC, C·KH·KW] · cols reads the
// weight in place as the A operand, puts the output channels on the GEMM's
// M side and the pixel axis on its N side, and the output comes out as one
// contiguous row per channel.
func Im2ColCMInto(cols, x *Tensor, kh, kw, stride, pad int) {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Im2ColCMInto wants NCHW, got %v", x.shape))
	}
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(w, kw, stride, pad)
	if cols.Rank() != 2 || cols.shape[0] != c*kh*kw || cols.shape[1] != n*oh*ow {
		panic(fmt.Sprintf("tensor: Im2ColCMInto dst %v, want [%d %d]", cols.shape, c*kh*kw, n*oh*ow))
	}
	jb := getUnfoldJob(x.data, cols.data, n, c, h, w, kh, kw, stride, pad)
	ParallelFor(c*kh*kw*n, oh*ow, jb.unfoldCM)
	putUnfoldJob(jb)
}

// Col2ImCMInto folds channel-major columns [C*KH*KW, N*OH*OW] into dst
// [N,C,H,W], overwriting it: the adjoint of Im2ColCMInto, and the input
// gradient of the training convolution and PatchEmbed. Work is split by
// (image, channel) plane.
func Col2ImCMInto(dst, cols *Tensor, kh, kw, stride, pad int) {
	n, c, h, w := dst.shape[0], dst.shape[1], dst.shape[2], dst.shape[3]
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(w, kw, stride, pad)
	if cols.Rank() != 2 || cols.shape[0] != c*kh*kw || cols.shape[1] != n*oh*ow {
		panic(fmt.Sprintf("tensor: Col2ImCMInto cols %v for out %v", cols.shape, dst.shape))
	}
	jb := getUnfoldJob(dst.data, cols.data, n, c, h, w, kh, kw, stride, pad)
	ParallelFor(n*c, kh*kw*oh*ow, jb.foldCM)
	putUnfoldJob(jb)
}

// maxPoolJob carries MaxPoolInto's parallel-body state through the pool.
type maxPoolJob struct {
	xd, od              []float32
	arg                 []byte
	h, w, oh, ow, k, st int
	body                func(lo, hi int)
}

var maxPoolJobs = sync.Pool{New: func() any {
	jb := &maxPoolJob{}
	jb.body = jb.run
	return jb
}}

func (jb *maxPoolJob) run(lo, hi int) {
	hw, ohw := jb.h*jb.w, jb.oh*jb.ow
	for nc := lo; nc < hi; nc++ {
		var arg []byte
		if jb.arg != nil {
			arg = jb.arg[nc*ohw:][:ohw]
		}
		MaxPoolPlane(jb.od[nc*ohw:][:ohw], jb.xd[nc*hw:][:hw], jb.h, jb.w, jb.k, jb.st, arg)
	}
}

// MaxPoolInto max-pools x [N,C,H,W] into dst [N,C,OH,OW] with a k×k window
// every stride pixels; ties go to the window's first maximum in row-major
// order. When arg is non-nil (one byte per output element) it receives
// each output's argmax as its offset ky·k+kx in the window, which
// MaxPoolBackward routes gradients through; inference passes nil. It
// allocates nothing.
func MaxPoolInto(dst, x *Tensor, k, stride int, arg []byte) {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	oh, ow := ConvOut(h, k, stride, 0), ConvOut(w, k, stride, 0)
	if dst.Rank() != 4 || dst.shape[0] != n || dst.shape[1] != c || dst.shape[2] != oh || dst.shape[3] != ow {
		panic(fmt.Sprintf("tensor: MaxPoolInto dst %v, want [%d %d %d %d]", dst.shape, n, c, oh, ow))
	}
	if arg != nil && len(arg) != len(dst.data) {
		panic(fmt.Sprintf("tensor: MaxPoolInto arg length %d, want %d", len(arg), len(dst.data)))
	}
	jb := maxPoolJobs.Get().(*maxPoolJob)
	jb.xd, jb.od, jb.arg = x.data, dst.data, arg
	jb.h, jb.w, jb.oh, jb.ow, jb.k, jb.st = h, w, oh, ow, k, stride
	ParallelFor(n*c, h*w, jb.body)
	jb.xd, jb.od, jb.arg = nil, nil, nil
	maxPoolJobs.Put(jb)
}

// MaxPoolBackward scatters gradOut back to the input positions whose
// window offsets MaxPoolInto recorded in arg, for a k×k window every
// stride pixels over an input of inputShape.
func MaxPoolBackward(gradOut *Tensor, arg []byte, inputShape []int, k, stride int) *Tensor {
	gi := New(inputShape...)
	gd, god := gi.data, gradOut.data
	w, oh, ow := inputShape[3], gradOut.shape[2], gradOut.shape[3]
	hw, ohw := inputShape[2]*w, oh*ow
	for pl := 0; pl < len(god)/ohw; pl++ {
		MaxPoolScatter(gd[pl*hw:][:hw], god[pl*ohw:][:ohw], arg[pl*ohw:][:ohw], w, ow, k, stride)
	}
	return gi
}

// MaxPoolScatter adds each g[o] of a pooled plane, OW outputs wide, to dsrc
// (its source plane, w floats wide) at output o's argmax: window offset
// arg[o] of a k×k window every stride pixels. Outputs are added in order,
// so overlapping windows sum a position's gradients as a per-output
// recomputation would. The 2×2 stride-2 window walks its rows without a
// division.
func MaxPoolScatter(dsrc, g []float32, arg []byte, w, ow, k, stride int) {
	if k == 2 && stride == 2 {
		for o0, top := 0, 0; o0 < len(arg); o0, top = o0+ow, top+2*w {
			for ox, a := range arg[o0:][:ow] {
				dsrc[top+2*ox+int(a>>1)*w+int(a&1)] += g[o0+ox]
			}
		}
		return
	}
	for o, a := range arg {
		dsrc[MaxPoolArgPos(o, a, w, ow, k, stride)] += g[o]
	}
}

// MaxPoolArgPos is the offset in the source plane (w floats wide) of output
// o's argmax, window offset a of a k×k window every stride pixels, in a
// pooled plane OW outputs wide.
func MaxPoolArgPos(o int, a byte, w, ow, k, stride int) int {
	return (o/ow*stride+int(a)/k)*w + o%ow*stride + int(a)%k
}

// MaxPoolPlane max-pools one [h, w] plane src into dst [OH, OW]; when arg
// is non-nil it receives each output's argmax as its window offset ky·k+kx
// (a byte, so k is at most 16). It is the one max-pool kernel: MaxPoolInto
// runs it per plane, and the fused conv→BN→ReLU→pool body and the compiled
// plan's conv epilogue run it on the planes they produce. The 2×2 stride-2
// window runs on the bound maxPool2x2 kernel, every other geometry on
// poolWindow; both give the same bits.
func MaxPoolPlane(dst, src []float32, h, w, k, stride int, arg []byte) {
	if arg != nil && k > 16 {
		panic(fmt.Sprintf("tensor: max-pool argmax of a %dx%d window does not fit a byte", k, k))
	}
	oh, ow := ConvOut(h, k, stride, 0), ConvOut(w, k, stride, 0)
	if k == 2 && stride == 2 && h >= 2 && w >= 2 {
		dst, src = dst[:oh*ow], src[:h*w]
		if arg != nil {
			arg = arg[:oh*ow]
		}
		maxPool2x2(dst, src, w, oh, ow, arg)
		return
	}
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			v, i := poolWindow(src, (oy*w+ox)*stride, w, k)
			dst[oy*ow+ox] = v
			if arg != nil {
				arg[oy*ow+ox] = byte(i)
			}
		}
	}
}

// poolWindow returns the maximum of the k×k window whose top-left corner is
// src[off], in a plane w floats wide, and its window offset ky·k+kx: the
// first maximum in row-major order, selected by maxSel. It is the reference
// the 2×2 kernels are held to.
func poolWindow(src []float32, off, w, k int) (float32, int) {
	best, bi := src[off], 0
	for ky := 0; ky < k; ky++ {
		row := off + ky*w
		for kx, v := range src[row : row+k] {
			best, bi = maxSel(best, bi, v, ky*k+kx)
		}
	}
	return best, bi
}

// AvgPoolGlobal averages x [N,C,H,W] over the spatial dims, returning [N,C].
func AvgPoolGlobal(x *Tensor) *Tensor {
	out := New(x.shape[0], x.shape[1])
	AvgPoolGlobalInto(out, x)
	return out
}

// AvgPoolGlobalInto averages x [N,C,H,W] over the spatial dims into a
// caller-provided [N,C] tensor without allocating.
func AvgPoolGlobalInto(dst, x *Tensor) {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	if dst.shape[0] != n || dst.shape[1] != c {
		panic(fmt.Sprintf("tensor: AvgPoolGlobalInto dst %v, want [%d %d]", dst.shape, n, c))
	}
	inv := 1 / float32(h*w)
	for nc := 0; nc < n*c; nc++ {
		var s float32
		for _, v := range x.data[nc*h*w : (nc+1)*h*w] {
			s += v
		}
		dst.data[nc] = s * inv
	}
}

// AvgPoolGlobalBackward spreads gradOut [N,C] uniformly over [N,C,H,W].
func AvgPoolGlobalBackward(gradOut *Tensor, h, w int) *Tensor {
	n, c := gradOut.shape[0], gradOut.shape[1]
	gi := New(n, c, h, w)
	inv := 1 / float32(h*w)
	for nc := 0; nc < n*c; nc++ {
		g := gradOut.data[nc] * inv
		row := gi.data[nc*h*w : (nc+1)*h*w]
		for i := range row {
			row[i] = g
		}
	}
	return gi
}

// interpJob carries InterpolateInto's parallel-body state through the pool.
type interpJob struct {
	xd, od           []float32
	h, w, outH, outW int
	body             func(lo, hi int)
}

var interpJobs = sync.Pool{New: func() any {
	jb := &interpJob{}
	jb.body = jb.run
	return jb
}}

func (jb *interpJob) run(lo, hi int) {
	xd, od := jb.xd, jb.od
	h, w, outH, outW := jb.h, jb.w, jb.outH, jb.outW
	sy := float32(h) / float32(outH)
	sx := float32(w) / float32(outW)
	for nc := lo; nc < hi; nc++ {
		base := nc * h * w
		obase := nc * outH * outW
		for oy := 0; oy < outH; oy++ {
			fy := (float32(oy)+0.5)*sy - 0.5
			y0 := int(fy)
			if fy < 0 {
				fy, y0 = 0, 0
			}
			y1 := y0 + 1
			if y1 >= h {
				y1 = h - 1
			}
			wy := fy - float32(y0)
			for ox := 0; ox < outW; ox++ {
				fx := (float32(ox)+0.5)*sx - 0.5
				x0 := int(fx)
				if fx < 0 {
					fx, x0 = 0, 0
				}
				x1 := x0 + 1
				if x1 >= w {
					x1 = w - 1
				}
				wx := fx - float32(x0)
				v00 := xd[base+y0*w+x0]
				v01 := xd[base+y0*w+x1]
				v10 := xd[base+y1*w+x0]
				v11 := xd[base+y1*w+x1]
				top := v00 + (v01-v00)*wx
				bot := v10 + (v11-v10)*wx
				od[obase+oy*outW+ox] = top + (bot-top)*wy
			}
		}
	}
}

// Interpolate resizes x [N,C,H,W] to [N,C,outH,outW] with bilinear
// interpolation (align_corners=false convention).
func Interpolate(x *Tensor, outH, outW int) *Tensor {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	if outH == h && outW == w {
		return x.Clone()
	}
	out := New(n, c, outH, outW)
	InterpolateInto(out, x)
	return out
}

// InterpolateInto bilinearly resizes x [N,C,H,W] into a caller-provided
// [N,C,outH,outW] tensor without allocating. Identical spatial sizes
// degrade to a copy.
func InterpolateInto(dst, x *Tensor) {
	n, c, h, w := x.shape[0], x.shape[1], x.shape[2], x.shape[3]
	outH, outW := dst.shape[2], dst.shape[3]
	if dst.shape[0] != n || dst.shape[1] != c {
		panic(fmt.Sprintf("tensor: InterpolateInto dst %v for input %v", dst.shape, x.shape))
	}
	if outH == h && outW == w {
		copy(dst.data, x.data)
		return
	}
	jb := interpJobs.Get().(*interpJob)
	jb.xd, jb.od = x.data, dst.data
	jb.h, jb.w, jb.outH, jb.outW = h, w, outH, outW
	ParallelFor(n*c, outH*outW, jb.body)
	jb.xd, jb.od = nil, nil
	interpJobs.Put(jb)
}

// InterpolateTokensInto linearly resamples x [N,T,D] along the token axis
// into a caller-provided [N,outT,D] tensor without allocating (the same
// align_corners=false convention as InterpolateInto). Identical token
// counts degrade to a copy.
func InterpolateTokensInto(dst, x *Tensor) {
	n, t, d := x.shape[0], x.shape[1], x.shape[2]
	outT := dst.shape[1]
	if dst.shape[0] != n || dst.shape[2] != d {
		panic(fmt.Sprintf("tensor: InterpolateTokensInto dst %v for input %v", dst.shape, x.shape))
	}
	if outT == t {
		copy(dst.data, x.data)
		return
	}
	s := float32(t) / float32(outT)
	for ni := 0; ni < n; ni++ {
		for oi := 0; oi < outT; oi++ {
			f := (float32(oi)+0.5)*s - 0.5
			i0 := int(f)
			if f < 0 {
				f, i0 = 0, 0
			}
			i1 := i0 + 1
			if i1 >= t {
				i1 = t - 1
			}
			w := f - float32(i0)
			a := x.data[(ni*t+i0)*d:][:d]
			b := x.data[(ni*t+i1)*d:][:d]
			row := dst.data[(ni*outT+oi)*d:][:d]
			for p := range row {
				row[p] = a[p] + (b[p]-a[p])*w
			}
		}
	}
}

// InterpolateBackward computes the adjoint of Interpolate: it scatters
// gradOut [N,C,outH,outW] back onto the input grid [N,C,H,W].
func InterpolateBackward(gradOut *Tensor, h, w int) *Tensor {
	n, c, outH, outW := gradOut.shape[0], gradOut.shape[1], gradOut.shape[2], gradOut.shape[3]
	gi := New(n, c, h, w)
	if outH == h && outW == w {
		copy(gi.data, gradOut.data)
		return gi
	}
	sy := float32(h) / float32(outH)
	sx := float32(w) / float32(outW)
	gd, god := gi.data, gradOut.data
	ParallelFor(n*c, outH*outW, func(lo, hi int) {
		for nc := lo; nc < hi; nc++ {
			base := nc * h * w
			obase := nc * outH * outW
			for oy := 0; oy < outH; oy++ {
				fy := (float32(oy)+0.5)*sy - 0.5
				y0 := int(fy)
				if fy < 0 {
					fy, y0 = 0, 0
				}
				y1 := y0 + 1
				if y1 >= h {
					y1 = h - 1
				}
				wy := fy - float32(y0)
				for ox := 0; ox < outW; ox++ {
					fx := (float32(ox)+0.5)*sx - 0.5
					x0 := int(fx)
					if fx < 0 {
						fx, x0 = 0, 0
					}
					x1 := x0 + 1
					if x1 >= w {
						x1 = w - 1
					}
					wx := fx - float32(x0)
					g := god[obase+oy*outW+ox]
					gd[base+y0*w+x0] += g * (1 - wy) * (1 - wx)
					gd[base+y0*w+x1] += g * (1 - wy) * wx
					gd[base+y1*w+x0] += g * wy * (1 - wx)
					gd[base+y1*w+x1] += g * wy * wx
				}
			}
		}
	})
	return gi
}
