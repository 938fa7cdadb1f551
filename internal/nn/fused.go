package nn

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/tensor"
)

// The fused convolution body. Conv2d, ConvBlock and ResidualBlock all train
// and evaluate through it: tensor.ConvRowsInto writes the convolution as one
// contiguous row of M = N·OH·OW pixels per channel, W[OutC, C·K·K] times the
// input's channel-major columns — an implicit GEMM over a zero-padded copy
// of the input on the shapes it takes, the unfold and the GEMM driver on the
// rest — and the epilogue — bias, batch norm, ReLU, max pool, in that order
// — runs on those rows and writes NCHW. A train-mode forward keeps the
// padded input copy, not the columns, and its pool's argmax as one byte per
// output. The backward runs pool scatter ∘ ReLU mask ∘ BN backward straight
// into the convolution's [OutC, M] output gradient, then
// tensor.ConvWeightGradInto over the padded copy (an implicit GEMM on every
// stride-1 shape, one unfold elsewhere) and tensor.ConvInputGradInto (an
// implicit transposed conv over the padded output gradient where the shape
// allows, the dcols GEMM and the channel-major fold elsewhere).
//
// Per-channel reductions (batch statistics, BN and bias gradients) sum in
// (image, pixel) order and the input gradient sums taps in the fold's
// (oy, ky, kx, ox) order — the orders the layer-by-layer composition
// Conv2d → BatchNorm2d → ReLU → MaxPool2d uses — so on the vector tier,
// whose GEMMs accumulate every element in one ascending-k FMA chain in
// either orientation, the body matches that composition bit for bit
// (TestConvBlockMatchesComposition).
// Elementwise passes run in parallel over (image, channel) planes,
// reductions over channels.

// epilogue is what the fused body runs on the convolution's output rows: an
// optional batch norm, an optional ReLU and an optional max pool.
type epilogue struct {
	bn   *BatchNorm2d
	relu bool
	pool *MaxPool2d
}

// convCache is what a train-mode forward leaves for its backward, all in
// arena leases returned by the backward or by the next train-mode forward:
//   - work: one lease holding the input zero-padded by the layer's padding,
//     [N, C, H+2·pad, W+2·pad], whose columns at pad 0 are the forward's,
//     and sized for tensor.ConvInputGradInto's scratch too: padded dz
//     planes where the input gradient is implicit, the column space
//     [C·K·K, M] where it unfolds. The scratch overwrites the padded input,
//     which the weight gradient has read by then. Leasing it with the
//     forward keeps the body's largest buffer checked out across the step
//     rather than parked in the arena's sync.Pool, where a GC between two
//     steps can drop it;
//   - rows, under a non-empty epilogue: the rows [OutC, M] — x̂ under batch
//     norm, the convolution output before its bias without;
//   - arg, under a pool: each pooled output's argmax as one byte, its
//     offset in the pool window.
//
// No ReLU mask or output copy is kept: the backward recomputes the
// activation from the rows where it needs it, exactly, because γ and β only
// change at the optimizer step.
type convCache struct {
	work, rows *[]float32
	arg        *[]byte
	ep         epilogue
	in         [4]int    // N, C, H, W of the input
	invStd     []float32 // batch norm's per-channel 1/σ of the batch
}

// release returns the cached forward state to the arena.
func (c *Conv2d) release() {
	tensor.PutBuf(c.fwd.work)
	tensor.PutBuf(c.fwd.rows)
	tensor.PutBufU8(c.fwd.arg)
	c.fwd.work, c.fwd.rows, c.fwd.arg = nil, nil, nil
}

// padded rebinds s.srcT to the padded input in the work lease of an
// N×C×H×W input.
func (c *Conv2d) padded(s *convJob, n, h, w int) *tensor.Tensor {
	return s.srcT.Rebind((*c.fwd.work)[:s.padLen], n, c.InC, h+2*c.Pad, w+2*c.Pad)
}

// outShape validates x and returns the NCHW shape the body writes for it
// under ep.
func (c *Conv2d) outShape(x *tensor.Tensor, ep epilogue) []int {
	if x.Rank() != 4 || x.Dim(1) != c.InC {
		panic(fmt.Sprintf("nn: Conv2d(%d->%d) got input %v", c.InC, c.OutC, x.Shape()))
	}
	oh := tensor.ConvOut(x.Dim(2), c.Kernel, c.Stride, c.Pad)
	ow := tensor.ConvOut(x.Dim(3), c.Kernel, c.Stride, c.Pad)
	if ep.pool != nil {
		oh, ow = tensor.ConvOut(oh, ep.pool.Kernel, ep.pool.Stride, 0), tensor.ConvOut(ow, ep.pool.Kernel, ep.pool.Stride, 0)
	}
	return []int{x.Dim(0), c.OutC, oh, ow}
}

// forward runs the body on x into dst, whose shape is outShape(x, ep). In
// train mode it caches what backward needs and uses (and updates) the batch
// statistics; in eval mode it leaves the layer's state untouched.
func (c *Conv2d) forward(dst, x *tensor.Tensor, train bool, ep epilogue) {
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	if train {
		c.release() // a forward without an intervening backward
	}
	s := c.job(n, h, w, ep)
	defer s.put()
	pad := c.Pad
	if train {
		c.fwd.work = tensor.GetBufDirty(max(s.scratch, s.padLen))
		c.fwd.ep, c.fwd.in = ep, [4]int{n, c.InC, h, w}
		src := c.padded(s, n, h, w)
		tensor.PadInto(src, x, pad)
		x, pad = src, 0
		if ep.pool != nil {
			c.fwd.arg = tensor.GetBufU8(n * c.OutC * s.ohw)
			s.arg = *c.fwd.arg
		}
	}
	rowsBuf := tensor.GetBufDirty(c.OutC * s.m)
	tensor.ConvRowsInto(s.rowsT.Rebind(*rowsBuf, c.OutC, s.m), c.Weight.Value, x, c.Kernel, c.Stride, pad)
	s.rows, s.out = *rowsBuf, dst.Data()
	if bn := ep.bn; bn != nil && train {
		tensor.ParallelFor(c.OutC, s.m, s.stats)
		c.fwd.invStd = append(c.fwd.invStd[:0], s.inv...)
	} else if bn != nil {
		copy(s.mean, bn.RunningMean.Data())
		for ch, v := range bn.RunningVar.Data() {
			s.inv[ch] = float32(1 / math.Sqrt(float64(v+bn.Eps)))
		}
	}
	tensor.ParallelFor(n*c.OutC, s.hw, s.fwdPlanes)
	if train && ep != (epilogue{}) {
		c.fwd.rows = rowsBuf
	} else {
		tensor.PutBuf(rowsBuf)
	}
}

// backward runs the body's backward for gradOut (the forward's output
// shape), accumulating parameter gradients. gi, when non-nil, receives the
// gradient with respect to the forward's input; nil skips it.
func (c *Conv2d) backward(gradOut, gi *tensor.Tensor) {
	if c.fwd.work == nil {
		panic(fmt.Sprintf("nn: %s backward without a train-mode forward", c.Name()))
	}
	n, h, w := c.fwd.in[0], c.fwd.in[2], c.fwd.in[3]
	s := c.job(n, h, w, c.fwd.ep)
	defer s.put()
	if gradOut.Size() != n*c.OutC*s.ohw {
		panic(fmt.Sprintf("nn: %s backward got gradient %v for output [%d %d ·%d]", c.Name(), gradOut.Shape(), n, c.OutC, s.ohw))
	}
	dzBuf := tensor.GetBufDirty(c.OutC * s.m)
	if c.fwd.rows != nil {
		s.rows = *c.fwd.rows
	}
	if c.fwd.arg != nil {
		s.arg = *c.fwd.arg
	}
	s.out, s.dz = gradOut.Data(), *dzBuf
	copy(s.inv, c.fwd.invStd)
	s.biasGrad = c.Bias.Grad().Data()
	if bn := s.ep.bn; bn != nil {
		s.gammaGrad, s.betaGrad = bn.Gamma.Grad().Data(), bn.Beta.Grad().Data()
	}
	tensor.ParallelFor(n*c.OutC, s.hw, s.bwdPlanes)
	tensor.ParallelFor(c.OutC, s.m, s.grads)

	// dWᵀ[K, OutC] = cols · dzᵀ over the padded input's columns at pad 0:
	// every element sums the same products in the same order as dz · colsᵀ
	// would, and ConvWeightGradInto's implicit form keeps that order.
	dz := s.dzT.Rebind(*dzBuf, c.OutC, s.m)
	dwBuf := tensor.GetBufDirty(s.k * c.OutC)
	tensor.ConvWeightGradInto(s.dwT.Rebind(*dwBuf, s.k, c.OutC), dz, c.padded(s, n, h, w), c.Kernel, c.Stride, 0)
	wg, dwt := c.Weight.Grad().Data(), *dwBuf
	for o := 0; o < c.OutC; o++ {
		for kk, g := range wg[o*s.k:][:s.k] {
			wg[o*s.k+kk] = g + dwt[kk*c.OutC+o]
		}
	}
	tensor.PutBuf(dwBuf)
	if gi != nil {
		tensor.ConvInputGradInto(gi, c.Weight.Value, dz, (*c.fwd.work)[:s.scratch], c.Kernel, c.Stride, c.Pad)
	}
	c.release()
	tensor.PutBuf(dzBuf)
}

// grow returns v resized to n, reallocating only when its capacity is short.
func grow(v []float32, n int) []float32 {
	if cap(v) < n {
		return make([]float32, n)
	}
	return v[:n]
}

// convJob is one body call's state: the geometry and per-channel constants
// its passes share, views of the [OutC, M] rows, and reusable tensor
// headers for the GEMM operands. Plane p = ni·OutC + ch of the NCHW side is
// row ch's pixels [ni·OH·OW, (ni+1)·OH·OW). Jobs are recycled through a
// sync.Pool with their pass bodies bound once, like the tensor kernels'
// jobs, so a call allocates no closures.
type convJob struct {
	ep           epilogue
	c, k, m      int // channels, C·K·K, row length N·OH·OW
	padLen       int // the padded input's floats, N·C·(H+2·pad)·(W+2·pad)
	scratch      int // the input gradient's working space (ConvInputGradScratch)
	hw, ohw      int // conv plane size, output (pooled) plane size
	oh, ow, pw   int // conv plane extents, pooled plane width
	bias         []float32
	biasGrad     []float32 // backward only, like γ's and β's gradients
	gammaGrad    []float32
	betaGrad     []float32
	mean, inv    []float32 // batch norm's per-channel statistics in use
	rows         []float32 // [OutC, M]
	out          []float32 // NCHW output (forward) or output gradient (backward)
	dz           []float32 // [OutC, M] gradient of the convolution output
	arg          []byte    // pool argmax per output; nil in eval mode
	rowsT        tensor.Tensor
	dzT, dwT     tensor.Tensor
	srcT         tensor.Tensor
	fwdPlanes    func(lo, hi int)
	bwdPlanes    func(lo, hi int)
	stats, grads func(lo, hi int)
}

var convJobs = sync.Pool{New: func() any {
	s := &convJob{}
	s.fwdPlanes, s.bwdPlanes = s.forwardPlanes, s.backwardPlanes
	s.stats, s.grads = s.batchStats, s.channelGrads
	return s
}}

// job leases a convJob set up for an N×H×W input under ep.
func (c *Conv2d) job(n, h, w int, ep epilogue) *convJob {
	s := convJobs.Get().(*convJob)
	s.ep, s.c, s.k = ep, c.OutC, c.InC*c.Kernel*c.Kernel
	s.mean, s.inv = grow(s.mean, c.OutC), grow(s.inv, c.OutC)
	s.bias = c.Bias.Value.Data()
	s.oh, s.ow = tensor.ConvOut(h, c.Kernel, c.Stride, c.Pad), tensor.ConvOut(w, c.Kernel, c.Stride, c.Pad)
	s.hw = s.oh * s.ow
	s.m, s.ohw, s.pw = n*s.hw, s.hw, s.ow
	s.padLen = n * c.InC * (h + 2*c.Pad) * (w + 2*c.Pad)
	s.scratch = tensor.ConvInputGradScratch(n, c.InC, h, w, c.OutC, c.Kernel, c.Stride, c.Pad)
	if ep.pool != nil {
		s.pw = tensor.ConvOut(s.ow, ep.pool.Kernel, ep.pool.Stride, 0)
		s.ohw = tensor.ConvOut(s.oh, ep.pool.Kernel, ep.pool.Stride, 0) * s.pw
	}
	return s
}

// put drops the job's references to layer and arena memory and recycles
// it; its own mean/inv scratch stays with it.
func (s *convJob) put() {
	s.ep, s.bias, s.biasGrad, s.rows, s.out, s.dz, s.arg = epilogue{}, nil, nil, nil, nil, nil, nil
	s.gammaGrad, s.betaGrad = nil, nil
	convJobs.Put(s)
}

// batchStats computes the batch statistics of each channel's biased row in
// [lo, hi) in (image, pixel) order, as BatchNorm2d does, updating the
// running averages. The rows stay unbiased: BNRow adds the bias again.
func (s *convJob) batchStats(lo, hi int) {
	bn := s.ep.bn
	cnt := float32(s.m)
	rm, rv := bn.RunningMean.Data(), bn.RunningVar.Data()
	for ch := lo; ch < hi; ch++ {
		row, b := s.rows[ch*s.m:][:s.m], s.bias[ch]
		var sum, sq float64
		for _, v := range row {
			f := float64(v + b)
			sum += f
			sq += f * f
		}
		mean := float32(sum / float64(cnt))
		variance := float32(sq/float64(cnt)) - mean*mean
		if variance < 0 {
			variance = 0
		}
		s.mean[ch] = mean
		s.inv[ch] = float32(1 / math.Sqrt(float64(variance+bn.Eps)))
		rm[ch] = (1-bn.Momentum)*rm[ch] + bn.Momentum*mean
		rv[ch] = (1-bn.Momentum)*rv[ch] + bn.Momentum*variance
	}
}

// bnAffine is batch norm's output x̂·γ+β as the backward recomputes it, with
// tensor.BNRow's rounding: the float32 conversion keeps the multiply-add
// from fusing.
func bnAffine(xh, gamma, beta float32) float32 { return float32(xh*gamma) + beta }

// forwardPlanes runs the epilogue on planes [lo, hi): bias, normalize, ReLU
// and pool, writing the NCHW output. Under batch norm tensor.BNRow writes x̂
// back into the rows and the activation; without it tensor.BiasRow writes
// the activation and the rows keep the convolution's output.
func (s *convJob) forwardPlanes(lo, hi int) {
	var scratch *[]float32
	if s.ep.pool != nil {
		scratch = tensor.GetBufDirty(s.hw)
	}
	for p := lo; p < hi; p++ {
		ch := p % s.c
		row := s.rows[ch*s.m+p/s.c*s.hw:][:s.hw]
		act := s.out[p*s.ohw:][:s.ohw]
		if scratch != nil {
			act = *scratch
		}
		if bn := s.ep.bn; bn != nil {
			g, be := bn.Gamma.Value.Data()[ch], bn.Beta.Value.Data()[ch]
			tensor.BNRow(act, row, row, s.bias[ch], s.mean[ch], s.inv[ch], g, be, s.ep.relu)
		} else {
			tensor.BiasRow(act, row, s.bias[ch], s.ep.relu)
		}
		if scratch != nil {
			var arg []byte
			if s.arg != nil {
				arg = s.arg[p*s.ohw:][:s.ohw]
			}
			tensor.MaxPoolPlane(s.out[p*s.ohw:][:s.ohw], act, s.oh, s.ow, s.ep.pool.Kernel, s.ep.pool.Stride, arg)
		}
	}
	tensor.PutBuf(scratch)
}

// backwardPlanes routes the output gradient of planes [lo, hi) back through
// pool and ReLU into dz. Under a pool, g scatters onto the forward's argmax
// bytes in output order, and the ReLU mask is applied only at those
// positions, after every add (a position shared by overlapping windows is
// masked once its sum is whole); the rest of dz is zero. Without a pool the
// mask runs over the whole plane. The mask is the sign of the recomputed
// activation the ReLU saw, bnAffine(row, γ, β): x̂·γ+β under batch norm
// (the rows hold x̂), the convolution output plus its bias without (γ 1, β
// the bias).
func (s *convJob) backwardPlanes(lo, hi int) {
	pool := s.ep.pool
	for p := lo; p < hi; p++ {
		ch := p % s.c
		off := ch*s.m + p/s.c*s.hw
		dz, g := s.dz[off:][:s.hw], s.out[p*s.ohw:][:s.ohw]
		var row []float32 // the rows are kept under a non-empty epilogue only
		gam, bet := float32(1), s.bias[ch]
		if s.ep.relu {
			row = s.rows[off:][:s.hw]
		}
		if bn := s.ep.bn; bn != nil {
			gam, bet = bn.Gamma.Value.Data()[ch], bn.Beta.Value.Data()[ch]
		}
		switch {
		case pool != nil:
			arg := s.arg[p*s.ohw:][:s.ohw]
			clear(dz)
			tensor.MaxPoolScatter(dz, g, arg, s.ow, s.pw, pool.Kernel, pool.Stride)
			if !s.ep.relu {
				continue
			}
			if pool.Kernel == 2 && pool.Stride == 2 { // walk the rows, as the scatter does
				for o0, top := 0, 0; o0 < len(arg); o0, top = o0+s.pw, top+2*s.ow {
					for ox, a := range arg[o0:][:s.pw] {
						i := top + 2*ox + int(a>>1)*s.ow + int(a&1)
						dz[i] = keepIfPositive(dz[i], bnAffine(row[i], gam, bet))
					}
				}
				continue
			}
			for o, a := range arg {
				i := tensor.MaxPoolArgPos(o, a, s.ow, s.pw, pool.Kernel, pool.Stride)
				dz[i] = keepIfPositive(dz[i], bnAffine(row[i], gam, bet))
			}
		case s.ep.relu:
			for i, v := range row {
				dz[i] = keepIfPositive(g[i], bnAffine(v, gam, bet))
			}
		default:
			copy(dz, g)
		}
	}
}

// channelGrads finishes each channel's row of dz in [lo, hi): batch norm's
// backward in place, accumulating γ and β gradients, then the
// convolution's bias gradient. Both sums run in (image, pixel) order, as
// BatchNorm2d and a row-major bias sum do.
func (s *convJob) channelGrads(lo, hi int) {
	bn := s.ep.bn
	cnt := float32(s.m)
	for ch := lo; ch < hi; ch++ {
		dz := s.dz[ch*s.m:][:s.m]
		acc := s.biasGrad[ch]
		if bn == nil {
			for _, g := range dz {
				acc += g
			}
			s.biasGrad[ch] = acc
			continue
		}
		xh := s.rows[ch*s.m:][:s.m]
		var sumG, sumGX float64
		for i, g := range dz {
			sumG += float64(g)
			sumGX += float64(g) * float64(xh[i])
		}
		s.gammaGrad[ch] += float32(sumGX)
		s.betaGrad[ch] += float32(sumG)
		mg, mgx := float32(sumG)/cnt, float32(sumGX)/cnt
		gs := bn.Gamma.Value.Data()[ch] * s.inv[ch]
		for i, g := range dz {
			d := gs * (g - mg - xh[i]*mgx)
			dz[i] = d
			acc += d
		}
		s.biasGrad[ch] = acc
	}
}
