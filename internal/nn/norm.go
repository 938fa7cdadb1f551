package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// BatchNorm2d normalizes each channel of an NCHW tensor. Training mode uses
// batch statistics and updates exponential running averages; evaluation mode
// uses the running averages.
type BatchNorm2d struct {
	C        int
	Eps      float32
	Momentum float32

	Gamma, Beta             *Param
	RunningMean, RunningVar *tensor.Tensor

	// forward cache: x̂ is an arena lease, returned by Backward or by the
	// next Forward.
	xhat      *[]float32
	invStd    []float32
	inShape   [4]int
	trainMode bool
}

// NewBatchNorm2d constructs a batch norm over c channels.
func NewBatchNorm2d(c int) *BatchNorm2d {
	bn := &BatchNorm2d{
		C: c, Eps: 1e-5, Momentum: 0.1,
		Gamma: NewParam("gamma", c), Beta: NewParam("beta", c),
		RunningMean: tensor.New(c), RunningVar: tensor.New(c),
	}
	for i := range bn.Gamma.Value.Data() {
		bn.Gamma.Value.Data()[i] = 1
		bn.RunningVar.Data()[i] = 1
	}
	return bn
}

// Forward implements Layer.
func (bn *BatchNorm2d) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != bn.C {
		panic(fmt.Sprintf("nn: BatchNorm2d(%d) got input %v", bn.C, x.Shape()))
	}
	n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	cnt := float32(n * h * w)
	bn.inShape = [4]int(x.Shape())
	bn.trainMode = train
	out := tensor.New(x.Shape()...)
	xd, od := x.Data(), out.Data()
	gd, bd := bn.Gamma.Value.Data(), bn.Beta.Value.Data()
	tensor.PutBuf(bn.xhat) // a forward without an intervening backward
	bn.xhat = tensor.GetBufDirty(x.Size())
	xh := *bn.xhat

	if !train {
		for c := 0; c < bn.C; c++ {
			mean := bn.RunningMean.Data()[c]
			inv := float32(1 / math.Sqrt(float64(bn.RunningVar.Data()[c]+bn.Eps)))
			g, b := gd[c], bd[c]
			for ni := 0; ni < n; ni++ {
				base := (ni*bn.C + c) * h * w
				for i := 0; i < h*w; i++ {
					xv := (xd[base+i] - mean) * inv
					xh[base+i] = xv
					od[base+i] = xv*g + b
				}
			}
		}
		return out
	}

	if len(bn.invStd) != bn.C {
		bn.invStd = make([]float32, bn.C)
	}
	for c := 0; c < bn.C; c++ {
		var sum, sq float64
		for ni := 0; ni < n; ni++ {
			base := (ni*bn.C + c) * h * w
			for i := 0; i < h*w; i++ {
				v := float64(xd[base+i])
				sum += v
				sq += v * v
			}
		}
		mean := float32(sum / float64(cnt))
		variance := float32(sq/float64(cnt)) - mean*mean
		if variance < 0 {
			variance = 0
		}
		inv := float32(1 / math.Sqrt(float64(variance+bn.Eps)))
		bn.invStd[c] = inv
		bn.RunningMean.Data()[c] = (1-bn.Momentum)*bn.RunningMean.Data()[c] + bn.Momentum*mean
		bn.RunningVar.Data()[c] = (1-bn.Momentum)*bn.RunningVar.Data()[c] + bn.Momentum*variance
		g, b := gd[c], bd[c]
		for ni := 0; ni < n; ni++ {
			base := (ni*bn.C + c) * h * w
			for i := 0; i < h*w; i++ {
				xv := (xd[base+i] - mean) * inv
				xh[base+i] = xv
				od[base+i] = xv*g + b
			}
		}
	}
	return out
}

// Backward implements Layer.
func (bn *BatchNorm2d) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if !bn.trainMode {
		// Eval-mode backward treats running stats as constants.
		n, h, w := bn.inShape[0], bn.inShape[2], bn.inShape[3]
		gi := tensor.New(bn.inShape[:]...)
		gd, god, xh := gi.Data(), gradOut.Data(), *bn.xhat
		gg, bg := bn.Gamma.Grad().Data(), bn.Beta.Grad().Data()
		for c := 0; c < bn.C; c++ {
			scale := bn.Gamma.Value.Data()[c] * float32(1/math.Sqrt(float64(bn.RunningVar.Data()[c]+bn.Eps)))
			for ni := 0; ni < n; ni++ {
				base := (ni*bn.C + c) * h * w
				for i := 0; i < h*w; i++ {
					g := god[base+i]
					gd[base+i] = g * scale
					gg[c] += g * xh[base+i]
					bg[c] += g
				}
			}
		}
		tensor.PutBuf(bn.xhat)
		bn.xhat = nil
		return gi
	}
	n, h, w := bn.inShape[0], bn.inShape[2], bn.inShape[3]
	cnt := float32(n * h * w)
	gi := tensor.New(bn.inShape[:]...)
	gd, god, xh := gi.Data(), gradOut.Data(), *bn.xhat
	gg, bg := bn.Gamma.Grad().Data(), bn.Beta.Grad().Data()
	for c := 0; c < bn.C; c++ {
		var sumG, sumGX float64
		for ni := 0; ni < n; ni++ {
			base := (ni*bn.C + c) * h * w
			for i := 0; i < h*w; i++ {
				g := float64(god[base+i])
				sumG += g
				sumGX += g * float64(xh[base+i])
			}
		}
		gg[c] += float32(sumGX)
		bg[c] += float32(sumG)
		gamma := bn.Gamma.Value.Data()[c]
		inv := bn.invStd[c]
		mg := float32(sumG) / cnt
		mgx := float32(sumGX) / cnt
		for ni := 0; ni < n; ni++ {
			base := (ni*bn.C + c) * h * w
			for i := 0; i < h*w; i++ {
				gd[base+i] = gamma * inv * (god[base+i] - mg - xh[base+i]*mgx)
			}
		}
	}
	tensor.PutBuf(bn.xhat)
	bn.xhat = nil
	return gi
}

// Params implements Layer.
func (bn *BatchNorm2d) Params() []*Param { return []*Param{bn.Gamma, bn.Beta} }

// StateTensors implements Stater: the running statistics are not trainable
// but are part of the trained model (evaluation-mode forward reads them), so
// weight transfer between graphs must carry them along.
func (bn *BatchNorm2d) StateTensors() []*tensor.Tensor {
	return []*tensor.Tensor{bn.RunningMean, bn.RunningVar}
}

// OutShape implements Layer.
func (bn *BatchNorm2d) OutShape(in []int) []int { return append([]int(nil), in...) }

// FLOPs implements Layer.
func (bn *BatchNorm2d) FLOPs(in []int) int64 { return 4 * prod(in) }

// Clone implements Layer.
func (bn *BatchNorm2d) Clone() Layer {
	c := &BatchNorm2d{
		C: bn.C, Eps: bn.Eps, Momentum: bn.Momentum,
		Gamma: bn.Gamma.Clone(), Beta: bn.Beta.Clone(),
		RunningMean: bn.RunningMean.Clone(), RunningVar: bn.RunningVar.Clone(),
	}
	return c
}

// Name implements Layer.
func (bn *BatchNorm2d) Name() string { return fmt.Sprintf("BatchNorm2d(%d)", bn.C) }

// LayerNorm normalizes the last dimension of a [..., D] tensor, as used in
// transformer blocks.
type LayerNorm struct {
	D   int
	Eps float32

	Gamma, Beta *Param

	xhat    *tensor.Tensor
	invStd  []float32
	inShape []int
}

// NewLayerNorm constructs a layer norm over feature size d.
func NewLayerNorm(d int) *LayerNorm {
	ln := &LayerNorm{D: d, Eps: 1e-5, Gamma: NewParam("gamma", d), Beta: NewParam("beta", d)}
	for i := range ln.Gamma.Value.Data() {
		ln.Gamma.Value.Data()[i] = 1
	}
	return ln
}

// Forward implements Layer.
func (ln *LayerNorm) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dim(x.Rank()-1) != ln.D {
		panic(fmt.Sprintf("nn: LayerNorm(%d) got input %v", ln.D, x.Shape()))
	}
	rows := x.Size() / ln.D
	ln.inShape = append([]int(nil), x.Shape()...)
	ln.xhat = tensor.New(x.Shape()...)
	if len(ln.invStd) != rows {
		ln.invStd = make([]float32, rows)
	}
	out := tensor.New(x.Shape()...)
	xd, od, xh := x.Data(), out.Data(), ln.xhat.Data()
	d := ln.D
	tensor.ParallelFor(rows, d, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			ln.invStd[r] = tensor.LayerNormRow(od[r*d:][:d], xh[r*d:][:d], xd[r*d:][:d],
				ln.Gamma.Value.Data(), ln.Beta.Value.Data(), ln.Eps)
		}
	})
	return out
}

// Backward implements Layer.
func (ln *LayerNorm) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	rows := gradOut.Size() / ln.D
	gi := tensor.New(ln.inShape...)
	gd, god, xh := gi.Data(), gradOut.Data(), ln.xhat.Data()
	gg, bg := ln.Gamma.Grad().Data(), ln.Beta.Grad().Data()
	gv := ln.Gamma.Value.Data()
	invD := 1 / float32(ln.D)
	for r := 0; r < rows; r++ {
		var sumG, sumGX float32
		base := r * ln.D
		for i := 0; i < ln.D; i++ {
			g := god[base+i] * gv[i]
			sumG += g
			sumGX += g * xh[base+i]
			gg[i] += god[base+i] * xh[base+i]
			bg[i] += god[base+i]
		}
		inv := ln.invStd[r]
		for i := 0; i < ln.D; i++ {
			g := god[base+i] * gv[i]
			gd[base+i] = inv * (g - sumG*invD - xh[base+i]*sumGX*invD)
		}
	}
	ln.xhat = nil
	return gi
}

// Params implements Layer.
func (ln *LayerNorm) Params() []*Param { return []*Param{ln.Gamma, ln.Beta} }

// OutShape implements Layer.
func (ln *LayerNorm) OutShape(in []int) []int { return append([]int(nil), in...) }

// FLOPs implements Layer.
func (ln *LayerNorm) FLOPs(in []int) int64 { return 6 * prod(in) }

// Clone implements Layer.
func (ln *LayerNorm) Clone() Layer {
	return &LayerNorm{D: ln.D, Eps: ln.Eps, Gamma: ln.Gamma.Clone(), Beta: ln.Beta.Clone()}
}

// Name implements Layer.
func (ln *LayerNorm) Name() string { return fmt.Sprintf("LayerNorm(%d)", ln.D) }
