package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Linear is a fully connected layer y = xW + b over [N, In] inputs.
// For 3-D token inputs [N, T, D] it applies per token.
type Linear struct {
	In, Out      int
	Weight, Bias *Param // Weight [In, Out], Bias [Out]

	// Quant, when non-nil, is the int8 annotation produced by
	// internal/quant (W stored transposed, [Out, In]); the plan compiler
	// lowers the layer onto the int8 kernel.
	Quant *Quant8

	in      *tensor.Tensor // cached flattened input [rows, In]
	inShape []int
}

// NewLinear constructs a linear layer with Xavier-uniform initialization.
func NewLinear(rng *tensor.RNG, in, out int) *Linear {
	l := &Linear{In: in, Out: out, Weight: NewParam("weight", in, out), Bias: NewParam("bias", out)}
	xavier(rng, l.Weight.Value, in, out)
	return l
}

// xavier fills an in×out weight with Xavier-uniform values.
func xavier(rng *tensor.RNG, w *tensor.Tensor, in, out int) {
	bound := sqrt32(6 / float32(in+out))
	rng.FillUniform(w, -bound, bound)
}

func (l *Linear) flatten(x *tensor.Tensor) *tensor.Tensor {
	if x.Rank() == 2 {
		return x
	}
	return x.Reshape(-1, l.In)
}

// Forward implements Layer.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.inShape = append([]int(nil), x.Shape()...)
	xf := l.flatten(x)
	if xf.Dim(1) != l.In {
		panic(fmt.Sprintf("nn: Linear(%d->%d) got input %v", l.In, l.Out, x.Shape()))
	}
	l.in = xf
	rows := xf.Dim(0)
	out := tensor.New(rows, l.Out)
	tensor.MatMulInto(out, xf, l.Weight.Value)
	bd := l.Bias.Value.Data()
	od := out.Data()
	for r := 0; r < rows; r++ {
		row := od[r*l.Out : (r+1)*l.Out]
		for j := range row {
			row[j] += bd[j]
		}
	}
	if len(l.inShape) == 3 {
		return out.Reshape(l.inShape[0], l.inShape[1], l.Out)
	}
	return out
}

// Backward implements Layer.
func (l *Linear) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	g := gradOut
	if g.Rank() != 2 {
		g = g.Reshape(-1, l.Out)
	}
	rows := g.Dim(0)
	// dW += xᵀ @ g
	dw := tensor.New(l.In, l.Out)
	tensor.MatMulTransAInto(dw, l.in, g)
	l.Weight.Grad().AddScaled(1, dw)
	// dB += column sums
	bg := l.Bias.Grad().Data()
	gd := g.Data()
	for r := 0; r < rows; r++ {
		row := gd[r*l.Out : (r+1)*l.Out]
		for j, v := range row {
			bg[j] += v
		}
	}
	// dX = g @ Wᵀ
	gi := tensor.New(rows, l.In)
	tensor.MatMulTransBInto(gi, g, l.Weight.Value)
	l.in = nil
	return gi.Reshape(l.inShape...)
}

// Params implements Layer.
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// OutShape implements Layer.
func (l *Linear) OutShape(in []int) []int {
	if len(in) == 2 { // tokens [T, D] -> [T, Out]
		return []int{in[0], l.Out}
	}
	return []int{l.Out}
}

// FLOPs implements Layer.
func (l *Linear) FLOPs(in []int) int64 {
	rows := int64(1)
	if len(in) == 2 {
		rows = int64(in[0])
	}
	return 2 * rows * int64(l.In) * int64(l.Out)
}

// Clone implements Layer.
func (l *Linear) Clone() Layer {
	return &Linear{In: l.In, Out: l.Out, Weight: l.Weight.Clone(), Bias: l.Bias.Clone(), Quant: l.Quant.Clone()}
}

// Name implements Layer.
func (l *Linear) Name() string { return fmt.Sprintf("Linear(%d->%d)", l.In, l.Out) }

// ReLU is the elementwise rectifier. It keeps no mask: out > 0 exactly
// where x > 0, so the backward reads the cached output.
type ReLU struct {
	out *tensor.Tensor // the last train-mode output
}

// NewReLU builds the activation.
func NewReLU() *ReLU { return &ReLU{} }

// Forward implements Layer.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := tensor.New(x.Shape()...)
	addReLU(out, x, nil)
	if train {
		r.out = out
	}
	return out
}

// Backward implements Layer.
func (r *ReLU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	gi := tensor.New(gradOut.Shape()...)
	reluGrad(gi, gradOut, r.out)
	return gi
}

// addReLU writes dst = max(a + b, 0) elementwise, or max(a, 0) when b is
// nil, in parallel chunks.
func addReLU(dst, a, b *tensor.Tensor) {
	d, x := dst.Data(), a.Data()
	var y []float32
	if b != nil {
		y = b.Data()
	}
	if len(x) != len(d) || (y != nil && len(y) != len(d)) {
		panic(fmt.Sprintf("nn: addReLU sizes %d, %d, %d", len(d), len(x), len(y)))
	}
	tensor.ParallelFor(len(d), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := x[i]
			if y != nil {
				v += y[i]
			}
			d[i] = relu32(v)
		}
	})
}

// reluGrad writes dst = g where out > 0 and 0 elsewhere: the rectifier's
// backward, masked by its own output.
func reluGrad(dst, g, out *tensor.Tensor) {
	d, gd, od := dst.Data(), g.Data(), out.Data()
	if len(gd) != len(d) || len(od) != len(d) {
		panic(fmt.Sprintf("nn: ReLU backward got gradient %v for output %v", g.Shape(), out.Shape()))
	}
	tensor.ParallelFor(len(d), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			d[i] = keepIfPositive(gd[i], od[i])
		}
	})
}

// relu32 is the rectifier a > 0 ? a : +0 (zero, negatives and NaN all map
// to +0), computed on the bits so the compiler emits a conditional move:
// activations are about half negative in no pattern a branch predictor can
// learn, and the branchy form mispredicts on every other element.
func relu32(a float32) float32 {
	return keepIfPositive(a, a)
}

// keepIfPositive returns v where a > 0 and +0 elsewhere (a zero, negative or
// NaN), branch-free like relu32: the rectifier's backward mask.
func keepIfPositive(v, a float32) float32 {
	b := math.Float32bits(v)
	// a > 0 exactly when its bits lie in [1, 0x7f800000]: positive
	// subnormals through +Inf; +0, the sign bit and NaNs fall outside.
	if math.Float32bits(a)-1 >= 0x7f800000 {
		b = 0
	}
	return math.Float32frombits(b)
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// OutShape implements Layer.
func (r *ReLU) OutShape(in []int) []int { return append([]int(nil), in...) }

// FLOPs implements Layer.
func (r *ReLU) FLOPs(in []int) int64 { return prod(in) }

// Clone implements Layer.
func (r *ReLU) Clone() Layer { return &ReLU{} }

// Name implements Layer.
func (r *ReLU) Name() string { return "ReLU" }

// GELU is the Gaussian error linear unit (tanh approximation), used by the
// transformer blocks.
type GELU struct {
	in *tensor.Tensor
}

// NewGELU builds the activation.
func NewGELU() *GELU { return &GELU{} }

// Forward implements Layer.
func (g *GELU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	g.in = x
	out := tensor.New(x.Shape()...)
	xd, od := x.Data(), out.Data()
	tensor.ParallelFor(len(xd), tensor.GELUWork, func(lo, hi int) { tensor.GELURow(od[lo:hi], xd[lo:hi]) })
	return out
}

// Backward implements Layer.
func (g *GELU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	gi := tensor.New(gradOut.Shape()...)
	xd, gd, god := g.in.Data(), gi.Data(), gradOut.Data()
	tensor.ParallelFor(len(gd), tensor.GELUWork, func(lo, hi int) { tensor.GELUGradRow(gd[lo:hi], god[lo:hi], xd[lo:hi]) })
	g.in = nil
	return gi
}

// Params implements Layer.
func (g *GELU) Params() []*Param { return nil }

// OutShape implements Layer.
func (g *GELU) OutShape(in []int) []int { return append([]int(nil), in...) }

// FLOPs implements Layer.
func (g *GELU) FLOPs(in []int) int64 { return 8 * prod(in) }

// Clone implements Layer.
func (g *GELU) Clone() Layer { return &GELU{} }

// Name implements Layer.
func (g *GELU) Name() string { return "GELU" }
