package nn

import (
	"math"

	"repro/internal/tensor"
)

// Adam implements the Adam optimizer (Kingma & Ba), the optimizer used in
// the paper's fine-tuning configuration.
type Adam struct {
	LR, Beta1, Beta2, Eps float32
	WeightDecay           float32

	params []*Param
	m, v   []*tensor.Tensor
	step   int
}

// NewAdam builds an Adam optimizer over the given parameters, allocating
// each one's gradient.
func NewAdam(params []*Param, lr float32) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, params: params}
	a.m = make([]*tensor.Tensor, len(params))
	a.v = make([]*tensor.Tensor, len(params))
	for i, p := range params {
		p.Grad()
		a.m[i] = tensor.New(p.Value.Shape()...)
		a.v[i] = tensor.New(p.Value.Shape()...)
	}
	return a
}

// Step applies one update from the accumulated gradients and leaves them
// untouched.
func (a *Adam) Step() {
	a.step++
	bc1 := 1 - pow32(a.Beta1, a.step)
	bc2 := 1 - pow32(a.Beta2, a.step)
	for i, p := range a.params {
		pd, gd := p.Value.Data(), p.grad.Data()
		md, vd := a.m[i].Data(), a.v[i].Data()
		for j := range pd {
			g := gd[j]
			if a.WeightDecay != 0 {
				g += a.WeightDecay * pd[j]
			}
			md[j] = a.Beta1*md[j] + (1-a.Beta1)*g
			vd[j] = a.Beta2*vd[j] + (1-a.Beta2)*g*g
			mhat := md[j] / bc1
			vhat := vd[j] / bc2
			pd[j] -= a.LR * mhat / (float32(math.Sqrt(float64(vhat))) + a.Eps)
		}
	}
}

// ZeroGrad clears every managed gradient.
func (a *Adam) ZeroGrad() {
	for _, p := range a.params {
		p.ZeroGrad()
	}
}

func pow32(b float32, n int) float32 {
	r := float32(1)
	for i := 0; i < n; i++ {
		r *= b
	}
	return r
}
