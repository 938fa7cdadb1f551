package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Rescale2D adapts a shared NCHW feature map to the shape a guest branch
// expects: bilinear interpolation resizes height/width and a trainable 1x1
// convolution adjusts the channel dimension. It is the re-scale operator the
// paper inserts before cross-DNN feature reuse (Section 4.1).
type Rescale2D struct {
	InC, OutC  int
	OutH, OutW int
	Proj       *Conv2d // 1x1 conv, nil when InC == OutC

	inH, inW int
}

// NewRescale2D constructs an adapter from [inC, inH, inW] features to
// [outC, outH, outW] features. The 1x1 projection initializes near identity
// when channel counts match in a prefix so fine-tuning starts close to a
// pass-through.
func NewRescale2D(rng *tensor.RNG, inC, outC, outH, outW int) *Rescale2D {
	r := &Rescale2D{InC: inC, OutC: outC, OutH: outH, OutW: outW}
	if inC != outC {
		r.Proj = NewConv2d(rng, inC, outC, 1, 1, 0)
		// Bias toward a copy of the leading channels to ease fine-tuning.
		w := r.Proj.Weight.Value // [OutC, InC]
		for o := 0; o < outC && o < inC; o++ {
			w.Data()[o*inC+o] += 0.5
		}
	}
	return r
}

// Forward implements Layer.
func (r *Rescale2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != r.InC {
		panic(fmt.Sprintf("nn: Rescale2D(%d->%d) got input %v", r.InC, r.OutC, x.Shape()))
	}
	r.inH, r.inW = x.Dim(2), x.Dim(3)
	out := tensor.Interpolate(x, r.OutH, r.OutW)
	if r.Proj != nil {
		out = r.Proj.Forward(out, train)
	}
	return out
}

// Backward implements Layer.
func (r *Rescale2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	g := gradOut
	if r.Proj != nil {
		g = r.Proj.Backward(g)
	}
	return tensor.InterpolateBackward(g, r.inH, r.inW)
}

// Params implements Layer.
func (r *Rescale2D) Params() []*Param {
	if r.Proj == nil {
		return nil
	}
	return r.Proj.Params()
}

// OutShape implements Layer.
func (r *Rescale2D) OutShape(in []int) []int { return []int{r.OutC, r.OutH, r.OutW} }

// FLOPs implements Layer.
func (r *Rescale2D) FLOPs(in []int) int64 {
	f := 4 * int64(r.OutH*r.OutW) * int64(r.InC)
	if r.Proj != nil {
		f += 2 * int64(r.InC) * int64(r.OutC) * int64(r.OutH*r.OutW)
	}
	return f
}

// Clone implements Layer.
func (r *Rescale2D) Clone() Layer {
	c := &Rescale2D{InC: r.InC, OutC: r.OutC, OutH: r.OutH, OutW: r.OutW}
	if r.Proj != nil {
		c.Proj = r.Proj.Clone().(*Conv2d)
	}
	return c
}

// Name implements Layer.
func (r *Rescale2D) Name() string {
	return fmt.Sprintf("Rescale2D(%d->%d,%dx%d)", r.InC, r.OutC, r.OutH, r.OutW)
}

// RescaleTokens adapts a token tensor [N, T, D] to [N, OutT, OutD]: linear
// interpolation over the token axis and a trainable linear projection over
// the hidden dimension. It is the transformer analogue of Rescale2D; the
// paper notes the "channel" dimension for transformers corresponds to the
// token length.
type RescaleTokens struct {
	InT, InD   int
	OutT, OutD int
	Proj       *Linear // nil when InD == OutD
}

// NewRescaleTokens constructs a token-space adapter.
func NewRescaleTokens(rng *tensor.RNG, inT, inD, outT, outD int) *RescaleTokens {
	r := &RescaleTokens{InT: inT, InD: inD, OutT: outT, OutD: outD}
	if inD != outD {
		r.Proj = NewLinear(rng, inD, outD)
		w := r.Proj.Weight.Value
		for i := 0; i < inD && i < outD; i++ {
			w.Data()[i*outD+i] += 0.5
		}
	}
	return r
}

// Forward implements Layer.
func (r *RescaleTokens) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 3 || x.Dim(1) != r.InT || x.Dim(2) != r.InD {
		panic(fmt.Sprintf("nn: RescaleTokens(%dx%d->%dx%d) got input %v", r.InT, r.InD, r.OutT, r.OutD, x.Shape()))
	}
	out := x
	if r.OutT != r.InT {
		// Interpolate directly along the token axis per feature.
		out = interpTokens(x, r.OutT)
	}
	if r.Proj != nil {
		out = r.Proj.Forward(out, train)
	}
	return out
}

// interpTokens linearly resamples [N,T,D] to [N,outT,D] along T.
func interpTokens(x *tensor.Tensor, outT int) *tensor.Tensor {
	out := tensor.New(x.Dim(0), outT, x.Dim(2))
	tensor.InterpolateTokensInto(out, x)
	return out
}

// interpTokensBackward is the adjoint of interpTokens.
func interpTokensBackward(gradOut *tensor.Tensor, inT int) *tensor.Tensor {
	n, outT, d := gradOut.Dim(0), gradOut.Dim(1), gradOut.Dim(2)
	gi := tensor.New(n, inT, d)
	s := float32(inT) / float32(outT)
	gd, god := gi.Data(), gradOut.Data()
	for ni := 0; ni < n; ni++ {
		for oi := 0; oi < outT; oi++ {
			f := (float32(oi)+0.5)*s - 0.5
			i0 := int(f)
			if f < 0 {
				f, i0 = 0, 0
			}
			i1 := i0 + 1
			if i1 >= inT {
				i1 = inT - 1
			}
			w := f - float32(i0)
			src := god[(ni*outT+oi)*d : (ni*outT+oi+1)*d]
			a := gd[(ni*inT+i0)*d : (ni*inT+i0+1)*d]
			b := gd[(ni*inT+i1)*d : (ni*inT+i1+1)*d]
			for p := 0; p < d; p++ {
				a[p] += src[p] * (1 - w)
				b[p] += src[p] * w
			}
		}
	}
	return gi
}

// Backward implements Layer.
func (r *RescaleTokens) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	g := gradOut
	if r.Proj != nil {
		g = r.Proj.Backward(g)
	}
	if r.OutT != r.InT {
		g = interpTokensBackward(g, r.InT)
	}
	return g
}

// Params implements Layer.
func (r *RescaleTokens) Params() []*Param {
	if r.Proj == nil {
		return nil
	}
	return r.Proj.Params()
}

// OutShape implements Layer.
func (r *RescaleTokens) OutShape(in []int) []int { return []int{r.OutT, r.OutD} }

// FLOPs implements Layer.
func (r *RescaleTokens) FLOPs(in []int) int64 {
	f := 2 * int64(r.OutT) * int64(r.InD)
	if r.Proj != nil {
		f += 2 * int64(r.OutT) * int64(r.InD) * int64(r.OutD)
	}
	return f
}

// Clone implements Layer.
func (r *RescaleTokens) Clone() Layer {
	c := &RescaleTokens{InT: r.InT, InD: r.InD, OutT: r.OutT, OutD: r.OutD}
	if r.Proj != nil {
		c.Proj = r.Proj.Clone().(*Linear)
	}
	return c
}

// Name implements Layer.
func (r *RescaleTokens) Name() string {
	return fmt.Sprintf("RescaleTokens(%dx%d->%dx%d)", r.InT, r.InD, r.OutT, r.OutD)
}
