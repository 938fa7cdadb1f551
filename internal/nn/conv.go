package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Conv2d is a 2-D convolution with optional bias over NCHW tensors. Its
// Forward and Backward run the fused convolution body (fused.go) with an
// empty epilogue; ConvBlock and ResidualBlock run the same body with batch
// norm, ReLU and pooling behind the GEMM.
type Conv2d struct {
	InC, OutC           int
	Kernel, Stride, Pad int
	Weight, Bias        *Param // Weight [OutC, InC*K*K], Bias [OutC]

	// Quant, when non-nil, is the int8 annotation produced by
	// internal/quant; the plan compiler lowers the layer onto the int8
	// kernel. Training-mode Forward/Backward ignore it.
	Quant *Quant8

	// fwd is what the last train-mode forward left for the backward pass.
	fwd convCache
}

// NewConv2d constructs a convolution and initializes its weights with
// Kaiming-uniform scaling from the given RNG.
func NewConv2d(rng *tensor.RNG, inC, outC, kernel, stride, pad int) *Conv2d {
	c := &Conv2d{
		InC: inC, OutC: outC, Kernel: kernel, Stride: stride, Pad: pad,
		Weight: NewParam("weight", outC, inC*kernel*kernel),
		Bias:   NewParam("bias", outC),
	}
	fanIn := float32(inC * kernel * kernel)
	bound := sqrt32(1/fanIn) * sqrt32(3) * sqrt32(2) // kaiming for ReLU
	rng.FillUniform(c.Weight.Value, -bound, bound)
	rng.FillUniform(c.Bias.Value, -bound/4, bound/4)
	return c
}

func sqrt32(v float32) float32 {
	// Newton iterations suffice for init-time use; avoid importing math
	// into the hot path shape of this file... but clarity wins:
	if v <= 0 {
		return 0
	}
	x := v
	for i := 0; i < 20; i++ {
		x = 0.5 * (x + v/x)
	}
	return x
}

// Forward implements Layer.
func (c *Conv2d) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := tensor.New(c.outShape(x, epilogue{})...)
	c.forward(out, x, train, epilogue{})
	return out
}

// Backward implements Layer.
func (c *Conv2d) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	gi := tensor.New(c.fwd.in[:]...)
	c.backward(gradOut, gi)
	return gi
}

// BackwardParams is Backward without the input gradient: it only
// accumulates parameter gradients, skipping the dcols GEMM and the fold.
func (c *Conv2d) BackwardParams(gradOut *tensor.Tensor) { c.backward(gradOut, nil) }

// Params implements Layer.
func (c *Conv2d) Params() []*Param { return []*Param{c.Weight, c.Bias} }

// OutShape implements Layer.
func (c *Conv2d) OutShape(in []int) []int {
	return []int{c.OutC, tensor.ConvOut(in[1], c.Kernel, c.Stride, c.Pad), tensor.ConvOut(in[2], c.Kernel, c.Stride, c.Pad)}
}

// FLOPs implements Layer.
func (c *Conv2d) FLOPs(in []int) int64 {
	out := c.OutShape(in)
	return 2 * int64(c.InC*c.Kernel*c.Kernel) * prod(out)
}

// Clone implements Layer.
func (c *Conv2d) Clone() Layer {
	return &Conv2d{
		InC: c.InC, OutC: c.OutC, Kernel: c.Kernel, Stride: c.Stride, Pad: c.Pad,
		Weight: c.Weight.Clone(), Bias: c.Bias.Clone(), Quant: c.Quant.Clone(),
	}
}

// Name implements Layer.
func (c *Conv2d) Name() string {
	return fmt.Sprintf("Conv2d(%d->%d,k%d,s%d)", c.InC, c.OutC, c.Kernel, c.Stride)
}

// MaxPool2d is 2-D max pooling over NCHW tensors.
type MaxPool2d struct {
	Kernel, Stride int

	// arg is the last train-mode forward's argmax per output element (its
	// window offset), a grow-only buffer the backward routes gradients
	// through.
	arg     []byte
	inShape [4]int
}

// NewMaxPool2d builds a pooling layer with the given kernel and stride.
func NewMaxPool2d(kernel, stride int) *MaxPool2d {
	return &MaxPool2d{Kernel: kernel, Stride: stride}
}

// Forward implements Layer. Only a train-mode forward records the argmax.
func (m *MaxPool2d) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 {
		panic(fmt.Sprintf("nn: MaxPool2d got input %v", x.Shape()))
	}
	out := tensor.New(x.Dim(0), x.Dim(1), tensor.ConvOut(x.Dim(2), m.Kernel, m.Stride, 0), tensor.ConvOut(x.Dim(3), m.Kernel, m.Stride, 0))
	if !train {
		tensor.MaxPoolInto(out, x, m.Kernel, m.Stride, nil)
		return out
	}
	if cap(m.arg) < out.Size() {
		m.arg = make([]byte, out.Size())
	}
	m.arg = m.arg[:out.Size()]
	m.inShape = [4]int(x.Shape())
	tensor.MaxPoolInto(out, x, m.Kernel, m.Stride, m.arg)
	return out
}

// Backward implements Layer.
func (m *MaxPool2d) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	return tensor.MaxPoolBackward(gradOut, m.arg, m.inShape[:], m.Kernel, m.Stride)
}

// Params implements Layer.
func (m *MaxPool2d) Params() []*Param { return nil }

// OutShape implements Layer.
func (m *MaxPool2d) OutShape(in []int) []int {
	return []int{in[0], tensor.ConvOut(in[1], m.Kernel, m.Stride, 0), tensor.ConvOut(in[2], m.Kernel, m.Stride, 0)}
}

// FLOPs implements Layer.
func (m *MaxPool2d) FLOPs(in []int) int64 {
	return prod(m.OutShape(in)) * int64(m.Kernel*m.Kernel)
}

// Clone implements Layer.
func (m *MaxPool2d) Clone() Layer { return &MaxPool2d{Kernel: m.Kernel, Stride: m.Stride} }

// Name implements Layer.
func (m *MaxPool2d) Name() string { return fmt.Sprintf("MaxPool2d(k%d,s%d)", m.Kernel, m.Stride) }

// GlobalAvgPool averages over the spatial dims, [N,C,H,W] -> [N,C].
type GlobalAvgPool struct {
	h, w int
}

// NewGlobalAvgPool builds the pooling layer.
func NewGlobalAvgPool() *GlobalAvgPool { return &GlobalAvgPool{} }

// Forward implements Layer.
func (g *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	g.h, g.w = x.Dim(2), x.Dim(3)
	return tensor.AvgPoolGlobal(x)
}

// Backward implements Layer.
func (g *GlobalAvgPool) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	return tensor.AvgPoolGlobalBackward(gradOut, g.h, g.w)
}

// Params implements Layer.
func (g *GlobalAvgPool) Params() []*Param { return nil }

// OutShape implements Layer.
func (g *GlobalAvgPool) OutShape(in []int) []int { return []int{in[0]} }

// FLOPs implements Layer.
func (g *GlobalAvgPool) FLOPs(in []int) int64 { return prod(in) }

// Clone implements Layer.
func (g *GlobalAvgPool) Clone() Layer { return &GlobalAvgPool{} }

// Name implements Layer.
func (g *GlobalAvgPool) Name() string { return "GlobalAvgPool" }

// Flatten reshapes [N, ...] to [N, prod(...)]. It is a pure view change.
type Flatten struct {
	inShape []int
}

// NewFlatten builds the layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	f.inShape = append([]int(nil), x.Shape()...)
	return x.Reshape(x.Dim(0), -1)
}

// Backward implements Layer.
func (f *Flatten) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	return gradOut.Reshape(f.inShape...)
}

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// OutShape implements Layer.
func (f *Flatten) OutShape(in []int) []int { return []int{int(prod(in))} }

// FLOPs implements Layer.
func (f *Flatten) FLOPs(in []int) int64 { return 0 }

// Clone implements Layer.
func (f *Flatten) Clone() Layer { return &Flatten{} }

// Name implements Layer.
func (f *Flatten) Name() string { return "Flatten" }
