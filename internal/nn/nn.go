// Package nn implements the differentiable layers, optimizer, and loss
// functions GMorph needs: convolutional blocks (Conv2d, BatchNorm2d,
// MaxPool), transformer blocks (LayerNorm, multi-head attention), linear
// heads, the Rescale adapters inserted by graph mutation, Adam, and the
// L1/cross-entropy losses used for distillation fine-tuning and teacher
// pre-training.
//
// Every layer caches what its backward pass needs during a train-mode
// Forward; Backward consumes that cache, accumulates parameter gradients
// into Param.Grad, and returns the gradient with respect to the layer input.
// The convolution layers (Conv2d, ConvBlock, ResidualBlock) share one fused
// conv→BN→ReLU→pool body (fused.go). Its train-mode forward keeps, in arena
// leases, the zero-padded input copy, the pre-activation rows and one
// argmax byte per pooled output; the backward recomputes the ReLU mask from
// the rows.
package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Param is a trainable tensor together with its gradient accumulator.
type Param struct {
	Name  string
	Value *tensor.Tensor
	grad  *tensor.Tensor // nil until Grad first asks for it
}

// NewParam allocates a parameter with the given shape.
func NewParam(name string, shape ...int) *Param {
	return &Param{Name: name, Value: tensor.New(shape...)}
}

// Grad returns the gradient accumulator, allocating a zeroed one on first
// use, so a model that only ever runs forward holds no gradient memory.
// The first call is not safe for concurrent use: backward paths call it
// before they fan out, never inside a tensor.ParallelFor body.
func (p *Param) Grad() *tensor.Tensor {
	if p.grad == nil {
		p.grad = tensor.New(p.Value.Shape()...)
	}
	return p.grad
}

// ZeroGrad clears the accumulated gradient, if one was ever allocated.
func (p *Param) ZeroGrad() {
	if p.grad != nil {
		p.grad.Zero()
	}
}

// Clone deep-copies the parameter; the copy has no gradient yet.
func (p *Param) Clone() *Param {
	return &Param{Name: p.Name, Value: p.Value.Clone()}
}

// Layer is a differentiable computation block. Forward must be called
// before Backward; Backward may be called at most once per Forward.
type Layer interface {
	// Forward computes the layer output for a batched input. train selects
	// training behaviour (e.g. batch statistics in BatchNorm).
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward takes dLoss/dOutput and returns dLoss/dInput, accumulating
	// parameter gradients.
	Backward(gradOut *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's trainable parameters (possibly empty).
	Params() []*Param
	// OutShape maps a per-sample input shape (no batch dim) to the
	// per-sample output shape.
	OutShape(in []int) []int
	// FLOPs estimates the floating point operations for one sample with
	// the given per-sample input shape.
	FLOPs(in []int) int64
	// Clone returns a deep copy, including parameter values.
	Clone() Layer
	// Name returns a short human-readable identifier.
	Name() string
}

// Stater is implemented by layers carrying trained state outside Params()
// — batch-norm running statistics. Weight-transfer code (graph
// InheritWeights) copies state tensors alongside parameters; layers without
// such state simply don't implement the interface.
type Stater interface {
	// StateTensors returns the layer's non-trainable trained state.
	StateTensors() []*tensor.Tensor
}

// StateTensors returns a layer's trained non-parameter state, or nil when
// the layer (and, for composites, none of its children) has any.
func StateTensors(l Layer) []*tensor.Tensor {
	if s, ok := l.(Stater); ok {
		return s.StateTensors()
	}
	return nil
}

// shapeEq reports whether two per-sample shapes are identical.
func shapeEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// prod multiplies the entries of a shape.
func prod(s []int) int64 {
	n := int64(1)
	for _, d := range s {
		n *= int64(d)
	}
	return n
}

// Sequential chains layers, feeding each output to the next.
type Sequential struct {
	ID     string
	Layers []Layer
}

// NewSequential builds a Sequential with the given identifier and layers.
func NewSequential(id string, layers ...Layer) *Sequential {
	return &Sequential{ID: id, Layers: layers}
}

// Forward implements Layer.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x, train)
	}
	return x
}

// Backward implements Layer.
func (s *Sequential) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		gradOut = s.Layers[i].Backward(gradOut)
	}
	return gradOut
}

// Params implements Layer.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// OutShape implements Layer.
func (s *Sequential) OutShape(in []int) []int {
	for _, l := range s.Layers {
		in = l.OutShape(in)
	}
	return in
}

// FLOPs implements Layer.
func (s *Sequential) FLOPs(in []int) int64 {
	var f int64
	for _, l := range s.Layers {
		f += l.FLOPs(in)
		in = l.OutShape(in)
	}
	return f
}

// StateTensors implements Stater, aggregating child-layer state in layer
// order.
func (s *Sequential) StateTensors() []*tensor.Tensor {
	var ts []*tensor.Tensor
	for _, l := range s.Layers {
		ts = append(ts, StateTensors(l)...)
	}
	return ts
}

// Clone implements Layer.
func (s *Sequential) Clone() Layer {
	ls := make([]Layer, len(s.Layers))
	for i, l := range s.Layers {
		ls[i] = l.Clone()
	}
	return &Sequential{ID: s.ID, Layers: ls}
}

// Name implements Layer.
func (s *Sequential) Name() string {
	if s.ID != "" {
		return s.ID
	}
	return fmt.Sprintf("Sequential(%d)", len(s.Layers))
}
