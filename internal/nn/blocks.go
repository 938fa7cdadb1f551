package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// ConvBlock is the VGG-style unit: Conv2d + optional BatchNorm + ReLU +
// optional MaxPool. One ConvBlock is one abstract-graph node, and it trains
// and evaluates as one fused body (fused.go).
type ConvBlock struct {
	Conv *Conv2d
	BN   *BatchNorm2d // optional
	Pool *MaxPool2d   // optional
}

// NewConvBlock builds a 3x3 stride-1 pad-1 VGG block. withPool appends a
// 2x2 max pool; withBN inserts batch normalization.
func NewConvBlock(rng *tensor.RNG, inC, outC int, withBN, withPool bool) *ConvBlock {
	b := &ConvBlock{Conv: NewConv2d(rng, inC, outC, 3, 1, 1)}
	if withBN {
		b.BN = NewBatchNorm2d(outC)
	}
	if withPool {
		b.Pool = NewMaxPool2d(2, 2)
	}
	return b
}

func (b *ConvBlock) epilogue() epilogue { return epilogue{bn: b.BN, relu: true, pool: b.Pool} }

// Forward implements Layer.
func (b *ConvBlock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := tensor.New(b.Conv.outShape(x, b.epilogue())...)
	b.Conv.forward(out, x, train, b.epilogue())
	return out
}

// Backward implements Layer.
func (b *ConvBlock) Backward(g *tensor.Tensor) *tensor.Tensor {
	gi := tensor.New(b.Conv.fwd.in[:]...)
	b.Conv.backward(g, gi)
	return gi
}

// BackwardParams is Backward without the input gradient.
func (b *ConvBlock) BackwardParams(g *tensor.Tensor) { b.Conv.backward(g, nil) }

// Params implements Layer.
func (b *ConvBlock) Params() []*Param {
	ps := b.Conv.Params()
	if b.BN != nil {
		ps = append(ps, b.BN.Params()...)
	}
	return ps
}

// StateTensors implements Stater.
func (b *ConvBlock) StateTensors() []*tensor.Tensor {
	if b.BN == nil {
		return nil
	}
	return b.BN.StateTensors()
}

// OutShape implements Layer.
func (b *ConvBlock) OutShape(in []int) []int {
	out := b.Conv.OutShape(in)
	if b.Pool != nil {
		out = b.Pool.OutShape(out)
	}
	return out
}

// FLOPs implements Layer.
func (b *ConvBlock) FLOPs(in []int) int64 {
	f := b.Conv.FLOPs(in)
	mid := b.Conv.OutShape(in)
	if b.BN != nil {
		f += b.BN.FLOPs(mid)
	}
	f += prod(mid)
	if b.Pool != nil {
		f += b.Pool.FLOPs(mid)
	}
	return f
}

// Clone implements Layer.
func (b *ConvBlock) Clone() Layer {
	c := &ConvBlock{Conv: b.Conv.Clone().(*Conv2d)}
	if b.BN != nil {
		c.BN = b.BN.Clone().(*BatchNorm2d)
	}
	if b.Pool != nil {
		c.Pool = b.Pool.Clone().(*MaxPool2d)
	}
	return c
}

// Name implements Layer.
func (b *ConvBlock) Name() string {
	suffix := ""
	if b.Pool != nil {
		suffix = "+Pool"
	}
	return fmt.Sprintf("ConvBlock(%d->%d%s)", b.Conv.InC, b.Conv.OutC, suffix)
}

// ResidualBlock is the ResNet basic block: two 3x3 convolutions with batch
// norm plus an identity (or 1x1 downsample) skip connection. One block is
// one abstract-graph node. Each conv→BN pair runs as one fused body
// (Conv1 with the first ReLU fused in); the add and the final ReLU follow.
type ResidualBlock struct {
	Conv1, Conv2 *Conv2d
	BN1, BN2     *BatchNorm2d
	Down         *Conv2d      // nil for identity skip
	DownBN       *BatchNorm2d // paired with Down

	// out is the last train-mode output: out > 0 is the final ReLU's mask.
	out *tensor.Tensor
}

// NewResidualBlock builds a basic block. stride 2 (or inC != outC) adds a
// projection shortcut.
func NewResidualBlock(rng *tensor.RNG, inC, outC, stride int) *ResidualBlock {
	b := &ResidualBlock{
		Conv1: NewConv2d(rng, inC, outC, 3, stride, 1),
		Conv2: NewConv2d(rng, outC, outC, 3, 1, 1),
		BN1:   NewBatchNorm2d(outC), BN2: NewBatchNorm2d(outC),
	}
	if stride != 1 || inC != outC {
		b.Down = NewConv2d(rng, inC, outC, 1, stride, 0)
		b.DownBN = NewBatchNorm2d(outC)
	}
	return b
}

// Forward implements Layer. The two intermediate activations and the
// projected skip are arena scratch: the convolutions that read them keep
// their own columns.
func (b *ResidualBlock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	ep1, ep2 := epilogue{bn: b.BN1, relu: true}, epilogue{bn: b.BN2}
	h1, h1Buf := tensor.GetTensorDirty(b.Conv1.outShape(x, ep1)...)
	b.Conv1.forward(h1, x, train, ep1)
	h2, h2Buf := tensor.GetTensorDirty(b.Conv2.outShape(h1, ep2)...)
	b.Conv2.forward(h2, h1, train, ep2)
	tensor.PutBuf(h1Buf)
	skip, skipBuf := x, (*[]float32)(nil)
	if b.Down != nil {
		epd := epilogue{bn: b.DownBN}
		skip, skipBuf = tensor.GetTensorDirty(b.Down.outShape(x, epd)...)
		b.Down.forward(skip, x, train, epd)
	}
	out := tensor.New(h2.Shape()...)
	addReLU(out, h2, skip)
	tensor.PutBuf(h2Buf)
	tensor.PutBuf(skipBuf)
	if train {
		b.out = out
	}
	return out
}

// Backward implements Layer.
func (b *ResidualBlock) Backward(g *tensor.Tensor) *tensor.Tensor {
	gi := tensor.New(b.Conv1.fwd.in[:]...)
	b.backward(g, gi)
	return gi
}

// BackwardParams is Backward without the input gradient.
func (b *ResidualBlock) BackwardParams(g *tensor.Tensor) { b.backward(g, nil) }

// backward accumulates the block's parameter gradients for output gradient
// g and, when gi is non-nil, writes the input gradient into it.
func (b *ResidualBlock) backward(g, gi *tensor.Tensor) {
	if b.out == nil {
		panic(fmt.Sprintf("nn: %s backward without a train-mode forward", b.Name()))
	}
	gm, gmBuf := tensor.GetTensorDirty(g.Shape()...)
	reluGrad(gm, g, b.out)
	b.out = nil
	dh, dhBuf := tensor.GetTensorDirty(b.Conv2.fwd.in[:]...)
	b.Conv2.backward(gm, dh)
	b.Conv1.backward(dh, gi)
	tensor.PutBuf(dhBuf)
	switch {
	case b.Down != nil && gi != nil:
		gs, gsBuf := tensor.GetTensorDirty(gi.Shape()...)
		b.Down.backward(gm, gs)
		tensor.AddInto(gi, gi, gs)
		tensor.PutBuf(gsBuf)
	case b.Down != nil:
		b.Down.backward(gm, nil)
	case gi != nil:
		tensor.AddInto(gi, gi, gm)
	}
	tensor.PutBuf(gmBuf)
}

// Params implements Layer.
func (b *ResidualBlock) Params() []*Param {
	ps := append(b.Conv1.Params(), b.BN1.Params()...)
	ps = append(ps, b.Conv2.Params()...)
	ps = append(ps, b.BN2.Params()...)
	if b.Down != nil {
		ps = append(ps, b.Down.Params()...)
		ps = append(ps, b.DownBN.Params()...)
	}
	return ps
}

// StateTensors implements Stater.
func (b *ResidualBlock) StateTensors() []*tensor.Tensor {
	ts := append(b.BN1.StateTensors(), b.BN2.StateTensors()...)
	if b.DownBN != nil {
		ts = append(ts, b.DownBN.StateTensors()...)
	}
	return ts
}

// OutShape implements Layer.
func (b *ResidualBlock) OutShape(in []int) []int { return b.Conv1.OutShape(in) }

// FLOPs implements Layer.
func (b *ResidualBlock) FLOPs(in []int) int64 {
	mid := b.Conv1.OutShape(in)
	f := b.Conv1.FLOPs(in) + b.Conv2.FLOPs(mid) + b.BN1.FLOPs(mid) + b.BN2.FLOPs(mid) + 3*prod(mid)
	if b.Down != nil {
		f += b.Down.FLOPs(in) + b.DownBN.FLOPs(mid)
	}
	return f
}

// Clone implements Layer.
func (b *ResidualBlock) Clone() Layer {
	c := &ResidualBlock{
		Conv1: b.Conv1.Clone().(*Conv2d), Conv2: b.Conv2.Clone().(*Conv2d),
		BN1: b.BN1.Clone().(*BatchNorm2d), BN2: b.BN2.Clone().(*BatchNorm2d),
	}
	if b.Down != nil {
		c.Down = b.Down.Clone().(*Conv2d)
		c.DownBN = b.DownBN.Clone().(*BatchNorm2d)
	}
	return c
}

// Name implements Layer.
func (b *ResidualBlock) Name() string {
	return fmt.Sprintf("ResidualBlock(%d->%d,s%d)", b.Conv1.InC, b.Conv1.OutC, b.Conv1.Stride)
}
