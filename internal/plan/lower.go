package plan

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Lowering: one graph node becomes one or more plan ops. Fusion decisions
// happen here, at compile time — conv+BN+ReLU(+pool) collapse into a single
// conv op with folded weights, the residual tail becomes one add+relu op,
// transformer blocks unroll into linear/tiled-attention/fused-addln op
// chains (transformer.go) — so the executor never re-discovers them. Every
// layer kind the zoo, the mutator and the parser can produce has a native
// kernel, so the scheduler sees every op; a layer type with none is a
// compile-time failure, not a hidden fallback.

// lowerNode lowers one graph node's layer, returning its output value id.
func (c *compiler) lowerNode(n *graph.Node, inVal int) int {
	return c.lowerLayer(fmt.Sprintf("%st%d/op%d", c.prefix, n.TaskID, n.OpID), n.Layer, inVal)
}

// lowerLayer dispatches on the concrete layer type.
func (c *compiler) lowerLayer(name string, l nn.Layer, inVal int) int {
	switch l := l.(type) {
	case *nn.Sequential:
		v := inVal
		for i, sub := range l.Layers {
			v = c.lowerLayer(fmt.Sprintf("%s/%d", name, i), sub, v)
		}
		return v
	case *nn.ConvBlock:
		poolK, poolS := 0, 0
		if l.Pool != nil {
			poolK, poolS = l.Pool.Kernel, l.Pool.Stride
		}
		return c.lowerConv(name+" "+l.Name(), l.Conv, FoldConvBN(l.Conv, l.BN), true, poolK, poolS, inVal)
	case *nn.ResidualBlock:
		return c.lowerResidual(name, l, inVal)
	case *nn.Conv2d:
		return c.lowerConv(name+" "+l.Name(), l, FoldConvBN(l, nil), false, 0, 0, inVal)
	case *nn.BatchNorm2d:
		scale, shift := FoldBN(l)
		in := c.val(inVal)
		out := c.newValue(in.Shape, false, -1)
		return c.addOp(&Op{
			Name: name + " " + l.Name(), Kind: "bn", In: inVal, In2: -1, Out: out,
			spec: &bnSpec{scale: scale, shift: shift, c: in.Shape[0], hw: in.Shape[1] * in.Shape[2]},
		})
	case *nn.ReLU:
		out := c.newValue(c.val(inVal).Shape, false, -1)
		return c.addOp(&Op{Name: name + " ReLU", Kind: "relu", In: inVal, In2: -1, Out: out, spec: &ewSpec{relu: true}})
	case *nn.GELU:
		out := c.newValue(c.val(inVal).Shape, false, -1)
		return c.addOp(&Op{Name: name + " GELU", Kind: "gelu", In: inVal, In2: -1, Out: out, spec: &ewSpec{relu: false}})
	case *nn.MaxPool2d:
		in := c.val(inVal)
		out := c.newValue([]int{
			in.Shape[0],
			tensor.ConvOut(in.Shape[1], l.Kernel, l.Stride, 0),
			tensor.ConvOut(in.Shape[2], l.Kernel, l.Stride, 0),
		}, false, -1)
		return c.addOp(&Op{
			Name: name + " " + l.Name(), Kind: "maxpool", In: inVal, In2: -1, Out: out,
			spec: &maxPoolSpec{k: l.Kernel, stride: l.Stride},
		})
	case *nn.GlobalAvgPool:
		out := c.newValue([]int{c.val(inVal).Shape[0]}, false, -1)
		return c.addOp(&Op{Name: name + " GlobalAvgPool", Kind: "avgpool", In: inVal, In2: -1, Out: out, spec: &avgPoolSpec{}})
	case *nn.TokenMeanPool:
		in := c.val(inVal)
		out := c.newValue([]int{in.Shape[1]}, false, -1)
		return c.addOp(&Op{
			Name: name + " TokenMeanPool", Kind: "tokenmean", In: inVal, In2: -1, Out: out,
			spec: &tokenMeanSpec{t: in.Shape[0], d: in.Shape[1]},
		})
	case *nn.Flatten:
		out := c.newValue([]int{c.val(inVal).Elems()}, false, -1)
		return c.addOp(&Op{Name: name + " Flatten", Kind: "copy", In: inVal, In2: -1, Out: out, spec: &copySpec{}})
	case *nn.Linear:
		return c.lowerLinear(name+" "+l.Name(), l, inVal, false, -1)
	case *nn.LayerNorm:
		return c.lowerLayerNorm(name+" "+l.Name(), l, inVal)
	case *nn.MultiHeadAttention:
		return c.lowerAttention(name+" "+l.Name(), l, inVal)
	case *nn.TransformerBlock:
		return c.lowerTransformer(name+" "+l.Name(), l, inVal)
	case *nn.PatchEmbed:
		return c.lowerPatchEmbed(name+" "+l.Name(), l, inVal)
	case *nn.Embedding:
		return c.lowerEmbedding(name+" "+l.Name(), l, inVal)
	case *nn.Rescale2D:
		v := c.newValue([]int{l.InC, l.OutH, l.OutW}, false, -1)
		v = c.addOp(&Op{Name: name + " interp", Kind: "interp", In: inVal, In2: -1, Out: v, spec: &interpSpec{into: tensor.InterpolateInto}})
		if l.Proj != nil {
			v = c.lowerConv(name+" proj "+l.Proj.Name(), l.Proj, FoldConvBN(l.Proj, nil), false, 0, 0, v)
		}
		return v
	case *nn.RescaleTokens:
		name += " " + l.Name()
		v := inVal
		if l.OutT != l.InT {
			v = c.newValue([]int{l.OutT, l.InD}, false, -1)
			v = c.addOp(&Op{Name: name + " interp", Kind: "tokeninterp", In: inVal, In2: -1, Out: v, spec: &interpSpec{into: tensor.InterpolateTokensInto}})
		}
		if l.Proj != nil {
			v = c.lowerLinear(name+" proj "+l.Proj.Name(), l.Proj, v, false, -1)
		}
		return v
	default:
		panic(fmt.Sprintf("plan: %s: layer type %T has no lowering", name, l))
	}
}

// val fetches a value by id.
func (c *compiler) val(id int) *Value { return c.p.Values[id] }

// lowerConv emits one fused convolution op: folded conv (+ReLU) (+max
// pool), with the channel-major unfold columns [C·K·K, OH·OW] and the GEMM
// rows [OutC, OH·OW] as cols2d workspace values, the unfold first. src is
// the originating graph layer (nil when there is no single source conv);
// when it carries a matching int8 annotation the op lowers onto the
// quantized kernel, whose only workspace value is the GEMM rows (its byte
// columns come from the int8 arena), and every quantizable conv is
// recorded as a QuantTarget either way.
func (c *compiler) lowerConv(name string, src *nn.Conv2d, f *FoldedConv, relu bool, poolK, poolS int, inVal int) int {
	in := c.val(inVal)
	h, w := in.Shape[1], in.Shape[2]
	oh := tensor.ConvOut(h, f.K, f.Stride, f.Pad)
	ow := tensor.ConvOut(w, f.K, f.Stride, f.Pad)
	kdim := f.InC * f.K * f.K
	outShape := []int{f.OutC, oh, ow}
	if poolK > 0 {
		outShape = []int{f.OutC, tensor.ConvOut(oh, poolK, poolS, 0), tensor.ConvOut(ow, poolK, poolS, 0)}
	}
	cs := &convSpec{f: f, relu: relu, oh: oh, ow: ow, poolK: poolK, poolS: poolS}
	var op *Op
	if q := convQuant(src, f); q != nil {
		cs.cols, cs.rows = -1, c.newValue([]int{f.OutC, oh * ow}, true, -1)
		out := c.newValue(outShape, false, -1)
		op = &Op{Name: name, Kind: "qconv", In: inVal, In2: -1, Out: out, Scratch: []int{cs.rows},
			spec: &qconvSpec{convSpec: *cs, q: q}}
	} else {
		cs.cols = c.newValue([]int{kdim, oh * ow}, true, -1)
		cs.rows = c.newValue([]int{f.OutC, oh * ow}, true, -1)
		out := c.newValue(outShape, false, -1)
		op = &Op{Name: name, Kind: "conv", In: inVal, In2: -1, Out: out, Scratch: []int{cs.cols, cs.rows}, spec: cs}
	}
	v := c.addOp(op)
	if src != nil && tensor.QuantDepthOK(kdim) {
		c.p.QuantTargets = append(c.p.QuantTargets, QuantTarget{
			OpID: op.ID, Name: name, Kind: "conv", Layer: src,
			W: f.Weight, Bias: f.Bias, Rows: f.OutC, K: kdim,
		})
	}
	return v
}

// lowerLinear emits one fully connected op, on the int8 kernel when the
// layer carries a matching annotation, and records the quantization target.
// The op's row epilogue applies GELU to the output when gelu is set, or adds
// the value res (same shape as the output) when res >= 0.
func (c *compiler) lowerLinear(name string, l *nn.Linear, inVal int, gelu bool, res int) int {
	out := c.newValue(l.OutShape(c.val(inVal).Shape), false, -1)
	var op *Op
	if q := linearQuant(l); q != nil {
		op = &Op{
			Name: name, Kind: "qlinear", In: inVal, In2: res, Out: out,
			spec: &qlinearSpec{q: q, in: l.In, out: l.Out, gelu: gelu},
		}
	} else {
		op = &Op{
			Name: name, Kind: "linear", In: inVal, In2: res, Out: out,
			spec: &linearSpec{in: l.In, out: l.Out, w: tensor.PackB(l.Weight.Value), bias: cloneF32(l.Bias.Value.Data()), gelu: gelu},
		}
	}
	v := c.addOp(op)
	if tensor.QuantDepthOK(l.In) {
		c.p.QuantTargets = append(c.p.QuantTargets, QuantTarget{
			OpID: op.ID, Name: name, Kind: "linear", Layer: l,
			W: l.Weight.Value, Bias: l.Bias.Value.Data(), Rows: l.Out, K: l.In,
		})
	}
	return v
}

// lowerResidual emits the ResNet basic block as up to four ops. The main
// path (conv1 -> conv2) and the downsample projection have no mutual data
// dependency, so the wave scheduler runs conv1 and the downsample in the
// same wave — intra-block parallelism an eager walk executes serially.
func (c *compiler) lowerResidual(name string, l *nn.ResidualBlock, inVal int) int {
	c1 := c.lowerConv(name+" conv1+bn+relu", l.Conv1, FoldConvBN(l.Conv1, l.BN1), true, 0, 0, inVal)
	c2 := c.lowerConv(name+" conv2+bn", l.Conv2, FoldConvBN(l.Conv2, l.BN2), false, 0, 0, c1)
	identity := inVal
	if l.Down != nil {
		identity = c.lowerConv(name+" downsample+bn", l.Down, FoldConvBN(l.Down, l.DownBN), false, 0, 0, inVal)
	}
	out := c.newValue(c.val(c2).Shape, false, -1)
	return c.addOp(&Op{
		Name: name + " add+relu", Kind: "addrelu", In: c2, In2: identity, Out: out,
		spec: &addReluSpec{},
	})
}
