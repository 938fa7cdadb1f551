package plan

import (
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Quantization hooks for the plan compiler. Lowering inspects each conv and
// linear layer for an nn.Quant8 annotation (attached by internal/quant) and,
// when present, emits a qconv/qlinear op running on the int8 GEMM instead
// of the float32 kernel. Quant/dequant boundaries are part of the op
// itself: the runner quantizes its float32 input register on entry and the
// kernel's fused epilogue dequantizes back to float32, so neighbouring ops —
// norms, attention, heads, anything left at full precision — are untouched.
// Lowering also records a QuantTarget for every quantizable op, annotated or
// not, which is the worklist internal/quant calibrates and greedily prunes.

// QuantTarget describes one plan op that post-training quantization can
// lower to the int8 kernel, as recorded during lowering.
type QuantTarget struct {
	// OpID is the emitted op (Kind "conv"/"qconv"/"linear"/"qlinear").
	OpID int
	// Name matches the op's Name for reports.
	Name string
	// Kind is "conv" or "linear".
	Kind string
	// Layer is the graph layer an int8 annotation attaches to (through
	// nn.QuantSlot): a *nn.Conv2d for conv targets, a *nn.Linear for
	// linear targets.
	Layer nn.Layer
	// W is the op's effective float32 weight: for convs the BN-folded
	// [Rows, K] matrix (a plan-owned copy), for linears the layer's live
	// [K, Rows] weight (callers transpose it into kernel layout).
	W *tensor.Tensor
	// Bias is the effective float32 bias (folded for convs).
	Bias []float32
	// Rows is the output-channel count, K the GEMM depth.
	Rows, K int
	// Head marks ops producing a task output; the accuracy guard keeps
	// those at full precision.
	Head bool
}

// convQuant returns the conv's annotation when it is usable for the folded
// geometry, nil otherwise (absent, or stale after a structural mutation).
func convQuant(src *nn.Conv2d, f *FoldedConv) *nn.Quant8 {
	if src == nil || src.Quant == nil {
		return nil
	}
	if q := src.Quant; q.Rows == f.OutC && q.K == f.InC*f.K*f.K {
		return q
	}
	return nil
}

// linearQuant returns the layer's annotation when it matches its shape.
func linearQuant(l *nn.Linear) *nn.Quant8 {
	if q := l.Quant; q != nil && q.Rows == l.Out && q.K == l.In {
		return q
	}
	return nil
}

// markQuantHeads stamps the Head flag on recorded targets; head values are
// only identified after the whole graph is lowered.
func (c *compiler) markQuantHeads() {
	for i := range c.p.QuantTargets {
		t := &c.p.QuantTargets[i]
		t.Head = c.p.Values[c.p.Ops[t.OpID].Out].Head >= 0
	}
}

// combinedScales folds the activation scale into the per-channel weight
// scales, the form the kernel's requantize epilogue consumes.
func combinedScales(q *nn.Quant8) []float32 {
	s := make([]float32, q.Rows)
	for j, ws := range q.WScale {
		s[j] = q.InScale * ws
	}
	return s
}

// qconvSpec is the int8 counterpart of convSpec and shares its geometry,
// GEMM-rows scratch and per-plane epilogue: quantize the input
// channels-last, unfold it pixel-major into int8 columns [N·OH·OW,
// PadK(C·K·K)], then one int8 GEMM reads the weight in place as the A
// operand and writes the channel-major rows [OutC, N·OH·OW] — straight into
// dst at batch 1 without a pool — which the epilogue finishes with the
// annotation's bias. The byte workspace comes from the int8 arena per call.
type qconvSpec struct {
	convSpec
	q *nn.Quant8
}

func (s *qconvSpec) build(inst *Instance, o *Op) func() {
	in, out := o.In, o.Out
	f, q, ohw := s.f, s.q, s.oh*s.ow
	w, kp := q.Packed(f.K*f.K), tensor.PadK(q.K)
	scales := combinedScales(q)
	var rd []float32 // the GEMM output the epilogue reads
	epilogue := func(lo, hi int) { s.epilogue(inst.regs[out].Data(), rd, q.Bias, inst.batch, lo, hi) }
	return func() {
		x := inst.regs[in]
		n, h, wd := inst.batch, x.Dim(2), x.Dim(3)
		rd = inst.regs[s.rows].Data()
		if n == 1 && s.poolK == 0 {
			rd = inst.regs[out].Data()
		}
		xq := tensor.GetBufI8(x.Size())
		tensor.QuantizeI8Into(*xq, x.Data(), n, f.InC, h*wd, q.InScale)
		cols := tensor.GetBufI8(n * ohw * kp)
		tensor.Im2ColI8Into(*cols, *xq, n, f.InC, h, wd, f.K, f.K, f.Stride, f.Pad)
		tensor.PutBufI8(xq)
		tensor.QGEMMInto(rd, n*ohw, 1, w, f.OutC, *cols, n*ohw, kp, scales, nil)
		tensor.PutBufI8(cols)
		tensor.ParallelFor(n*f.OutC, ohw, epilogue)
	}
}

// qlinearSpec is the int8 counterpart of linearSpec: quantize the input
// rows, then one int8 GEMM with the weight as A stores the row-major
// [rows, Out] output with the bias; linearSpec's row epilogue applies the
// optional GELU or residual add.
type qlinearSpec struct {
	q       *nn.Quant8
	in, out int
	gelu    bool
}

func (s *qlinearSpec) build(inst *Instance, o *Op) func() {
	inV, outV := o.In, o.Out
	w, kp := s.q.Packed(1), tensor.PadK(s.in)
	scales := combinedScales(s.q)
	epilogue := rowEpilogue(inst, o, nil, s.out, s.gelu)
	return func() {
		x := inst.regs[inV]
		rows := x.Size() / s.in
		xq := tensor.GetBufI8(rows * kp)
		tensor.QuantizeRowsI8Into(*xq, x.Data(), rows, s.in, kp, s.q.InScale)
		tensor.QGEMMInto(inst.regs[outV].Data(), 1, s.out, w, s.out, *xq, rows, kp, scales, s.q.Bias)
		tensor.PutBufI8(xq)
		epilogue(rows)
	}
}
