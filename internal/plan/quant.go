package plan

import (
	"sync"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Quantization hooks for the plan compiler. Lowering inspects each conv and
// linear layer for an nn.Quant8 annotation (attached by internal/quant) and,
// when present, emits a qconv/qlinear op running on the int8 SWAR GEMM
// instead of the float32 kernel. Quant/dequant boundaries are part of the op
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
	// Kind is "conv", "linear", or "qkv" (the packed attention projection).
	Kind string
	// Layer is the graph layer an int8 annotation attaches to: a
	// *nn.Conv2d for conv targets, a *nn.Linear for linear targets, a
	// *nn.MultiHeadAttention for qkv targets.
	Layer nn.Layer
	// W is the op's effective float32 weight: for convs the BN-folded
	// [Rows, K] matrix (a plan-owned copy), for linears the layer's live
	// [K, Rows] weight, for qkv the plan-owned packed [K, Rows] = [D, 3D]
	// concatenation (callers transpose the latter two into kernel layout).
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

// qkvQuant returns the attention's packed-projection annotation when it
// matches the packed [D, 3D] geometry.
func qkvQuant(m *nn.MultiHeadAttention) *nn.Quant8 {
	if q := m.QKVQuant; q != nil && q.Rows == 3*m.D && q.K == m.D {
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

// qconvSpec is the int8 counterpart of convSpec: quantize input, byte
// im2col, SWAR GEMM with fused requantize into row-major [N·OH·OW, OutC]
// pixels, then the bias+ReLU+NCHW epilogue (and optional max pool). The
// float32 cols scratch value disappears; byte workspace comes from the
// uint8 arena per call.
type qconvSpec struct {
	q                         *nn.Quant8
	inC, k, stride, pad, outC int
	relu                      bool
	flat                      int // [oh*ow, outC] scratch value id
	pre                       int // pre-pool scratch value id, -1 without pooling
	poolK, poolS              int
	qp                        tensor.QGemmParams
}

func (s *qconvSpec) build(inst *Instance, o *Op) func() {
	in, out := o.In, o.Out
	qw := s.q.Packed()
	scales := combinedScales(s.q)
	var flat tensor.Tensor // the flat scratch as the GEMM's [N·OH·OW, OutC] output
	return func() {
		x := inst.regs[in]
		dst := inst.regs[out]
		if s.pre >= 0 {
			dst = inst.regs[s.pre]
		}
		n, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
		oh, ow := dst.Dim(2), dst.Dim(3)
		flat.Rebind(inst.regs[s.flat].Data(), n*oh*ow, s.outC)
		xq := tensor.GetBufU8(x.Size())
		tensor.QuantizeU8Into(*xq, x.Data(), s.q.InScale)
		cols := tensor.GetBufU8(n * oh * ow * qw.KP)
		tensor.Im2ColU8Into(*cols, *xq, n, s.inC, h, w, s.k, s.k, s.stride, s.pad)
		tensor.PutBufU8(xq)
		tensor.QGEMMIntoP(&flat, *cols, qw, n*oh*ow, scales, nil, false, s.qp)
		tensor.PutBufU8(cols)
		runBiasAct(flat.Data(), dst.Data(), s.q.Bias, oh, ow, s.outC, s.relu)
		if s.pre >= 0 {
			tensor.MaxPoolInto(inst.regs[out], dst, s.poolK, s.poolS, nil)
		}
	}
}

// runBiasAct runs the int8 conv's bias+activation+NCHW-rearrange epilogue
// over its flat GEMM output fd [N*OH*OW, outC] into od [N, outC, OH, OW].
func runBiasAct(fd, od, bias []float32, oh, ow, outC int, relu bool) {
	jb := biasActJobs.Get().(*biasActJob)
	jb.fd, jb.od, jb.bias = fd, od, bias
	jb.oh, jb.ow, jb.outC, jb.relu = oh, ow, outC, relu
	tensor.ParallelFor(len(od)/(outC*ow), jb.body)
	jb.fd, jb.od, jb.bias = nil, nil, nil
	biasActJobs.Put(jb)
}

// biasActJob rearranges the GEMM output [N*OH*OW, OutC] into NCHW while
// adding the folded bias and (optionally) applying ReLU. Pooled for the
// same zero-allocation reason as the tensor kernels' jobs.
type biasActJob struct {
	fd, od       []float32
	bias         []float32
	oh, ow, outC int
	relu         bool
	body         func(lo, hi int)
}

var biasActJobs = sync.Pool{New: func() any {
	jb := &biasActJob{}
	jb.body = jb.run
	return jb
}}

func (jb *biasActJob) run(lo, hi int) {
	fd, od, bias := jb.fd, jb.od, jb.bias
	oh, ow, outC, relu := jb.oh, jb.ow, jb.outC, jb.relu
	for noy := lo; noy < hi; noy++ {
		ni, oy := noy/oh, noy%oh
		for ox := 0; ox < ow; ox++ {
			src := fd[(noy*ow+ox)*outC:][:outC]
			for oc, v := range src {
				v += bias[oc]
				if relu && v < 0 {
					v = 0
				}
				od[((ni*outC+oc)*oh+oy)*ow+ox] = v
			}
		}
	}
}

// qlinearSpec is the int8 counterpart of linearSpec; the bias rides the
// kernel epilogue, so the runner is quantize + GEMM.
type qlinearSpec struct {
	q       *nn.Quant8
	in, out int
	qp      tensor.QGemmParams
}

func (s *qlinearSpec) build(inst *Instance, o *Op) func() {
	inV, outV := o.In, o.Out
	inputFed := inV == inst.p.InValue
	qw := s.q.Packed()
	scales := combinedScales(s.q)
	var y2d *tensor.Tensor
	bound := -1
	return func() {
		x := inst.regs[inV]
		y := inst.regs[outV]
		rows := x.Size() / s.in
		if bound != inst.batch || inputFed {
			y2d = tensor.FromSlice(y.Data(), rows, s.out)
			bound = inst.batch
		}
		xq := tensor.GetBufU8(rows * qw.KP)
		tensor.QuantizeRowsU8Into(*xq, x.Data(), rows, s.in, qw.KP, s.q.InScale)
		tensor.QGEMMIntoP(y2d, *xq, qw, rows, scales, s.q.Bias, false, s.qp)
		tensor.PutBufU8(xq)
	}
}
