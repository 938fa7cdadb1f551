package plan

import (
	"math"
	"sync"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// This file holds the plan compiler's inference-time weight-folding
// helpers: the single home of the conv+BN fusion math.

// FoldedConv is a convolution with batch norm folded into its weights and
// bias, ready for the im2col + GEMM forward path.
type FoldedConv struct {
	InC, OutC, K, Stride, Pad int
	Weight                    *tensor.Tensor // [OutC, InC*K*K]
	Bias                      []float32
}

// FoldConvBN folds eval-mode batch norm into the convolution:
// W'_o = W_o * gamma_o/sqrt(var_o+eps), b'_o = (b_o-mean_o)*s_o + beta_o.
// bn may be nil (plain convolution). The layer parameters are copied; the
// fold never mutates the graph.
func FoldConvBN(c *nn.Conv2d, bn *nn.BatchNorm2d) *FoldedConv {
	f := &FoldedConv{
		InC: c.InC, OutC: c.OutC, K: c.Kernel, Stride: c.Stride, Pad: c.Pad,
		Weight: c.Weight.Value.Clone(),
		Bias:   make([]float32, c.OutC),
	}
	copy(f.Bias, c.Bias.Value.Data())
	if bn != nil {
		scale, shift := FoldBN(bn)
		wd := f.Weight.Data()
		cols := f.Weight.Dim(1)
		for o := 0; o < f.OutC; o++ {
			for j := 0; j < cols; j++ {
				wd[o*cols+j] *= scale[o]
			}
			f.Bias[o] = f.Bias[o]*scale[o] + shift[o]
		}
	}
	return f
}

// FoldBN reduces an eval-mode BatchNorm2d to a per-channel affine
// y = x*scale + shift, with scale = gamma/sqrt(var+eps) and
// shift = beta - mean*scale.
func FoldBN(bn *nn.BatchNorm2d) (scale, shift []float32) {
	scale = make([]float32, bn.C)
	shift = make([]float32, bn.C)
	gamma := bn.Gamma.Value.Data()
	beta := bn.Beta.Value.Data()
	mean := bn.RunningMean.Data()
	variance := bn.RunningVar.Data()
	for o := 0; o < bn.C; o++ {
		s := gamma[o] / float32(math.Sqrt(float64(variance[o]+bn.Eps)))
		scale[o] = s
		shift[o] = beta[o] - mean[o]*s
	}
	return scale, shift
}

// runP executes the folded convolution with caller-provided scratch and
// the planned conv spec's tuner-stamped GEMM blocking parameters: cols is
// the [N*OH*OW, InC*K*K] im2col buffer, flat the [N*OH*OW, OutC] GEMM
// output, dst the [N, OutC, OH, OW] destination.
func (f *FoldedConv) runP(dst, x, cols, flat *tensor.Tensor, relu bool, gp tensor.GemmParams) {
	tensor.Im2ColInto(cols, x, f.K, f.K, f.Stride, f.Pad)
	tensor.MatMulTransBIntoP(flat, cols, f.Weight, gp)
	runBiasAct(flat, dst, f.Bias, dst.Dim(2), dst.Dim(3), f.OutC, relu)
}

// runBiasAct runs the pooled bias+activation+NCHW-rearrange epilogue over a
// flat GEMM output [N*OH*OW, outC] into dst [N, outC, OH, OW]. Shared by
// the f32 conv path and the quantized conv spec (whose GEMM epilogue only
// dequantizes; bias and ReLU land here).
func runBiasAct(flat, dst *tensor.Tensor, bias []float32, oh, ow, outC int, relu bool) {
	jb := biasActJobs.Get().(*biasActJob)
	jb.fd, jb.od, jb.bias = flat.Data(), dst.Data(), bias
	jb.oh, jb.ow, jb.outC, jb.relu = oh, ow, outC, relu
	tensor.ParallelFor(dst.Dim(0)*oh, jb.body)
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
