package plan

import (
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// This file holds the plan compiler's inference-time weight-folding
// helpers: the single home of the conv+BN fusion math.

// FoldedConv is a convolution with batch norm folded into its weights and
// bias, ready for the channel-major unfold + GEMM forward path: Weight is
// the GEMM's A operand, read in place.
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
