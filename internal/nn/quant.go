package nn

import (
	"sync"

	"repro/internal/tensor"
)

// Quant8 is a post-training int8 annotation attached to a Conv2d or
// Linear by internal/quant. It carries everything the plan compiler
// needs to lower the layer onto the int8 GEMM kernel:
//
//   - W is the symmetric per-output-channel quantized weight [Rows, K],
//     one row per output channel: the kernel's A operand (see Packed).
//     For a convolution this is the BN-folded weight [OutC, InC*K*K]; for
//     a linear layer it is the transposed weight [Out, In].
//   - WScale holds one dequantization scale per output channel
//     (len Rows); w_f32[r][j] ≈ W[r*K+j] * WScale[r].
//   - Bias is the f32 bias folded alongside the weights (applied after
//     dequantization, so it needs no scale of its own).
//   - InScale is the calibrated per-tensor activation scale: inputs are
//     quantized as clamp(round(x/InScale), -127, 127).
//
// The annotation describes the layer's weights at the moment Quantize
// ran; training the layer afterwards silently invalidates it, so
// quantization is a final step before save/serve.
type Quant8 struct {
	Rows, K int
	W       []int8
	WScale  []float32
	Bias    []float32
	InScale float32

	once   sync.Once
	packed []int8
}

// Packed returns W as the int8 GEMM's A operand (tensor.PackWeightsI8):
// rows at stride tensor.PadK(K) with zero tails, a convolution's taps
// kernel positions per channel reordered tap-major; linear layers pass
// taps 1. That is W itself when no reordering or padding is needed, and
// otherwise one copy at a byte per weight, built on first use and cached —
// concurrent plan compiles share it, and a layer's callers always pass the
// same taps.
func (q *Quant8) Packed(taps int) []int8 {
	q.once.Do(func() {
		q.packed = tensor.PackWeightsI8(q.W, q.Rows, q.K, taps)
	})
	return q.packed
}

// Clone deep-copies the annotation (the lazy packing is rebuilt on
// demand in the clone).
func (q *Quant8) Clone() *Quant8 {
	if q == nil {
		return nil
	}
	return &Quant8{
		Rows: q.Rows, K: q.K,
		W:       append([]int8(nil), q.W...),
		WScale:  append([]float32(nil), q.WScale...),
		Bias:    append([]float32(nil), q.Bias...),
		InScale: q.InScale,
	}
}

// QuantSlot returns the int8 annotation slot of a Conv2d or Linear, the
// layers internal/quant annotates and the plan compiler lowers onto the
// int8 kernel, and nil for any other layer.
func QuantSlot(l Layer) **Quant8 {
	switch l := l.(type) {
	case *Conv2d:
		return &l.Quant
	case *Linear:
		return &l.Quant
	}
	return nil
}
