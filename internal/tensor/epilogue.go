package tensor

// Conv epilogue row kernels. The compiled plan's conv ops (f32 and int8),
// its ReLU and residual add+ReLU ops, and nn's fused conv body, ReLU layer
// and residual join all finish their rows through these functions, so the
// rectifier has one definition: relu(a) = a where a > 0 and +0 elsewhere,
// zero, negatives and NaN alike. Each is single-threaded over the row it is
// handed and every element depends only on its own inputs, so the bits do
// not depend on how a caller splits rows. Every arithmetic step is one
// float32 operation rounded on its own on both tiers (the AVX2 kernels use
// no FMA), so the tiers agree bit for bit. The 2×2 max pool is in
// MaxPoolPlane (conv.go).

// BiasRow writes dst[i] = src[i] + b, rectified when relu is set. dst may
// alias src.
func BiasRow(dst, src []float32, b float32, relu bool) { biasRow(dst, src, b, relu) }

// ReLURow writes dst[i] = relu(src[i]). dst may alias src.
func ReLURow(dst, src []float32) { biasRow(dst, src, 0, true) }

// AddReLURow writes dst[i] = relu(x[i] + y[i]) over len(x) elements. dst
// may alias x or y.
func AddReLURow(dst, x, y []float32) { addReLURow(dst, x, y) }

// BNRow is batch norm's row over a convolution's output channel: it writes
// the normalized xh[i] = ((src[i] + b) − mean)·inv and the activation
// act[i] = xh[i]·gamma + beta, rectified when relu is set. xh may alias src.
func BNRow(act, xh, src []float32, b, mean, inv, gamma, beta float32, relu bool) {
	bnRow(act, xh, src, b, mean, inv, gamma, beta, relu)
}
