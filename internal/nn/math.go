package nn

import "math"

// stdExp wraps math.Exp; isolated here so numeric helpers in the package
// share one import site.
func stdExp(x float64) float64 { return math.Exp(x) }

// stdLog wraps math.Log.
func stdLog(x float64) float64 { return math.Log(x) }

// stdSqrt wraps math.Sqrt.
func stdSqrt(x float64) float64 { return math.Sqrt(x) }

// relu32 is the rectifier a > 0 ? a : +0 (zero, negatives and NaN all map
// to +0), computed on the bits so the compiler emits a conditional move:
// activations are about half negative in no pattern a branch predictor can
// learn, and the branchy form mispredicts on every other element.
func relu32(a float32) float32 {
	return keepIfPositive(a, a)
}

// keepIfPositive returns v where a > 0 and +0 elsewhere (a zero, negative or
// NaN), branch-free like relu32: the rectifier's backward mask.
func keepIfPositive(v, a float32) float32 {
	b := math.Float32bits(v)
	// a > 0 exactly when its bits lie in [1, 0x7f800000]: positive
	// subnormals through +Inf; +0, the sign bit and NaNs fall outside.
	if math.Float32bits(a)-1 >= 0x7f800000 {
		b = 0
	}
	return math.Float32frombits(b)
}
