package tensor

import (
	"math"
	"testing"
)

// expVariant is one exp row kernel that tests bind in place of expRow;
// skip, if set, says why this CPU or build cannot run it. expVariants
// (vec_amd64_test.go, vec_other_test.go) lists them.
type expVariant struct {
	name string
	row  func(dst, src []float32, scale, shift float32) float32
	skip string
}

// expTol bounds a kernel's distance from float64 math.Exp, relative to the
// result, where the argument is exact (scale 1, shift 0).
const expTol = 1e-6

// TestExpRowAccuracy holds every exp row variant within expTol of float64
// math.Exp over a dense grid on [−87, 0] (an odd length, so the vector
// kernel's padded tail runs) and its clamp crossings, holds the returned
// sum to the float64 sum, and pins what lies past the clamps: 0 below −87
// (−Inf included), exp(87) above 87 (+Inf included), NaN for NaN.
func TestExpRowAccuracy(t *testing.T) {
	for _, v := range expVariants() {
		t.Run(v.name, func(t *testing.T) {
			if v.skip != "" {
				t.Skip(v.skip)
			}
			const n = 870001
			xs := make([]float32, n, n+8)
			for i := range xs {
				xs[i] = -expClamp + expClamp*float32(i)/float32(n-1)
			}
			xs = append(xs, math.Nextafter32(-expClamp, 0), math.Nextafter32(expClamp, 0), expClamp, 1, 0.5)
			y := make([]float32, len(xs))
			sum := v.row(y, xs, 1, 0)
			var worst, want float64
			for i, x := range xs {
				ref := math.Exp(float64(x))
				want += ref
				d := math.Abs(float64(y[i])-ref) / ref
				if !(d <= expTol) {
					t.Fatalf("exp(%g) = %g, math.Exp %g (relative error %.3g)", x, y[i], ref, d)
				}
				worst = max(worst, d)
			}
			if d := math.Abs(float64(sum)-want) / want; !(d <= 1e-4) {
				t.Errorf("sum %g, float64 sum %g (relative error %.3g)", sum, want, d)
			}
			t.Logf("worst relative error over %d inputs: %.3g", len(xs), worst)

			inf := float32(math.Inf(1))
			special := []float32{math.Nextafter32(-expClamp, -100), -100, -inf, 100, inf, float32(math.NaN())}
			got := make([]float32, len(special))
			v.row(got, special, 1, 0)
			top := v.row(make([]float32, 1), []float32{expClamp}, 1, 0)
			for i, wantv := range []float32{0, 0, 0, top, top} {
				if math.Float32bits(got[i]) != math.Float32bits(wantv) {
					t.Errorf("exp(%g) = %g, want %g", special[i], got[i], wantv)
				}
			}
			if nan := got[len(got)-1]; nan == nan {
				t.Errorf("exp(NaN) = %g, want NaN", nan)
			}
		})
	}
}

// FuzzExpTierParity runs every exp row variant over fuzzed lengths (so the
// vector kernel's tails of 1 to 7 elements all occur), scales and shifts
// of the softmax's form exp(scale·x − shift): each element must stay
// within expTol of the float64 formula, plus what rounding the argument to
// float32 costs (2⁻²³ of its terms' magnitude); its bits must be the same
// whether the row runs in one call or element by element; and the variants
// must agree with each other to twice that bound.
func FuzzExpTierParity(f *testing.F) {
	for n := uint16(1); n <= 17; n++ {
		f.Add(n, uint64(n), float32(1), float32(0))
	}
	f.Add(uint16(1000), uint64(99), float32(0.125), float32(3))
	f.Add(uint16(64), uint64(7), float32(0.1), float32(-20))
	f.Fuzz(func(t *testing.T, nRaw uint16, seed uint64, scale, shift float32) {
		n := int(nRaw)%2048 + 1
		if !(math.Abs(float64(scale)) <= 4) {
			scale = 1
		}
		if !(math.Abs(float64(shift)) <= 40) {
			shift = 0
		}
		x := New(n)
		NewRNG(seed).FillUniform(x, -20, 20)
		xs := x.Data()
		tol := func(x float32) float64 {
			return expTol + 0x1p-23*(math.Abs(float64(scale)*float64(x))+math.Abs(float64(shift)))
		}
		var outs [][]float32
		for _, v := range expVariants() {
			if v.skip != "" {
				continue
			}
			y := make([]float32, n)
			sum := v.row(y, xs, scale, shift)
			var want float64
			for i, xv := range xs {
				var y1 [1]float32
				v.row(y1[:], xs[i:i+1], scale, shift)
				if math.Float32bits(y1[0]) != math.Float32bits(y[i]) {
					t.Fatalf("%s: element %d of %d (x %g) alone gives %g, in the row %g", v.name, i, n, xv, y1[0], y[i])
				}
				z := float64(scale)*float64(xv) - float64(shift)
				ref := math.Exp(min(z, expClamp))
				if z < -expClamp {
					ref = 0
				}
				want += ref
				// Arguments within rounding of the low clamp may land on
				// either side of it.
				if math.Abs(z+expClamp) > 1e-3 && math.Abs(float64(y[i])-ref) > tol(xv)*ref {
					t.Fatalf("%s: exp(%g·%g − %g) = %g, formula %g", v.name, scale, xv, shift, y[i], ref)
				}
			}
			// A row of large terms may overflow the float32 sum; the
			// softmax's arguments are at most 0.
			if want < 1e37 && math.Abs(float64(sum)-want) > 1e-4*want+1e-30 {
				t.Fatalf("%s: sum %g, float64 sum %g", v.name, sum, want)
			}
			outs = append(outs, y)
		}
		for k := 1; k < len(outs); k++ {
			for i, xv := range xs {
				a, b := float64(outs[0][i]), float64(outs[k][i])
				if math.Abs(a-b) > 2*tol(xv)*math.Max(a, b) && math.Abs(float64(scale)*float64(xv)-float64(shift)+expClamp) > 1e-3 {
					t.Fatalf("variants disagree at x %g: %g vs %g", xv, a, b)
				}
			}
		}
	})
}

// TestRowMax holds the bound row max kernel and its pure-Go twin to a
// plain loop over every length from 1 to 70 (the vector kernel's 8-float
// blocks and every tail), with the maximum at every position once.
func TestRowMax(t *testing.T) {
	rng := NewRNG(3)
	for n := 1; n <= 70; n++ {
		x := New(n)
		rng.FillNormal(x, 0, 10)
		xs := x.Data()
		for at := 0; at < n; at++ {
			row := append([]float32(nil), xs...)
			row[at] = 100
			for name, got := range map[string]float32{"bound": vmax(row), "go": goMax(row)} {
				if got != 100 {
					t.Fatalf("%s max of %d floats with 100 at %d = %g", name, n, at, got)
				}
			}
		}
		want := xs[0]
		for _, v := range xs {
			want = max(want, v)
		}
		if vmax(xs) != want || goMax(xs) != want {
			t.Fatalf("max of %d floats: bound %g, go %g, want %g", n, vmax(xs), goMax(xs), want)
		}
	}
}
