package tensor

import (
	"math"
	"testing"
)

// geluVariant is one GELU kernel pair that tests and benchmarks bind in
// place of geluRow and geluGradRow; skip, if set, says why this CPU or
// build cannot run it. geluVariants (vec_amd64_test.go, vec_other_test.go)
// lists them.
type geluVariant struct {
	name string
	row  func(dst, src []float32)
	grad func(dst, g, x []float32)
	skip string
}

// forEachGELU runs body as one subtest per GELU kernel variant, with
// geluRow and geluGradRow bound to it (so GELURow and GELUGradRow run it),
// and skips each variant this CPU or build cannot run.
func forEachGELU(t *testing.T, body func(t *testing.T)) {
	for _, v := range geluVariants() {
		t.Run(v.name, func(t *testing.T) {
			if v.skip != "" {
				t.Skip(v.skip)
			}
			oldRow, oldGrad := geluRow, geluGradRow
			geluRow, geluGradRow = v.row, v.grad
			defer func() { geluRow, geluGradRow = oldRow, oldGrad }()
			body(t)
		})
	}
}

// geluTol bounds a kernel's distance from the float64 formula: absolute for
// GELU, relative to |g| for g·GELU'.
const geluTol = 1e-6

// geluRef returns GELU(x) and GELU'(x) by the tanh formula in float64.
func geluRef(x float32) (y, dy float64) {
	v := float64(x)
	th := math.Tanh(geluC0 * (v + geluC1*v*v*v))
	du := geluC0 * (1 + 3*geluC1*v*v)
	return 0.5 * v * (1 + th), 0.5*(1+th) + 0.5*v*(1-th*th)*du
}

// checkGELU runs GELURow and GELUGradRow over xs with upstream gradient g,
// fails on the first element outside geluTol of the float64 formula and
// logs the worst errors.
func checkGELU(t *testing.T, xs, g []float32) {
	t.Helper()
	y := make([]float32, len(xs))
	dx := make([]float32, len(xs))
	GELURow(y, xs)
	GELUGradRow(dx, g, xs)
	var worst, worstGrad float64
	for i, x := range xs {
		ry, rdy := geluRef(x)
		d := math.Abs(float64(y[i]) - ry)
		if !(d <= geluTol) {
			t.Fatalf("GELU(%g) = %g, formula %g (error %.3g)", x, y[i], ry, d)
		}
		want := float64(g[i]) * rdy
		dg := math.Abs(float64(dx[i])-want) / math.Abs(float64(g[i]))
		if !(dg <= geluTol) {
			t.Fatalf("g·GELU'(%g) with g %g = %g, formula %g (error %.3g·|g|)", x, g[i], dx[i], want, dg)
		}
		worst, worstGrad = max(worst, d), max(worstGrad, dg)
	}
	t.Logf("worst error over %d inputs: GELU %.3g, GELU' %.3g·|g|", len(xs), worst, worstGrad)
}

// geluSaturation returns, for each sign, the float32 pair around the input
// where the kernels' exponent argument x·(geluK0 + geluK1·x²) reaches the
// ±expClamp clamp.
func geluSaturation() []float32 {
	var xs []float32
	for _, s := range []float64{-1, 1} {
		lo, hi := 0.0, 30.0
		for i := 0; i < 100; i++ {
			mid := (lo + hi) / 2
			if z := s * mid * (geluK0 + geluK1*mid*mid); math.Abs(z) < expClamp {
				lo = mid
			} else {
				hi = mid
			}
		}
		x := float32(s * lo)
		xs = append(xs, math.Nextafter32(x, 0), x, math.Nextafter32(x, float32(s*30)))
	}
	return xs
}

// TestGELUAccuracy holds every GELU kernel variant within geluTol of the
// float64 tanh formula, forward and derivative, over a dense grid on
// [−20, 20] (an odd length, so the vector kernels' padded tail runs), the
// clamp crossings and ±20, and pins the exact values at ±0 and NaN.
func TestGELUAccuracy(t *testing.T) {
	forEachGELU(t, func(t *testing.T) {
		const n = 400001
		xs := make([]float32, n, n+8)
		g := make([]float32, n, n+8)
		for i := range xs {
			xs[i] = -20 + 40*float32(i)/float32(n-1)
			g[i] = float32(1 + i%3) // 1, 2, 3: the bound scales with |g|
			if i%2 == 1 {
				g[i] = -g[i]
			}
		}
		sat := geluSaturation()
		xs = append(xs, sat...)
		g = append(g, make([]float32, len(sat))...)
		for i := n; i < len(g); i++ {
			g[i] = 1
		}
		checkGELU(t, xs, g)

		special := []float32{0, float32(math.Copysign(0, -1)), float32(math.NaN())}
		y := make([]float32, len(special))
		dx := make([]float32, len(special))
		GELURow(y, special)
		GELUGradRow(dx, []float32{1, 1, 1}, special)
		if math.Float32bits(y[0]) != 0 || math.Float32bits(y[1]) != 1<<31 {
			t.Errorf("GELU(+0), GELU(−0) = %g (bits %#x), %g (bits %#x), want +0, −0", y[0], math.Float32bits(y[0]), y[1], math.Float32bits(y[1]))
		}
		if dx[0] != 0.5 || dx[1] != 0.5 {
			t.Errorf("GELU'(±0) = %g, %g, want 0.5", dx[0], dx[1])
		}
		if y[2] == y[2] || dx[2] == dx[2] {
			t.Errorf("GELU(NaN) = %g, GELU'(NaN) = %g, want NaN", y[2], dx[2])
		}
	})
}

// FuzzGELUTierParity runs every GELU variant over fuzzed lengths (so the
// vector kernels' tails of 1 to 7 elements all occur) and value scales: each
// must stay within geluTol of the float64 formula, and so of the others, and
// each element's bits must be the same whether the row runs in one call or
// element by element.
func FuzzGELUTierParity(f *testing.F) {
	for n := uint16(1); n <= 17; n++ {
		f.Add(n, uint64(n), float32(4))
	}
	f.Add(uint16(1000), uint64(99), float32(20))
	f.Add(uint16(3), uint64(7), float32(100))
	f.Fuzz(func(t *testing.T, nRaw uint16, seed uint64, scale float32) {
		n := int(nRaw)%2048 + 1
		if !(math.Abs(float64(scale)) <= 20) {
			scale = 20
		}
		x, g := New(n), New(n)
		rng := NewRNG(seed)
		rng.FillUniform(x, -scale, scale)
		rng.FillUniform(g, -2, 2)
		xs, gs := x.Data(), g.Data()
		var outs [][]float32
		for _, v := range geluVariants() {
			if v.skip != "" {
				continue
			}
			y := make([]float32, n)
			dx := make([]float32, n)
			v.row(y, xs)
			v.grad(dx, gs, xs)
			for i := range xs {
				var y1, dx1 [1]float32
				v.row(y1[:], xs[i:i+1])
				v.grad(dx1[:], gs[i:i+1], xs[i:i+1])
				if math.Float32bits(y1[0]) != math.Float32bits(y[i]) || math.Float32bits(dx1[0]) != math.Float32bits(dx[i]) {
					t.Fatalf("%s: element %d of %d (x %g) alone gives %g, %g; in the row %g, %g", v.name, i, n, xs[i], y1[0], dx1[0], y[i], dx[i])
				}
				ry, rdy := geluRef(xs[i])
				if math.Abs(float64(y[i])-ry) > geluTol || math.Abs(float64(dx[i])-float64(gs[i])*rdy) > geluTol*math.Abs(float64(gs[i])) {
					t.Fatalf("%s: x %g g %g gives %g, %g; formula %g, %g", v.name, xs[i], gs[i], y[i], dx[i], ry, float64(gs[i])*rdy)
				}
			}
			outs = append(outs, y, dx)
		}
		for k := 2; k < len(outs); k += 2 {
			for i := range xs {
				if math.Abs(float64(outs[k][i]-outs[0][i])) > 2*geluTol || math.Abs(float64(outs[k+1][i]-outs[1][i])) > 2*geluTol*math.Abs(float64(gs[i])) {
					t.Fatalf("variants disagree at x %g: %g vs %g, %g vs %g", xs[i], outs[0][i], outs[k][i], outs[1][i], outs[k+1][i])
				}
			}
		}
	})
}

// BenchmarkGELURow times each GELU variant's forward and derivative over
// 49 152 floats (one 64-token row block of a 768-wide FFN) in ns per
// element, next to a plain add over the same floats: GELUWork is the
// forward's ratio to the add.
func BenchmarkGELURow(b *testing.B) {
	const n = 49152
	x, g, y := New(n), New(n), New(n)
	rng := NewRNG(1)
	rng.FillNormal(x, 0, 2)
	rng.FillNormal(g, 0, 1)
	xs, gs, ys := x.Data(), g.Data(), y.Data()
	perElem := func(b *testing.B) { b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/elem") }
	b.Run("add", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			for i, v := range xs {
				ys[i] = v + gs[i]
			}
		}
		perElem(b)
	})
	for _, v := range geluVariants() {
		b.Run(v.name, func(b *testing.B) {
			if v.skip != "" {
				b.Skip(v.skip)
			}
			for it := 0; it < b.N; it++ {
				v.row(ys, xs)
			}
			perElem(b)
		})
		b.Run(v.name+"/grad", func(b *testing.B) {
			if v.skip != "" {
				b.Skip(v.skip)
			}
			for it := 0; it < b.N; it++ {
				v.grad(ys, gs, xs)
			}
			perElem(b)
		})
	}
}
