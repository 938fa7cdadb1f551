package tensor

import (
	"fmt"
	"math"
	"testing"
)

// epilogueVariant is one tier of the conv epilogue kernels, bound in place
// of biasRow, addReLURow, bnRow and maxPool2x2 by tests and benchmarks;
// skip, if set, says why this CPU or build cannot run it.
// epilogueVariants (vec_amd64_test.go, vec_other_test.go) lists them.
type epilogueVariant struct {
	name string
	bias func(dst, src []float32, b float32, relu bool)
	add  func(dst, x, y []float32)
	bn   func(act, xh, src []float32, b, mean, inv, gamma, beta float32, relu bool)
	pool func(dst, src []float32, w, oh, ow int, arg []byte)
	skip string
}

// specialFloats fills n floats from seed, most from a small set of edge
// values — NaN, ±0, ±Inf, ±1 and 2, so windows tie — and the rest normal.
func specialFloats(seed uint64, n int) []float32 {
	edge := []float32{float32(math.NaN()), 0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)), 1, -1, 2}
	rng := NewRNG(seed)
	v := make([]float32, n)
	for i := range v {
		if j := rng.Intn(2 * len(edge)); j < len(edge) {
			v[i] = edge[j]
		} else {
			v[i] = float32(rng.NormFloat64())
		}
	}
	return v
}

// reluRef is the rectifier spelled as a branch: a where a > 0, +0 elsewhere.
func reluRef(a float32) float32 {
	if a > 0 {
		return a
	}
	return 0
}

func sameBits(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// FuzzEpilogueRowTierParity runs every tier's bias, add+ReLU and
// batch-norm rows over fuzzed lengths (so the vector kernels' tails of 1 to
// 7 elements all occur) and rows full of NaN, ±0, ±Inf and ties, with and
// without the ReLU, in place and out of place: each element must have the
// bits of the scalar expression, rounded step by step.
func FuzzEpilogueRowTierParity(f *testing.F) {
	for n := uint16(1); n <= 17; n++ {
		f.Add(n, uint64(n), float32(0.5), float32(-0.25), float32(1.5), float32(0.75), float32(0.1))
	}
	f.Add(uint16(1024), uint64(99), float32(0), float32(0), float32(1), float32(1), float32(0))
	f.Add(uint16(64), uint64(7), float32(-3), float32(2), float32(0), float32(-1), float32(-0.5))
	f.Fuzz(func(t *testing.T, nRaw uint16, seed uint64, b, mean, inv, gamma, beta float32) {
		n := int(nRaw)%2048 + 1
		x, y := specialFloats(seed, n), specialFloats(seed+1, n)
		for _, v := range epilogueVariants() {
			if v.skip != "" {
				continue
			}
			for _, relu := range []bool{false, true} {
				act := func(a float32) float32 {
					if relu {
						return reluRef(a)
					}
					return a
				}
				want, got := make([]float32, n), make([]float32, n)
				for i, xv := range x {
					want[i] = act(xv + b)
				}
				v.bias(got, x, b, relu)
				if i := sameBits(got, want); i >= 0 {
					t.Fatalf("%s bias relu=%v: [%d] %g + %g = %g, want %g", v.name, relu, i, x[i], b, got[i], want[i])
				}
				copy(got, x)
				v.bias(got, got, b, relu)
				if i := sameBits(got, want); i >= 0 {
					t.Fatalf("%s bias relu=%v in place: [%d] = %g, want %g", v.name, relu, i, got[i], want[i])
				}

				wantXH, gotXH := make([]float32, n), make([]float32, n)
				for i, xv := range x {
					wantXH[i] = (xv + b - mean) * inv
					want[i] = act(float32(wantXH[i]*gamma) + beta)
				}
				v.bn(got, gotXH, x, b, mean, inv, gamma, beta, relu)
				if i := sameBits(gotXH, wantXH); i >= 0 {
					t.Fatalf("%s bn: xh[%d] of %g = %g, want %g", v.name, i, x[i], gotXH[i], wantXH[i])
				}
				if i := sameBits(got, want); i >= 0 {
					t.Fatalf("%s bn relu=%v: act[%d] of %g = %g, want %g", v.name, relu, i, x[i], got[i], want[i])
				}
				copy(gotXH, x)
				v.bn(got, gotXH, gotXH, b, mean, inv, gamma, beta, relu)
				if sameBits(gotXH, wantXH) >= 0 || sameBits(got, want) >= 0 {
					t.Fatalf("%s bn relu=%v with xh aliasing src differs", v.name, relu)
				}
			}
			want, got := make([]float32, n), make([]float32, n)
			for i, xv := range x {
				want[i] = reluRef(xv + y[i])
			}
			v.add(got, x, y)
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("%s add: [%d] relu(%g + %g) = %g, want %g", v.name, i, x[i], y[i], got[i], want[i])
			}
		}
	})
}

// poolRef pools a plane with poolWindow: the reference for the 2×2 kernels.
func poolRef(src []float32, w, oh, ow int) ([]float32, []byte) {
	dst, arg := make([]float32, oh*ow), make([]byte, oh*ow)
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			v, i := poolWindow(src, (oy*w+ox)*2, w, 2)
			dst[oy*ow+ox], arg[oy*ow+ox] = v, byte(i)
		}
	}
	return dst, arg
}

// FuzzMaxPool2x2TierParity runs every tier's 2×2 stride-2 max pool over
// fuzzed plane sizes — odd heights and widths, output rows of any length
// mod 8 — full of NaN, ±0, ±Inf and ties, with and without the argmax
// bytes, and through MaxPoolPlane on the bound tier: values and window
// offsets must equal poolWindow's bit for bit, and nothing past the output
// may be written.
func FuzzMaxPool2x2TierParity(f *testing.F) {
	for _, hw := range [][2]uint8{{2, 2}, {16, 16}, {32, 32}, {5, 17}, {7, 33}, {4, 18}, {9, 50}} {
		f.Add(hw[0], hw[1], uint64(hw[0])*31+uint64(hw[1]), true)
		f.Add(hw[0], hw[1], uint64(hw[1]), false)
	}
	f.Fuzz(func(t *testing.T, hRaw, wRaw uint8, seed uint64, withArg bool) {
		h, w := int(hRaw)%48+2, int(wRaw)%72+2
		src := specialFloats(seed, h*w)
		oh, ow := h/2, w/2
		want, wantArg := poolRef(src, w, oh, ow)
		check := func(name string, run func(dst []float32, arg []byte)) {
			const guard = 9
			dst, arg := make([]float32, oh*ow+guard), []byte(nil)
			for i := range dst {
				dst[i] = -7
			}
			if withArg {
				arg = make([]byte, oh*ow+guard)
				for i := range arg {
					arg[i] = 0xee
				}
				run(dst[:oh*ow], arg[:oh*ow])
			} else {
				run(dst[:oh*ow], nil)
			}
			if i := sameBits(dst[:oh*ow], want); i >= 0 {
				t.Fatalf("%s %dx%d: output %d = %g (bits %#x), poolWindow %g (bits %#x)", name, h, w, i, dst[i], math.Float32bits(dst[i]), want[i], math.Float32bits(want[i]))
			}
			for i, v := range dst[oh*ow:] {
				if v != -7 {
					t.Fatalf("%s %dx%d: wrote %g past the output at %d", name, h, w, v, oh*ow+i)
				}
			}
			if !withArg {
				return
			}
			for i, a := range arg[:oh*ow] {
				if a != wantArg[i] {
					t.Fatalf("%s %dx%d: argmax %d = %d, poolWindow %d", name, h, w, i, a, wantArg[i])
				}
			}
			for i, a := range arg[oh*ow:] {
				if a != 0xee {
					t.Fatalf("%s %dx%d: wrote argmax byte past the output at %d", name, h, w, oh*ow+i)
				}
			}
		}
		for _, v := range epilogueVariants() {
			if v.skip == "" {
				check(v.name, func(dst []float32, arg []byte) { v.pool(dst, src, w, oh, ow, arg) })
			}
		}
		check("MaxPoolPlane", func(dst []float32, arg []byte) { MaxPoolPlane(dst, src, h, w, 2, 2, arg) })
	})
}

// TestMaxPoolScatter2x2 holds the 2×2 scatter's division-free walk to the
// general one (MaxPoolArgPos) on odd planes, with a −0 gradient landing as
// +0 on the cleared plane.
func TestMaxPoolScatter2x2(t *testing.T) {
	for _, hw := range [][2]int{{4, 4}, {5, 7}, {9, 18}, {3, 2}} {
		h, w := hw[0], hw[1]
		oh, ow := h/2, w/2
		src := specialFloats(uint64(h*w), h*w)
		_, arg := poolRef(src, w, oh, ow)
		g := specialFloats(uint64(h+w), oh*ow)
		g[0] = float32(math.Copysign(0, -1))
		got, want := make([]float32, h*w), make([]float32, h*w)
		MaxPoolScatter(got, g, arg, w, ow, 2, 2)
		for o, a := range arg {
			want[MaxPoolArgPos(o, a, w, ow, 2, 2)] += g[o]
		}
		if i := sameBits(got, want); i >= 0 {
			t.Fatalf("%dx%d: gradient[%d] = %g, general walk %g", h, w, i, got[i], want[i])
		}
	}
}

// BenchmarkConvEpilogue times each tier's epilogue at the served conv
// planes, 16×16 and 32×32: the bias+ReLU row alone, and followed by the
// 2×2 max pool, as the compiled plan runs them; and the batch-norm row with
// the pool and its argmax, as a training forward runs them. ns/op is one
// plane.
func BenchmarkConvEpilogue(b *testing.B) {
	for _, v := range epilogueVariants() {
		for _, side := range []int{16, 32} {
			hw, phw := side*side, side*side/4
			src := specialFloats(uint64(side), hw)
			row, dst, arg := make([]float32, hw), make([]float32, phw), make([]byte, phw)
			b.Run(fmt.Sprintf("%s/%d/bias", v.name, side), func(b *testing.B) {
				if v.skip != "" {
					b.Skip(v.skip)
				}
				for i := 0; i < b.N; i++ {
					v.bias(row, src, 0.25, true)
				}
			})
			b.Run(fmt.Sprintf("%s/%d/bias+pool", v.name, side), func(b *testing.B) {
				if v.skip != "" {
					b.Skip(v.skip)
				}
				for i := 0; i < b.N; i++ {
					v.bias(row, src, 0.25, true)
					v.pool(dst, row, side, side/2, side/2, nil)
				}
			})
			b.Run(fmt.Sprintf("%s/%d/bn+pool+arg", v.name, side), func(b *testing.B) {
				if v.skip != "" {
					b.Skip(v.skip)
				}
				xh := make([]float32, hw)
				for i := 0; i < b.N; i++ {
					v.bn(row, xh, src, 0.25, 0.1, 1.5, 0.9, 0.05, true)
					v.pool(dst, row, side, side/2, side/2, arg)
				}
			})
		}
	}
}
