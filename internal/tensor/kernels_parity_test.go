package tensor

import (
	"fmt"
	"math"
	"testing"
)

// Parity suite: every optimized kernel must agree with its naive reference
// (naive.go) to within parityTol across shapes chosen to hit all blocking
// edge cases — dimensions below, at, and straddling the 4-wide unroll and
// the gemmKC/gemmNC panel boundaries.

const parityTol = 1e-4

// parityDims exercises the microkernel tails: below one vector lane (1,
// 3, 5), one short of a lane (7), one short of the 16-wide strip (15), an
// exact tile multiple (64), and odd sizes past tile boundaries (17, 33,
// 129) — so M tails (rows % MR), N tails (cols % NR), and K oddness all
// run under both kernel tiers.
var parityDims = []int{1, 3, 5, 7, 15, 17, 33, 64, 129}

// panelDims adds sizes that straddle the default KC/NC panel boundaries
// (256) so strip packing of partial panels and multi-panel accumulation
// both run.
var panelDims = []int{255, 256, 263, 517}

func maxAbsDiff(a, b *Tensor) float64 {
	var m float64
	ad, bd := a.Data(), b.Data()
	for i := range ad {
		d := math.Abs(float64(ad[i]) - float64(bd[i]))
		if d > m {
			m = d
		}
	}
	return m
}

func fillRandom(rng *RNG, ts ...*Tensor) {
	for _, t := range ts {
		rng.FillNormal(t, 0, 1)
	}
}

func TestMatMulParity(t *testing.T) {
	rng := NewRNG(11)
	for _, m := range parityDims {
		for _, k := range parityDims {
			for _, n := range parityDims {
				a, b := New(m, k), New(k, n)
				fillRandom(rng, a, b)
				got, want := New(m, n), New(m, n)
				MatMulInto(got, a, b)
				NaiveMatMulInto(want, a, b)
				if d := maxAbsDiff(got, want); d > parityTol {
					t.Errorf("MatMul [%d,%d]@[%d,%d]: max diff %g", m, k, k, n, d)
				}
			}
		}
	}
}

func TestMatMulParityPanelBoundaries(t *testing.T) {
	rng := NewRNG(12)
	for _, k := range panelDims {
		for _, n := range panelDims {
			m := 33
			a, b := New(m, k), New(k, n)
			fillRandom(rng, a, b)
			got, want := New(m, n), New(m, n)
			MatMulInto(got, a, b)
			NaiveMatMulInto(want, a, b)
			// Accumulating ~500 terms loosens attainable agreement a bit;
			// scale tolerance with sqrt(k).
			tol := parityTol * math.Sqrt(float64(k))
			if d := maxAbsDiff(got, want); d > tol {
				t.Errorf("MatMul [%d,%d]@[%d,%d]: max diff %g > %g", m, k, k, n, d, tol)
			}
		}
	}
}

func TestMatMulTransAParity(t *testing.T) {
	rng := NewRNG(13)
	for _, m := range parityDims {
		for _, k := range parityDims {
			for _, n := range parityDims {
				a, b := New(k, m), New(k, n)
				fillRandom(rng, a, b)
				got, want := New(m, n), New(m, n)
				MatMulTransAInto(got, a, b)
				NaiveMatMulTransAInto(want, a, b)
				if d := maxAbsDiff(got, want); d > parityTol {
					t.Errorf("MatMulTransA [%d,%d]ᵀ@[%d,%d]: max diff %g", k, m, k, n, d)
				}
			}
		}
	}
}

func TestMatMulTransBParity(t *testing.T) {
	rng := NewRNG(14)
	for _, m := range parityDims {
		for _, k := range parityDims {
			for _, n := range parityDims {
				a, b := New(m, k), New(n, k)
				fillRandom(rng, a, b)
				got, want := New(m, n), New(m, n)
				MatMulTransBInto(got, a, b)
				NaiveMatMulTransBInto(want, a, b)
				if d := maxAbsDiff(got, want); d > parityTol {
					t.Errorf("MatMulTransB [%d,%d]@[%d,%d]ᵀ: max diff %g", m, k, n, k, d)
				}
			}
		}
	}
}

// im2colConv runs a convolution the way the nn and plan hot paths do:
// channel-major unfold, one blocked GEMM with the weight read in place as
// the A operand, and a bias epilogue per (image, channel) plane. It is the
// optimized pipeline the parity test pits against NaiveConv2d.
func im2colConv(x, weight *Tensor, bias []float32, kh, kw, stride, pad int) *Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	outC := weight.Dim(0)
	oh, ow := ConvOut(h, kh, stride, pad), ConvOut(w, kw, stride, pad)
	ohw, m := oh*ow, n*oh*ow
	cols := New(c*kh*kw, m)
	Im2ColCMInto(cols, x, kh, kw, stride, pad)
	rows := New(outC, m)
	MatMulInto(rows, weight, cols)
	out := New(n, outC, oh, ow)
	rd, od := rows.Data(), out.Data()
	for p := 0; p < n*outC; p++ {
		ni, oc := p/outC, p%outC
		src, dst := rd[oc*m+ni*ohw:][:ohw], od[p*ohw:][:ohw]
		for i, v := range src {
			if bias != nil {
				v += bias[oc]
			}
			dst[i] = v
		}
	}
	return out
}

func TestConv2dParity(t *testing.T) {
	rng := NewRNG(15)
	type cfg struct {
		n, c, h, w, outC, k, stride, pad int
	}
	var cases []cfg
	for _, k := range []int{1, 3, 5} {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1, 2} {
				for _, hw := range []int{7, 12} {
					if hw+2*pad < k {
						continue
					}
					cases = append(cases, cfg{n: 2, c: 3, h: hw, w: hw, outC: 4, k: k, stride: stride, pad: pad})
				}
			}
		}
	}
	// Odd channel/batch combos and a rectangular input.
	cases = append(cases,
		cfg{n: 1, c: 1, h: 5, w: 9, outC: 1, k: 3, stride: 1, pad: 1},
		cfg{n: 3, c: 5, h: 8, w: 6, outC: 7, k: 3, stride: 2, pad: 1},
	)
	for _, tc := range cases {
		tc := tc
		name := fmt.Sprintf("n%dc%d_%dx%d_o%dk%ds%dp%d", tc.n, tc.c, tc.h, tc.w, tc.outC, tc.k, tc.stride, tc.pad)
		t.Run(name, func(t *testing.T) {
			x := New(tc.n, tc.c, tc.h, tc.w)
			weight := New(tc.outC, tc.c*tc.k*tc.k)
			fillRandom(rng, x, weight)
			bias := make([]float32, tc.outC)
			for i := range bias {
				bias[i] = rng.Float32() - 0.5
			}
			got := im2colConv(x, weight, bias, tc.k, tc.k, tc.stride, tc.pad)
			want := NaiveConv2d(x, weight, bias, tc.k, tc.k, tc.stride, tc.pad)
			if !SameShape(got, want) {
				t.Fatalf("shape mismatch: %v vs %v", got.Shape(), want.Shape())
			}
			if d := maxAbsDiff(got, want); d > parityTol {
				t.Errorf("max diff %g", d)
			}
		})
	}
}

// TestGemmBlockingKeepsBits pins the blocking rule's promise on shapes
// inside its region (n <= 16, k >= 2304: the deep convs at small batch,
// with M tails and N tails against both register blocks): whatever block
// gemmBlocking picks, the product is bit-identical to the 4x16 block at
// the same panels, which every shape ran before the rule.
func TestGemmBlockingKeepsBits(t *testing.T) {
	rng := NewRNG(19)
	type shape struct{ m, n, k int }
	for _, s := range []shape{{512, 4, 4608}, {512, 16, 4608}, {12, 16, 2304}, {7, 9, 2304}, {64, 12, 2560}} {
		gp := gemmBlocking(s.n, s.k)
		if vecActive && gp.nr != 8 {
			t.Fatalf("m%d n%d k%d: rule picked %dx%d on the assembly tier, want 8x8", s.m, s.n, s.k, gp.mr, gp.nr)
		}
		old := gemmParams{kc: gemmPanel, nc: gemmPanel, mr: 4, nr: 16}
		for _, transB := range []bool{false, true} {
			a, b := New(s.m, s.k), New(s.k, s.n)
			if transB {
				b = New(s.n, s.k)
			}
			fillRandom(rng, a, b)
			got, want := New(s.m, s.n), New(s.m, s.n)
			if transB {
				MatMulTransBInto(got, a, b)
			} else {
				MatMulInto(got, a, b)
			}
			gemmBlocked(want.data, a.data, b.data, s.m, s.n, s.k, transB, old)
			for i, v := range got.data {
				if math.Float32bits(v) != math.Float32bits(want.data[i]) {
					t.Fatalf("m%d n%d k%d transB=%v (%s tier, %dx%d): element %d = %g, 4x16 %g",
						s.m, s.n, s.k, transB, VecKind(), gp.mr, gp.nr, i, v, want.data[i])
				}
			}
		}
	}
}

// TestEdgeTileWritesNothingPastDst guards the ragged-tile paths against
// writing outside the destination. dst is a window into a larger slice
// whose surrounding floats hold a signalling NaN: an overrun that stores a
// value back — even c + a·0, which parity cannot see — turns it into a
// quiet NaN or a number, so every sentinel's bits must be unchanged. Shapes
// have n % 16 != 0 and m % 4 != 0 so N tails, M tails and their corner run
// under both register blocks.
func TestEdgeTileWritesNothingPastDst(t *testing.T) {
	sentinel := math.Float32frombits(0x7f800001)
	const pad = 160 // past a full 8-row × 16-wide overrun of the last tile
	rng := NewRNG(18)
	type shape struct{ m, n, k int }
	for _, s := range []shape{{7, 5, 9}, {13, 21, 33}, {5, 3, 300}, {9, 37, 17}, {2, 10, 260}} {
		for _, c := range []struct {
			op     string
			mr, nr int
		}{
			{"MatMul", 4, 16}, {"MatMul", 8, 8},
			{"TransB", 4, 16}, {"TransB", 8, 8},
			{"TransA", 4, 16}, // the entry point's own blocking only
		} {
			op, gp := c.op, gemmParams{kc: gemmPanel, nc: gemmPanel, mr: c.mr, nr: c.nr}
			backing := make([]float32, pad+s.m*s.n+pad)
			for i := range backing {
				backing[i] = sentinel
			}
			dst := FromSlice(backing[pad:pad+s.m*s.n], s.m, s.n)
			want := New(s.m, s.n)
			switch op {
			case "MatMul":
				a, b := New(s.m, s.k), New(s.k, s.n)
				fillRandom(rng, a, b)
				gemmBlocked(dst.data, a.data, b.data, s.m, s.n, s.k, false, gp)
				NaiveMatMulInto(want, a, b)
			case "TransB":
				a, b := New(s.m, s.k), New(s.n, s.k)
				fillRandom(rng, a, b)
				gemmBlocked(dst.data, a.data, b.data, s.m, s.n, s.k, true, gp)
				NaiveMatMulTransBInto(want, a, b)
			case "TransA":
				a, b := New(s.k, s.m), New(s.k, s.n)
				fillRandom(rng, a, b)
				MatMulTransAInto(dst, a, b)
				NaiveMatMulTransAInto(want, a, b)
			}
			for i, v := range backing {
				if i >= pad && i < pad+s.m*s.n {
					continue
				}
				if math.Float32bits(v) != math.Float32bits(sentinel) {
					t.Fatalf("%s/%dx%d m%d n%d k%d (%s tier): float %d outside dst overwritten with %v",
						op, c.mr, c.nr, s.m, s.n, s.k, VecKind(), i-pad, v)
				}
			}
			if d := maxAbsDiff(dst, want); d > parityTol*math.Sqrt(float64(s.k)) {
				t.Errorf("%s/%dx%d m%d n%d k%d: max diff %g", op, c.mr, c.nr, s.m, s.n, s.k, d)
			}
		}
	}
}

// TestMatMulIntoOverwritesDst guards the accumulate-style blocked kernel
// against leaking prior dst contents.
func TestMatMulIntoOverwritesDst(t *testing.T) {
	rng := NewRNG(16)
	a, b := New(17, 9), New(9, 13)
	fillRandom(rng, a, b)
	got := Full(123, 17, 13)
	want := New(17, 13)
	MatMulInto(got, a, b)
	NaiveMatMulInto(want, a, b)
	if d := maxAbsDiff(got, want); d > parityTol {
		t.Errorf("dst not overwritten: max diff %g", d)
	}
}
