package tensor_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

// attendDiff runs both attention kernels on the same strided head view and
// returns the largest elementwise divergence.
func attendDiff(t *testing.T, seed uint64, tokens, hd, stride, bq, bk int) float64 {
	if t != nil {
		t.Helper()
	}
	rng := tensor.NewRNG(seed)
	qkv := tensor.New(tokens * stride)
	rng.FillNormal(qkv, 0, 1)
	d := qkv.Data()
	// Head band at a nonzero column offset when the stride allows it, so the
	// strided addressing is actually exercised.
	off := 0
	if stride >= 2*hd {
		off = hd
	}
	got := make([]float32, tokens*hd)
	want := make([]float32, tokens*hd)
	scale := float32(1 / math.Sqrt(float64(hd)))
	ws := make([]float32, tensor.AttendWorkspace(tokens, hd, bq, bk))
	tensor.FlashAttendHead(got, hd, d[off:], d[off:], d[off:], stride, tokens, hd, scale, bq, bk, ws)
	tensor.NaiveAttendHead(want, hd, d[off:], d[off:], d[off:], stride, tokens, hd, scale)
	var m float64
	for i := range got {
		if diff := math.Abs(float64(got[i] - want[i])); diff > m {
			m = diff
		}
	}
	return m
}

func TestFlashAttendHeadParity(t *testing.T) {
	cases := []struct{ tokens, hd, stride, bq, bk int }{
		{1, 1, 1, 1, 1},
		{4, 8, 24, 32, 64},  // tiles larger than t
		{16, 4, 12, 4, 4},   // t divisible by tiles
		{17, 8, 24, 4, 8},   // ragged tail tiles
		{33, 16, 48, 8, 32}, // several key tiles per query tile
		{64, 8, 8, 16, 16},  // dense stride == hd
		{25, 3, 11, 5, 7},   // odd everything
		// The served shapes, at the tiles AttendTiles gives: full 16-wide
		// strips in both products (T 64 at hd 64 and 96, strides 3·D);
		// ViT's 36 tokens, whose score tile ends in a 4-wide N edge; a
		// ragged hd, so P·V ends in an N edge, with an 18-row last query
		// tile (an M tail of 2) and, at T 100, a second, ragged key tile.
		{64, 64, 192, 32, 64},
		{64, 96, 288, 32, 64},
		{36, 8, 24, 32, 36},
		{36, 12, 36, 32, 36},
		{50, 20, 60, 32, 50},
		{64, 40, 120, 32, 64},
		{100, 40, 120, 32, 64},
	}
	for _, c := range cases {
		if d := attendDiff(t, uint64(c.tokens*1000+c.hd), c.tokens, c.hd, c.stride, c.bq, c.bk); d > 1e-4 {
			t.Errorf("t=%d hd=%d stride=%d tiles %dx%d: flash diverges from naive by %g",
				c.tokens, c.hd, c.stride, c.bq, c.bk, d)
		}
	}
}

// TestFlashAttendHeadOverwrites: output rows must be fully overwritten, not
// accumulated into, because plan slabs are recycled dirty.
func TestFlashAttendHeadOverwrites(t *testing.T) {
	const tokens, hd = 9, 5
	rng := tensor.NewRNG(7)
	qkv := tensor.New(tokens * hd)
	rng.FillNormal(qkv, 0, 1)
	scale := float32(1 / math.Sqrt(float64(hd)))
	ws := make([]float32, tensor.AttendWorkspace(tokens, hd, 4, 4))
	clean := make([]float32, tokens*hd)
	tensor.FlashAttendHead(clean, hd, qkv.Data(), qkv.Data(), qkv.Data(), hd, tokens, hd, scale, 4, 4, ws)
	dirty := make([]float32, tokens*hd)
	for i := range dirty {
		dirty[i] = 1e6
	}
	tensor.FlashAttendHead(dirty, hd, qkv.Data(), qkv.Data(), qkv.Data(), hd, tokens, hd, scale, 4, 4, ws)
	for i := range clean {
		if clean[i] != dirty[i] {
			t.Fatalf("elem %d depends on prior output contents: %v vs %v", i, clean[i], dirty[i])
		}
	}
}

// FuzzTiledSoftmaxParity drives the tiled flash kernel against the naive
// full-matrix reference across random sequence lengths, head dims (up to
// 80, five 16-wide strips), strides, and tile sizes.
func FuzzTiledSoftmaxParity(f *testing.F) {
	f.Add(uint64(1), 8, 4, 2, 3)
	f.Add(uint64(2), 33, 7, 8, 16)
	f.Add(uint64(3), 1, 1, 1, 1)
	f.Add(uint64(4), 21, 16, 64, 5)
	f.Fuzz(func(t *testing.T, seed uint64, tokens, hd, bq, bk int) {
		tokens = 1 + abs(tokens)%48
		hd = 1 + abs(hd)%80
		bq = 1 + abs(bq)%(tokens+4)
		bk = 1 + abs(bk)%(tokens+4)
		stride := 3 * hd // packed-QKV addressing, the plan executor's layout
		if d := attendDiff(nil, seed, tokens, hd, stride, bq, bk); d > 1e-4 {
			t.Fatalf("t=%d hd=%d tiles %dx%d: flash diverges from naive by %g", tokens, hd, bq, bk, d)
		}
	})
}

// attendBackwardDiff runs AttendHeadBackward over a packed [t, 3·hd] Q|K|V
// layout, writing a packed gradient buffer prefilled with garbage (the
// kernel must overwrite, not accumulate), and returns the largest
// divergence from the textbook float64 backward of softmax(scale·QKᵀ)·V,
// relative to max(1, |reference|).
func attendBackwardDiff(seed uint64, tokens, hd int) float64 {
	rng := tensor.NewRNG(seed)
	stride := 3 * hd
	qkv, gout := tensor.New(tokens*stride), tensor.New(tokens*hd)
	rng.FillNormal(qkv, 0, 1)
	rng.FillNormal(gout, 0, 1)
	d, g := qkv.Data(), gout.Data()
	grad := make([]float32, tokens*stride)
	for i := range grad {
		grad[i] = 1e6
	}
	scale := float32(1 / math.Sqrt(float64(hd)))
	ws := make([]float32, tensor.AttendBackwardWorkspace(tokens, hd))
	tensor.AttendHeadBackward(grad, grad[hd:], grad[2*hd:], g, hd, d, d[hd:], d[2*hd:], stride, tokens, hd, scale, ws)

	at := func(row, band, p int) float64 { return float64(d[row*stride+band*hd+p]) }
	want := make([]float64, tokens*stride)
	for i := 0; i < tokens; i++ {
		prob, dp := make([]float64, tokens), make([]float64, tokens)
		maxv, sum, dot := math.Inf(-1), 0.0, 0.0
		for j := range prob {
			for p := 0; p < hd; p++ {
				prob[j] += at(i, 0, p) * at(j, 1, p)
			}
			prob[j] *= float64(scale)
			maxv = math.Max(maxv, prob[j])
		}
		for j := range prob {
			prob[j] = math.Exp(prob[j] - maxv)
			sum += prob[j]
		}
		for j := range prob {
			prob[j] /= sum
			for p := 0; p < hd; p++ {
				dp[j] += float64(g[i*hd+p]) * at(j, 2, p)
			}
			dot += prob[j] * dp[j]
		}
		for j := range prob {
			ds := prob[j] * (dp[j] - dot) * float64(scale)
			for p := 0; p < hd; p++ {
				want[i*stride+p] += ds * at(j, 1, p)
				want[j*stride+hd+p] += ds * at(i, 0, p)
				want[j*stride+2*hd+p] += prob[j] * float64(g[i*hd+p])
			}
		}
	}
	var m float64
	for i, w := range want {
		m = math.Max(m, math.Abs(float64(grad[i])-w)/math.Max(1, math.Abs(w)))
	}
	return m
}

// FuzzAttendHeadBackwardParity drives the attention backward kernel against
// the float64 reference across random sequence lengths and head dims (up to
// 80, five 16-wide strips). The seeds include ragged 33- and 65-token
// sequences and odd head dims.
func FuzzAttendHeadBackwardParity(f *testing.F) {
	f.Add(uint64(1), 8, 4)
	f.Add(uint64(2), 33, 7)
	f.Add(uint64(3), 1, 1)
	f.Add(uint64(4), 33, 3)
	f.Add(uint64(5), 65, 8)
	f.Fuzz(func(t *testing.T, seed uint64, tokens, hd int) {
		tokens = 1 + abs(tokens)%80
		hd = 1 + abs(hd)%80
		if d := attendBackwardDiff(seed, tokens, hd); d > 1e-4 {
			t.Fatalf("t=%d hd=%d: backward diverges from the float64 reference by %g", tokens, hd, d)
		}
	})
}

// TestAttendUnitsMatchPerHeadKernels holds the (sample, head) driver to
// the per-head kernels: FlashAttendUnits and AttendBackwardUnits over a
// packed [n, t, 3d] projection, split into two unit ranges, must write
// exactly what FlashAttendHead and AttendHeadBackward write for each head
// run alone on its Q, K and V bands copied out contiguous, and must
// overwrite every output element.
func TestAttendUnitsMatchPerHeadKernels(t *testing.T) {
	const n, tokens, d, heads, bq, bk = 2, 9, 12, 3, 4, 8
	hd := d / heads
	rng := tensor.NewRNG(91)
	qkv, gctx := tensor.New(n*tokens*3*d), tensor.New(n*tokens*d)
	rng.FillNormal(qkv, 0, 1)
	rng.FillNormal(gctx, 0, 1)
	ctx, gqkv := make([]float32, n*tokens*d), make([]float32, n*tokens*3*d)
	for _, buf := range [][]float32{ctx, gqkv} {
		for i := range buf {
			buf[i] = float32(math.NaN())
		}
	}
	fws := make([]float32, n*heads*tensor.AttendWorkspace(tokens, hd, bq, bk))
	bws := make([]float32, n*heads*tensor.AttendBackwardWorkspace(tokens, hd))
	for _, r := range [][2]int{{0, 1}, {1, n * heads}} {
		tensor.FlashAttendUnits(ctx, qkv.Data(), fws, tokens, d, heads, bq, bk, r[0], r[1])
		tensor.AttendBackwardUnits(gqkv, gctx.Data(), qkv.Data(), bws, tokens, d, heads, r[0], r[1])
	}

	scale := float32(1 / math.Sqrt(float64(hd)))
	for ni := 0; ni < n; ni++ {
		for h := 0; h < heads; h++ {
			// band b of (sample ni, head h) copied out at stride hd
			band := func(src []float32, width, off int) []float32 {
				out := make([]float32, tokens*hd)
				for r := 0; r < tokens; r++ {
					copy(out[r*hd:][:hd], src[(ni*tokens+r)*width+off+h*hd:][:hd])
				}
				return out
			}
			q, k, v := band(qkv.Data(), 3*d, 0), band(qkv.Data(), 3*d, d), band(qkv.Data(), 3*d, 2*d)
			want := make([]float32, tokens*hd)
			tensor.FlashAttendHead(want, hd, q, k, v, hd, tokens, hd, scale, bq, bk, make([]float32, tensor.AttendWorkspace(tokens, hd, bq, bk)))
			gq, gk, gv := make([]float32, tokens*hd), make([]float32, tokens*hd), make([]float32, tokens*hd)
			tensor.AttendHeadBackward(gq, gk, gv, band(gctx.Data(), d, 0), hd, q, k, v, hd, tokens, hd, scale,
				make([]float32, tensor.AttendBackwardWorkspace(tokens, hd)))
			for _, c := range []struct {
				what      string
				got, want []float32
			}{
				{"context", band(ctx, d, 0), want},
				{"dQ", band(gqkv, 3*d, 0), gq}, {"dK", band(gqkv, 3*d, d), gk}, {"dV", band(gqkv, 3*d, 2*d), gv},
			} {
				for i, g := range c.got {
					if math.Float32bits(g) != math.Float32bits(c.want[i]) {
						t.Fatalf("sample %d head %d %s element %d = %v, per-head kernel %v", ni, h, c.what, i, g, c.want[i])
					}
				}
			}
		}
	}
}

// TestAttendNaNStaysInItsUnit puts a NaN in one (sample, head) unit's Q,
// K or V band of a packed projection and runs FlashAttendUnits and
// AttendBackwardUnits: nothing panics; a NaN key or value puts a
// non-finite value in every context row of that unit, a NaN query in its
// own row; the unit's
// gradient band holds non-finite values; and every other unit's context
// and gradient bands are bit-identical to a clean run. CI runs it on both
// kernel tiers.
func TestAttendNaNStaysInItsUnit(t *testing.T) {
	const n, tokens, d, heads, row = 2, 40, 48, 3, 7
	hd := d / heads
	bq, bk := tensor.AttendTiles(tokens)
	rng := tensor.NewRNG(5)
	clean, gctx := tensor.New(n*tokens*3*d), tensor.New(n*tokens*d)
	rng.FillNormal(clean, 0, 1)
	rng.FillNormal(gctx, 0, 1)
	run := func(qkv []float32) (ctx, gqkv []float32) {
		ctx, gqkv = make([]float32, n*tokens*d), make([]float32, n*tokens*3*d)
		units := n * heads
		fws := make([]float32, units*tensor.AttendWorkspace(tokens, hd, bq, bk))
		bws := make([]float32, units*tensor.AttendBackwardWorkspace(tokens, hd))
		tensor.FlashAttendUnits(ctx, qkv, fws, tokens, d, heads, bq, bk, 0, units)
		tensor.AttendBackwardUnits(gqkv, gctx.Data(), qkv, bws, tokens, d, heads, 0, units)
		return ctx, gqkv
	}
	ctx0, g0 := run(clean.Data())
	finite := func(v float32) bool { return !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0) }
	const ni, h = 1, 2 // the poisoned unit
	for band, what := range []string{"Q", "K", "V"} {
		qkv := append([]float32(nil), clean.Data()...)
		qkv[(ni*tokens+row)*3*d+band*d+h*hd+3] = float32(math.NaN())
		ctx, g := run(qkv)
		for s := 0; s < n; s++ {
			for r := 0; r < tokens; r++ {
				for u := 0; u < heads; u++ {
					c := ctx[(s*tokens+r)*d+u*hd:][:hd]
					c0 := ctx0[(s*tokens+r)*d+u*hd:][:hd]
					gr := make([]float32, 0, 3*hd)
					gr0 := make([]float32, 0, 3*hd)
					for b := 0; b < 3; b++ {
						gr = append(gr, g[(s*tokens+r)*3*d+b*d+u*hd:][:hd]...)
						gr0 = append(gr0, g0[(s*tokens+r)*3*d+b*d+u*hd:][:hd]...)
					}
					if s != ni || u != h {
						for i := range c {
							if math.Float32bits(c[i]) != math.Float32bits(c0[i]) {
								t.Fatalf("NaN in %s of unit (%d, %d) moved context of unit (%d, %d) row %d", what, ni, h, s, u, r)
							}
						}
						for i := range gr {
							if math.Float32bits(gr[i]) != math.Float32bits(gr0[i]) {
								t.Fatalf("NaN in %s of unit (%d, %d) moved gradient of unit (%d, %d) row %d", what, ni, h, s, u, r)
							}
						}
						continue
					}
					if what == "Q" && r != row {
						continue
					}
					bad := false
					for _, v := range c {
						bad = bad || !finite(v)
					}
					if !bad {
						t.Fatalf("NaN in %s row %d: context row %d of the unit is finite", what, row, r)
					}
				}
			}
		}
		poisoned := false
		for r := 0; r < tokens; r++ {
			for b := 0; b < 3; b++ {
				for _, v := range g[(ni*tokens+r)*3*d+b*d+h*hd:][:hd] {
					poisoned = poisoned || !finite(v)
				}
			}
		}
		if !poisoned {
			t.Errorf("NaN in %s: the unit's gradient band is all finite", what)
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// BenchmarkAttendUnits times FlashAttendUnits and AttendBackwardUnits over
// the attn op shapes of the infer.bert fixture (one sample, 64 tokens, 4
// heads at model width 384 and 256: head widths 96 and 64) on one
// goroutine, in GFLOP/s of the two forward products (4·t²·hd per unit) and
// of the backward's five (10·t²·hd).
func BenchmarkAttendUnits(b *testing.B) {
	for _, s := range []struct{ t, d, heads int }{{64, 384, 4}, {64, 256, 4}} {
		rng := tensor.NewRNG(1)
		qkv, gctx := tensor.New(s.t*3*s.d), tensor.New(s.t*s.d)
		rng.FillNormal(qkv, 0, 1)
		rng.FillNormal(gctx, 0, 1)
		ctx, gqkv := make([]float32, s.t*s.d), make([]float32, s.t*3*s.d)
		hd := s.d / s.heads
		bq, bk := tensor.AttendTiles(s.t)
		fws := make([]float32, s.heads*tensor.AttendWorkspace(s.t, hd, bq, bk))
		bws := make([]float32, s.heads*tensor.AttendBackwardWorkspace(s.t, hd))
		flops := float64(s.heads) * float64(s.t*s.t*hd)
		name := fmt.Sprintf("t%d/hd%d", s.t, hd)
		b.Run("forward/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tensor.FlashAttendUnits(ctx, qkv.Data(), fws, s.t, s.d, s.heads, bq, bk, 0, s.heads)
			}
			b.ReportMetric(4*flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
		b.Run("backward/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tensor.AttendBackwardUnits(gqkv, gctx.Data(), qkv.Data(), bws, s.t, s.d, s.heads, 0, s.heads)
			}
			b.ReportMetric(10*flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
