package tensor

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// TestGemmConcurrentRaggedPanels runs the driver from several goroutines at
// once over shapes whose tasks differ in their panel geometry — a ragged M,
// N below one strip (the deep branch convs' n = 4), and a short last k
// panel — under both register blocks, and holds every result bit for bit to
// the same product run alone. Concurrent chunks of one product share its
// engine, so a per-panel value kept there instead of passed down shows up
// here as a wrong element (and under -race as a race).
func TestGemmConcurrentRaggedPanels(t *testing.T) {
	type product struct {
		m, n, k   int
		transB    bool
		gp        gemmParams
		a, b, ref []float32
	}
	rng := NewRNG(47)
	var ps []*product
	for _, s := range []struct{ m, n, k int }{
		{37, 300, 2*gemmPanel + 37}, // ragged M, two column panels, short last k panel
		{61, 4, 2*gemmPanel + 37},   // N < NR under both blocks
		{13, 21, 300},               // ragged M and N, one short second k panel
	} {
		for _, blk := range [][2]int{{4, 16}, {8, 8}} {
			for _, transB := range []bool{false, true} {
				p := &product{m: s.m, n: s.n, k: s.k, transB: transB,
					gp: gemmParams{kc: gemmPanel, nc: gemmPanel, mr: blk[0], nr: blk[1]}}
				a, b := New(s.m, s.k), New(s.k, s.n)
				fillRandom(rng, a, b)
				p.a, p.b, p.ref = a.data, b.data, make([]float32, s.m*s.n)
				gemmBlocked(p.ref, p.a, p.b, p.m, p.n, p.k, p.transB, p.gp)
				ps = append(ps, p)
			}
		}
	}
	const goroutines, reps = 4, 3
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < reps; rep++ {
				for i := range ps {
					p := ps[(i+g)%len(ps)] // goroutines start on different shapes
					got := make([]float32, p.m*p.n)
					gemmBlocked(got, p.a, p.b, p.m, p.n, p.k, p.transB, p.gp)
					for x, v := range got {
						if math.Float32bits(v) != math.Float32bits(p.ref[x]) {
							t.Errorf("m%d n%d k%d transB=%v %dx%d: element %d = %g concurrently, %g alone",
								p.m, p.n, p.k, p.transB, p.gp.mr, p.gp.nr, x, v, p.ref[x])
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkGemmPlanShapes times the f32 driver on the products the
// compiled plan runs at the benchmark's paper widths, batch 1, and reports
// GFLOP/s. Names are m×k×n of dst[m,n] = a[m,k]·b[k,n]:
//   - 512×4608×4 and 512×4608×16: the deep 512→512 branch convs at 2×2 and
//     4×4 (m = OutC, k = C·3·3, n = OH·OW), the 8x8 block's region;
//   - 64×576×1024: infer.cnn's trunk op 1, the 64→64 conv at 32×32;
//   - 64×384×1152, 64×384×768 and 64×768×384: infer.bert's BERT-Large
//     packed QKV, FFN up and FFN down linears at seq 64 (m = tokens,
//     k = in, n = out), and 64×256×768, 64×256×512, 64×512×256 for its
//     BERT-Base.
//
// The pool fixes its width at first use, so compare widths with the
// environment: GOMAXPROCS=1 and GOMAXPROCS=2 go test -run '^$' -bench
// GemmPlanShapes ./internal/tensor/.
func BenchmarkGemmPlanShapes(b *testing.B) {
	rng := NewRNG(5)
	for _, s := range []struct{ m, k, n int }{
		{512, 4608, 4}, {512, 4608, 16}, {64, 576, 1024},
		{64, 384, 1152}, {64, 384, 768}, {64, 768, 384},
		{64, 256, 768}, {64, 256, 512}, {64, 512, 256},
	} {
		b.Run(fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), func(b *testing.B) {
			a, w, dst := New(s.m, s.k), New(s.k, s.n), New(s.m, s.n)
			fillRandom(rng, a, w)
			MatMulInto(dst, a, w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulInto(dst, a, w)
			}
			flops := 2 * float64(s.m) * float64(s.k) * float64(s.n) * float64(b.N)
			b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
