package tensor

import (
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMain raises GOMAXPROCS so the worker pool runs genuinely parallel
// even on single-core CI machines; the pool sizes itself at first use, and
// inline fallbacks would otherwise hide races from -race runs.
func TestMain(m *testing.M) {
	if runtime.GOMAXPROCS(0) < 4 {
		runtime.GOMAXPROCS(4)
	}
	os.Exit(m.Run())
}

func TestWorkersAtLeastOne(t *testing.T) {
	if w := Workers(); w < 1 {
		t.Fatalf("Workers() = %d", w)
	}
}

// TestParallelForCoversRange asserts the chunking covers every index
// exactly once, for sizes around the inline cutoff and chunk boundaries.
func TestParallelForCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 127, 1000, 4096} {
		visits := make([]int32, n)
		ParallelFor(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&visits[i], 1)
			}
		})
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, v)
			}
		}
	}
}

// TestParallelForNested asserts a ParallelFor body may itself call
// ParallelFor (the fused-engine branch pattern) without deadlock and with
// full coverage.
func TestParallelForNested(t *testing.T) {
	const outer, inner = 256, 256
	var total atomic.Int64
	ParallelFor(outer, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ParallelFor(inner, func(jlo, jhi int) {
				total.Add(int64(jhi - jlo))
			})
		}
	})
	if got := total.Load(); got != outer*inner {
		t.Fatalf("nested coverage = %d, want %d", got, outer*inner)
	}
}

// TestParallelForConcurrent hammers the shared pool from many goroutines at
// once, the shape of parallel SA search evaluating candidates concurrently.
func TestParallelForConcurrent(t *testing.T) {
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 50; rep++ {
				visits := make([]int32, 512)
				ParallelFor(len(visits), func(lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&visits[i], 1)
					}
				})
				for i, v := range visits {
					if v != 1 {
						t.Errorf("index %d visited %d times", i, v)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestMatMulDeterministicAcrossCalls asserts repeated blocked matmuls of
// the same operands produce bitwise-identical results regardless of how
// chunks land on pool workers — the property the core optimizer
// determinism guarantee is built on.
func TestMatMulDeterministicAcrossCalls(t *testing.T) {
	rng := NewRNG(21)
	a, b := New(129, 65), New(65, 93)
	rng.FillNormal(a, 0, 1)
	rng.FillNormal(b, 0, 1)
	ref := MatMul(a, b)
	for rep := 0; rep < 10; rep++ {
		got := MatMul(a, b)
		for i, v := range got.Data() {
			if v != ref.Data()[i] {
				t.Fatalf("rep %d: element %d differs bitwise: %g vs %g", rep, i, v, ref.Data()[i])
			}
		}
	}
}

// TestArenaRecycles asserts Get/Put round-trips zero length-n buffers and
// GetTensor hands back tensors of the right shape.
func TestArenaRecycles(t *testing.T) {
	p := GetBuf(128)
	if len(*p) != 128 {
		t.Fatalf("GetBuf len = %d", len(*p))
	}
	for i := range *p {
		(*p)[i] = 42
	}
	PutBuf(p)
	q := GetBuf(64)
	for i, v := range *q {
		if v != 0 {
			t.Fatalf("GetBuf returned dirty buffer at %d: %g", i, v)
		}
	}
	PutBuf(q)
	tt, h := GetTensor(3, 4, 5)
	if tt.Size() != 60 || tt.Rank() != 3 {
		t.Fatalf("GetTensor shape %v", tt.Shape())
	}
	PutBuf(h)
}

// TestArenaSizeClasses pins the size-class arithmetic: every length gets
// the smallest class that holds it, with at most 25% slack, and a buffer
// returns to the largest class its capacity covers.
func TestArenaSizeClasses(t *testing.T) {
	for n := 1; n < 1<<16; n++ {
		c := classFor(n)
		if classCap(c) < n || (c > 0 && classCap(c-1) >= n) {
			t.Fatalf("classFor(%d) = %d (cap %d), previous cap %d", n, c, classCap(c), classCap(c-1))
		}
		if n > 4 && 4*classCap(c) > 5*n {
			t.Fatalf("classFor(%d): cap %d is more than 25%% slack", n, classCap(c))
		}
		if o := classOf(n); n >= 4 && (classCap(o) > n || classCap(o+1) <= n) {
			t.Fatalf("classOf(%d) = %d (cap %d, next %d)", n, o, classCap(o), classCap(o+1))
		}
	}
	// A lease and its return land in the same class.
	p := GetBufDirty(1000)
	if c := classOf(cap(*p)); c != classFor(1000) {
		t.Fatalf("cap %d files under class %d, leased from %d", cap(*p), c, classFor(1000))
	}
	PutBuf(p)
}
