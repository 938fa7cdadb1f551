package tensor

import (
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMain raises GOMAXPROCS so the worker pool runs genuinely parallel
// even on single-core CI machines; the pool sizes itself at first use, and
// inline fallbacks would otherwise hide races from -race runs. A GOMAXPROCS
// set in the environment is kept, so the pool can be tested at any width.
func TestMain(m *testing.M) {
	if os.Getenv("GOMAXPROCS") == "" && runtime.GOMAXPROCS(0) < 4 {
		runtime.GOMAXPROCS(4)
	}
	os.Exit(m.Run())
}

// TestParallelForCoversRange asserts the split covers every index exactly
// once, in non-empty ranges, for sizes around chunk boundaries and for a
// light (one float per index) and a heavy (a grain per index) body.
func TestParallelForCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 2, 63, 64, 65, 100000} {
		for _, work := range []int{1, grain} {
			visits := make([]int32, n)
			ParallelFor(n, work, func(lo, hi int) {
				if lo >= hi {
					t.Errorf("n=%d work=%d: empty range [%d,%d)", n, work, lo, hi)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&visits[i], 1)
				}
			})
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("n=%d work=%d: index %d visited %d times", n, work, i, v)
				}
			}
		}
	}
}

// TestParallelForHeavyPairSplits asserts two heavy indices run on two
// goroutines at once: each waits for the other to start, which a single
// goroutine running both in turn never sees.
func TestParallelForHeavyPairSplits(t *testing.T) {
	startPool()
	if poolWorkers < 2 {
		t.Skipf("pool has %d worker", poolWorkers)
	}
	var started atomic.Int32
	ParallelFor(2, grain, func(lo, hi int) {
		if hi-lo != 1 {
			t.Errorf("heavy index range [%d,%d), want one index", lo, hi)
		}
		started.Add(1)
		for deadline := time.Now().Add(10 * time.Second); started.Load() < 2; {
			if time.Now().After(deadline) {
				t.Errorf("index %d: the other index never started alongside it", lo)
				return
			}
			runtime.Gosched()
		}
	})
}

// TestParallelForLightRunsInline asserts a large loop of at most one grain
// of work is one call body(0, n); ParallelFor always runs its first chunk
// on the caller, so that call ran there. One float past the grain splits.
func TestParallelForLightRunsInline(t *testing.T) {
	startPool()
	for _, tc := range []struct{ n, calls int }{{grain, 1}, {grain + 1, min(2, poolWorkers)}} {
		var calls atomic.Int32
		ParallelFor(tc.n, 1, func(lo, hi int) {
			calls.Add(1)
			if tc.calls == 1 && (lo != 0 || hi != tc.n) {
				t.Errorf("n=%d: inline call ran [%d,%d)", tc.n, lo, hi)
			}
		})
		if got := int(calls.Load()); got != tc.calls {
			t.Errorf("n=%d light loop ran in %d calls, want %d", tc.n, got, tc.calls)
		}
	}
}

// TestParallelForAllocatesNothing asserts a call allocates nothing, inline
// and dispatched.
func TestParallelForAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items, so joins reallocate")
	}
	var sink atomic.Int64
	body := func(lo, hi int) { sink.Add(int64(hi - lo)) }
	for _, work := range []int{1, grain} {
		if a := testing.AllocsPerRun(100, func() { ParallelFor(64, work, body) }); a != 0 {
			t.Errorf("work %d: %v allocations per call, want 0", work, a)
		}
	}
}

// TestParallelForNested asserts a ParallelFor body may itself call
// ParallelFor (the plan's waves run ops that do) without deadlock and with
// full coverage.
func TestParallelForNested(t *testing.T) {
	const outer, inner = 256, 256
	var total atomic.Int64
	ParallelFor(outer, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ParallelFor(inner, grain, func(jlo, jhi int) {
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
				ParallelFor(len(visits), grain/64, func(lo, hi int) {
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
