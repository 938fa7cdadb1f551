package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the persistent worker pool and its one loop, ParallelFor,
// behind every parallel kernel in the program. The pool starts GOMAXPROCS
// long-lived workers on first use, so a call spawns no goroutines.
//
// A caller states what one index of its loop costs, and ParallelFor alone
// turns that into a split: a loop of at most one grain runs inline, an
// index of a grain or more is a chunk of its own, and anything between
// splits into equal chunks, at most one per worker. No caller reads the
// pool's width or picks a primitive. Workers join a call through a helper
// token on a shared queue and then claim its chunks one at a time from an
// atomic counter, so a call costs one queue operation per helper, not per
// chunk, and a worker that finishes early takes the next chunk.
//
// Determinism: a chunk computes a half-open index range [lo,hi) of
// independent outputs, so the floating-point result of a kernel is the
// same however its chunks are distributed over workers (or run inline).
// A split never changes what a body computes or the order in which it
// reduces.

// grain is the least work, in floats touched or FMAs, worth handing to
// another worker: about 10 µs of streaming work. That is well below the
// cost of waking one: a parked helper starts about 100 µs after it is
// queued (BenchmarkParallelForJoin, median, 2-vCPU Xeon VM), so a call of
// a few grains is over before a parked helper joins it, and the helper
// then finds no chunk left. Only long calls gain a worker, which is why
// each GEMM driver is one ParallelFor per product, not one per panel.
// The grain is set from the table of calls and work per call site measured
// on the benchmark's search, CNN, BERT and shared-stem serving workloads
// (CHANGES.md): the plan's and nn's elementwise loops fall below it; the
// training fold, epilogue planes and pad at the search's first stages, and
// GEMM tiles, lie above it.
const grain = 1 << 14

// job is one ParallelFor call: chunk c is [c·per, min((c+1)·per, n)).
// Jobs are recycled through a sync.Pool so the steady-state execution-plan
// path (plan.Instance.Execute) performs zero allocations per forward. done
// carries a single completion token — sent by whichever goroutine finishes
// the last chunk, consumed exactly once by the caller — instead of being
// closed (a closed channel could not be reused). refs counts the caller and
// the helper tokens still to be dequeued; the last to let go recycles the
// job, so a token dequeued after the call returned finds no chunk left
// rather than a later call's.
type job struct {
	body         func(lo, hi int)
	n, per, size int // indices, indices per chunk, chunks
	next         atomic.Int64
	remaining    atomic.Int32 // chunks not yet finished
	refs         atomic.Int32
	done         chan struct{}
}

var jobPool = sync.Pool{New: func() any {
	return &job{done: make(chan struct{}, 1)}
}}

// work claims and runs chunks until none is left.
func (j *job) work() {
	for c := int(j.next.Add(1) - 1); c < j.size; c = int(j.next.Add(1) - 1) {
		j.body(c*j.per, min((c+1)*j.per, j.n))
		if j.remaining.Add(-1) == 0 {
			j.done <- struct{}{}
		}
	}
}

func (j *job) release() {
	if j.refs.Add(-1) == 0 {
		j.body = nil
		jobPool.Put(j)
	}
}

var (
	poolOnce sync.Once
	// poolHelpers queues helper tokens: a worker that dequeues one works
	// on that job.
	poolHelpers chan *job
	// poolWorkers is the number of persistent workers, fixed at first use.
	poolWorkers int
)

// startPool launches the persistent workers on first use. Workers never
// terminate; they are cheap when idle (blocked on a channel receive).
func startPool() {
	poolOnce.Do(func() {
		poolWorkers = runtime.GOMAXPROCS(0)
		poolHelpers = make(chan *job, 4*poolWorkers)
		for i := 0; i < poolWorkers; i++ {
			go func() {
				for j := range poolHelpers {
					j.work()
					j.release()
				}
			}()
		}
	})
}

// ParallelFor runs body over [0,n) on the shared worker pool, in disjoint
// ascending ranges [lo,hi) that cover every index exactly once. work is the
// caller's estimate of one index's cost, in floats touched or FMAs, from
// shapes it already holds. The split depends on n·work and the pool alone:
// at most one grain runs inline as body(0, n); an index of a grain or more
// is a chunk of its own; otherwise the range splits into one equal chunk
// per grain started, at most one per worker.
//
// The pool is safe to enter from any number of goroutines at once, and
// bodies may themselves call ParallelFor (the plan's waves run ops that
// do). The caller runs the first chunk itself, then claims chunks beside
// its helpers. Helper tokens are enqueued without blocking — with the queue
// full the caller runs the chunks itself — and while its last chunks finish
// elsewhere the caller helps with whatever is queued instead of parking
// (see wait). A call allocates nothing.
func ParallelFor(n, work int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	startPool()
	work = max(work, 1)
	total := n * work
	if n == 1 || poolWorkers == 1 || total <= grain {
		body(0, n)
		return
	}
	per := 1 // a heavy index is a chunk of its own
	if work < grain {
		chunks := min(poolWorkers, (total+grain-1)/grain)
		per = (n + chunks - 1) / chunks
	}
	j := jobPool.Get().(*job)
	j.body, j.n, j.per, j.size = body, n, per, (n+per-1)/per
	j.next.Store(1) // chunk 0 is the caller's
	j.remaining.Store(int32(j.size))
	j.refs.Store(1)
	// The caller holds one core, so the other workers are enough helpers.
	for h := min(j.size, poolWorkers) - 1; h > 0; h-- {
		j.refs.Add(1)
		select {
		case poolHelpers <- j:
			continue
		default:
		}
		j.refs.Add(-1) // queue full (heavy concurrent load)
		break
	}
	body(0, per)
	if j.remaining.Add(-1) == 0 {
		j.done <- struct{}{}
	}
	j.work()
	j.wait()
}

// wait blocks until the job's completion token arrives, then lets go of
// the job. While waiting it works on whatever is queued — its own job's
// helper tokens, or another caller's. A nested call whose chunks were
// claimed by workers that are themselves waiting here still completes,
// because those workers keep working too; every waiter makes progress,
// which is what rules out deadlock under nesting.
func (j *job) wait() {
	for {
		select {
		case <-j.done:
			j.release()
			return
		default:
		}
		select {
		case <-j.done:
			j.release()
			return
		case h := <-poolHelpers:
			h.work()
			h.release()
		}
	}
}
