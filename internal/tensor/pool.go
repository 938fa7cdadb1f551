package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the persistent worker pool behind every parallel
// kernel in the package. The previous design spawned fresh goroutines on
// each parallelFor call, which showed up as scheduler and stack-allocation
// overhead during simulated-annealing search where kernels fire millions of
// times. The pool starts GOMAXPROCS long-lived workers on first use and
// feeds them chunk tasks over a channel.
//
// Determinism note: a task computes a half-open index range [lo,hi) of
// independent outputs, so the floating-point result of a kernel is
// identical no matter how chunks are distributed over workers (or run
// inline). The optimizer determinism test in internal/core relies
// on this.

// join tracks the outstanding tasks of one ParallelFor/ParallelTasks call.
// Joins are recycled through a sync.Pool so the steady-state execution-plan
// path (plan.Instance.Execute) performs zero allocations per forward; done
// therefore carries a single completion token — sent by whichever goroutine
// finishes the last task, consumed exactly once by the waiter — instead of
// being closed (a closed channel could not be reused).
type join struct {
	remaining atomic.Int32
	done      chan struct{}
}

var joinPool = sync.Pool{New: func() any {
	return &join{done: make(chan struct{}, 1)}
}}

// newJoin leases a join expecting n task completions.
func newJoin(n int32) *join {
	j := joinPool.Get().(*join)
	j.remaining.Store(n)
	return j
}

func (j *join) finish() {
	if j.remaining.Add(-1) == 0 {
		j.done <- struct{}{}
	}
}

// poolTask is one unit of pool work: either a [lo,hi) chunk of a
// ParallelFor body, or (when idxBody is set) a single ParallelTasks index.
type poolTask struct {
	lo, hi  int
	body    func(lo, hi int)
	idxBody func(i int)
	join    *join
}

func (t *poolTask) run() {
	if t.idxBody != nil {
		t.idxBody(t.lo)
	} else {
		t.body(t.lo, t.hi)
	}
}

var (
	poolOnce  sync.Once
	poolTasks chan poolTask
	// poolWorkers is the number of persistent workers, fixed at first use.
	poolWorkers int
)

// startPool launches the persistent workers on first use. Workers never
// terminate; they are cheap when idle (blocked on a channel receive).
func startPool() {
	poolOnce.Do(func() {
		poolWorkers = runtime.GOMAXPROCS(0)
		poolTasks = make(chan poolTask, 4*poolWorkers)
		for i := 0; i < poolWorkers; i++ {
			go func() {
				for t := range poolTasks {
					t.run()
					t.join.finish()
				}
			}()
		}
	})
}

// Workers returns the parallel width of the kernel worker pool.
func Workers() int {
	startPool()
	return poolWorkers
}

// waitJoin blocks until j's completion token arrives, then recycles j.
// While waiting it executes whatever is queued — its own tasks, or another
// caller's. A nested parallel call whose tasks were stolen by workers that
// are themselves blocked here still completes, because those workers are
// draining the queue too; every waiter makes global progress, which is what
// rules out deadlock under nesting.
func waitJoin(j *join) {
	for {
		select {
		case <-j.done:
			joinPool.Put(j)
			return
		default:
		}
		select {
		case <-j.done:
			joinPool.Put(j)
			return
		case t := <-poolTasks:
			t.run()
			t.join.finish()
		}
	}
}

// ParallelFor splits [0,n) into chunks and runs body on each concurrently
// using the shared worker pool. body must treat its [lo,hi) range as
// exclusive: ranges never overlap, and every index in [0,n) is covered
// exactly once. Small n runs inline with no synchronization.
//
// The pool is safe to enter from any number of goroutines at once, and
// bodies may themselves call ParallelFor (the fused-engine branch pattern).
// Chunks are enqueued without blocking — a full queue falls back to inline
// execution — and a caller waiting for its chunks helps drain the shared
// queue instead of parking (see waitJoin).
func ParallelFor(n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	startPool()
	w := poolWorkers
	if w > n {
		w = n
	}
	if w <= 1 || n < 64 {
		body(0, n)
		return
	}
	chunk := (n + w - 1) / w
	nsub := (n - 1) / chunk // chunks beyond the first, which runs on the caller
	if nsub == 0 {
		body(0, n)
		return
	}
	j := newJoin(int32(nsub))
	for lo := chunk; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		select {
		case poolTasks <- poolTask{lo: lo, hi: hi, body: body, join: j}:
		default:
			// Queue full (heavy concurrent load): execute inline.
			body(lo, hi)
			j.finish()
		}
	}
	// Run the first chunk inline so the submitting goroutine contributes
	// work instead of just blocking.
	body(0, chunk)
	waitJoin(j)
}

// ParallelTasks runs body(i) for each i in [0,n) concurrently, dispatching
// every index as its own pool task. Unlike ParallelFor — whose n<64 inline
// cutoff is tuned for per-element loops — ParallelTasks parallelizes even
// tiny n, because each index is a coarse work item: the execution plan's
// wave schedule runs two or three whole fused ops per call. Index 0 runs on
// the caller; the wait helps drain the shared queue like ParallelFor.
func ParallelTasks(n int, body func(i int)) {
	if n <= 0 {
		return
	}
	startPool()
	if n == 1 || poolWorkers <= 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	j := newJoin(int32(n - 1))
	for i := 1; i < n; i++ {
		select {
		case poolTasks <- poolTask{lo: i, idxBody: body, join: j}:
		default:
			body(i)
			j.finish()
		}
	}
	body(0)
	waitJoin(j)
}

// parallelFor is the package-internal spelling used by the kernels.
func parallelFor(n int, body func(lo, hi int)) { ParallelFor(n, body) }
