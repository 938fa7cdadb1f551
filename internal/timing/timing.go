// Package timing provides the one wall-clock measurement loop: latency
// (engine.Measure) and the benchmark harness both time code through it.
//
// The aggregate is the MINIMUM over runs, not a mean: latency noise on a
// shared machine is strictly additive (scheduler preemption, cache
// eviction, GC pauses can only slow a run down, never speed it up), so the
// minimum is the lowest-variance estimator of the intrinsic cost of the
// measured code and the most robust to interference from concurrent load —
// exactly what the SA search needs when it compares thousands of candidate
// latencies against each other.
package timing

import "time"

// MinOfRuns executes f warmup times untimed (populating caches, JIT-like
// pool growth, branch predictors), then runs timed executions and returns
// the fastest. warmup and runs are clamped to at least 0 and 1.
func MinOfRuns(warmup, runs int, f func()) time.Duration {
	if runs <= 0 {
		runs = 1
	}
	for i := 0; i < warmup; i++ {
		f()
	}
	best := time.Duration(1<<63 - 1)
	for i := 0; i < runs; i++ {
		start := time.Now()
		f()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}
