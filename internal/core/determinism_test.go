package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/distill"
)

// ruleFilter6 is the determinism and persistence tests' estimator setup: a
// short budget with the rule filter on.
var ruleFilter6 = core.AccuracyOptions{
	FineTune:      distill.Config{LR: 0.003, Epochs: 6, Batch: 16, EvalEvery: 2},
	UseRuleFilter: true,
}

// TestOptimizerDeterministicAcrossWorkers guards the worker-pool refactor:
// the search must visit the same candidate sequence and produce the same
// Result for any Workers setting, because Workers only controls evaluation
// concurrency while sampling, filtering, and merging run serially. A
// regression here means some search state leaked into the parallel phase
// (or a tensor kernel became chunking-dependent).
//
// Workers=2 with BatchSize=4 is the load-bearing case for -race: it is the
// only configuration here where an estimator slot is reused while other
// evaluations are still in flight, so a slot-sharing bug (two goroutines on
// one estimator) shows up in this test and in neither the Workers=1 nor the
// Workers=4==BatchSize runs.
func TestOptimizerDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) *core.Result {
		return newWorld(141, 64, 32, 6, 0.15, ruleFilter6).search(core.Config{
			// MaxPairsPerPass 1 keeps the candidate space small enough
			// that the fixed-seed search re-samples structures, so the
			// memo cache participates in the determinism contract.
			Rounds:          16,
			MaxPairsPerPass: 1,
			Seed:            7,
			Workers:         workers,
			BatchSize:       4,
		})
	}

	serial := run(1)
	if serial.Stats.CacheHits == 0 {
		t.Fatal("fixture produced no cache hits; the test no longer covers memoization")
	}
	for _, workers := range []int{2, 4} {
		parallel := run(workers)
		compareResults(t, workers, serial, parallel)
	}
}

// compareResults asserts a run with several evaluator slots matches the
// one-slot reference in every search-determined field.
func compareResults(t *testing.T, workers int, serial, parallel *core.Result) {
	t.Helper()
	if serial.Evaluated != parallel.Evaluated {
		t.Fatalf("Evaluated differs: Workers=1 got %d, Workers=%d got %d", serial.Evaluated, workers, parallel.Evaluated)
	}
	if len(serial.Traces) != len(parallel.Traces) {
		t.Fatalf("Workers=%d: trace count differs: %d vs %d", workers, len(serial.Traces), len(parallel.Traces))
	}
	for i := range serial.Traces {
		s, p := serial.Traces[i], parallel.Traces[i]
		if s.Iteration != p.Iteration || s.Skipped != p.Skipped || s.FromElite != p.FromElite ||
			s.Met != p.Met || s.Terminated != p.Terminated || s.EpochsRun != p.EpochsRun ||
			s.CacheHit != p.CacheHit || s.WarmStarted != p.WarmStarted {
			t.Fatalf("Workers=%d: trace %d differs:\nWorkers=1: %+v\nWorkers=%d: %+v", workers, i, s, workers, p)
		}
	}
	// Cache consultations, rule skips, warm starts, and epoch totals all
	// happen in the serial phases, so the aggregated stats are part of the
	// determinism contract.
	if serial.Stats != parallel.Stats {
		t.Fatalf("Stats differ:\nWorkers=1: %+v\nWorkers=%d: %+v", serial.Stats, workers, parallel.Stats)
	}
	if len(serial.Elites) != len(parallel.Elites) {
		t.Fatalf("Workers=%d: elite count differs: %d vs %d", workers, len(serial.Elites), len(parallel.Elites))
	}
	for i := range serial.Elites {
		s, p := serial.Elites[i], parallel.Elites[i]
		if s.Iteration != p.Iteration || s.FLOPs != p.FLOPs || s.FromElite != p.FromElite {
			t.Fatalf("Workers=%d: elite %d differs: iter %d/%d flops %d/%d", workers, i, s.Iteration, p.Iteration, s.FLOPs, p.FLOPs)
		}
		for id, acc := range s.Accuracy {
			if d := acc - p.Accuracy[id]; d > 1e-9 || d < -1e-9 {
				t.Fatalf("Workers=%d: elite %d task %d accuracy differs: %.9f vs %.9f", workers, i, id, acc, p.Accuracy[id])
			}
		}
	}
	// Best is ranked by measured wall-clock latency, so its identity is
	// legitimately noisy; only its presence is search-determined.
	if (serial.Best == nil) != (parallel.Best == nil) {
		t.Fatalf("Best presence differs: Workers=1 %v, Workers=%d %v", serial.Best != nil, workers, parallel.Best != nil)
	}
}
