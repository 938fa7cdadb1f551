package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/distill"
	"repro/internal/fingerprint"
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
//
// The search ranks by FLOPs, so Best is search-determined too and its
// identity is part of the contract: under the latency objective, whether
// any elite beats the original's measured latency is timing noise.
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
			Metric:          core.OptimizeFLOPs,
		})
	}

	serial := run(1)
	if serial.Stats.CacheHits == 0 {
		t.Fatal("fixture produced no cache hits; the test no longer covers memoization")
	}
	if serial.Best == nil {
		t.Fatal("fixture found no Best; the test no longer covers its identity")
	}
	for _, workers := range []int{2, 4} {
		compareResults(t, fmt.Sprintf("Workers=1 vs %d", workers), serial, run(workers), false, core.OptimizeFLOPs)
	}
}

// compareResults asserts two searches agree on everything the search
// determines: Evaluated, the elites, whether a Best was found, and every
// field of every record except the wall-clock ones — Best (ranked by
// measured latency), BestLatency, Elapsed, FineTuneTime and the latency
// inside Measured. Accuracies and margins must match
// exactly: fine-tuning is bit-deterministic in (seed, fingerprint), and a
// replay copies the first evaluation's numbers. When both searches ranked
// by FLOPs (metric), Best is search-determined, and its identity —
// fingerprint, FLOPs and iteration — must match as well.
//
// Runs that differ only in evaluation concurrency also agree on Stats. For
// a cache on/off pair (cacheToggled), where a duplicate replays instead of
// fine-tuning, a replayed record may differ only in CacheHit, in the
// memo-replay Rule standing for the verdict's own rule, and in its replay
// Detail; each such test checks its own Stats relation.
func compareResults(t *testing.T, label string, want, got *core.Result, cacheToggled bool, metric core.Metric) {
	t.Helper()
	if want.Evaluated != got.Evaluated {
		t.Fatalf("%s: Evaluated differs: %d vs %d", label, want.Evaluated, got.Evaluated)
	}
	if len(want.Traces) != len(got.Traces) {
		t.Fatalf("%s: trace count differs: %d vs %d", label, len(want.Traces), len(got.Traces))
	}
	for i := range want.Traces {
		w, g := searchDetermined(want.Traces[i], cacheToggled), searchDetermined(got.Traces[i], cacheToggled)
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("%s: trace %d differs:\n%+v\n%+v", label, i, w, g)
		}
	}
	// Cache consultations, rule skips, warm starts, and epoch totals all
	// happen in the serial phases, so the aggregated stats are part of the
	// determinism contract.
	if !cacheToggled && want.Stats != got.Stats {
		t.Fatalf("%s: Stats differ:\n%+v\n%+v", label, want.Stats, got.Stats)
	}
	if len(want.Elites) != len(got.Elites) {
		t.Fatalf("%s: elite count differs: %d vs %d", label, len(want.Elites), len(got.Elites))
	}
	for i := range want.Elites {
		w, g := want.Elites[i], got.Elites[i]
		if w.Iteration != g.Iteration || w.FLOPs != g.FLOPs || w.FromElite != g.FromElite ||
			!reflect.DeepEqual(w.Accuracy, g.Accuracy) {
			t.Fatalf("%s: elite %d differs: iter %d/%d flops %d/%d accuracy %v/%v",
				label, i, w.Iteration, g.Iteration, w.FLOPs, g.FLOPs, w.Accuracy, g.Accuracy)
		}
	}
	// Under the latency objective Best is ranked by measured wall-clock
	// latency, so its identity is legitimately noisy; only its presence is
	// compared.
	if (want.Best == nil) != (got.Best == nil) {
		t.Fatalf("%s: Best presence differs: %v vs %v", label, want.Best != nil, got.Best != nil)
	}
	if metric == core.OptimizeFLOPs && want.Best != nil {
		w, g := want.Best, got.Best
		if fingerprint.Hash(w.Graph) != fingerprint.Hash(g.Graph) || w.FLOPs != g.FLOPs || w.Iteration != g.Iteration {
			t.Fatalf("%s: Best differs: %s flops %d iter %d vs %s flops %d iter %d", label,
				fingerprint.String(w.Graph), w.FLOPs, w.Iteration, fingerprint.String(g.Graph), g.FLOPs, g.Iteration)
		}
	}
}

// searchDetermined strips a record's wall-clock fields (see compareResults)
// and, for a cache on/off pair, folds a memo replay into the record a fresh
// evaluation of the same candidate writes.
func searchDetermined(tr core.Trace, cacheToggled bool) core.Trace {
	tr.Best, tr.BestLatency, tr.Elapsed, tr.FineTuneTime = false, 0, 0, 0
	if tr.Measured != nil {
		tr.Measured = &core.Scores{Margin: tr.Measured.Margin}
	}
	if cacheToggled && tr.Rule == core.RuleMemo {
		tr.CacheHit, tr.Detail, tr.Rule = false, "", core.RuleAccuracyBudget
		if tr.Met() {
			tr.Rule = core.RuleAccuracyMet
		}
	}
	return tr
}
