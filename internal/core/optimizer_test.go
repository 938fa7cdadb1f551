package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/distill"
	"repro/internal/filter"
	"repro/internal/graph"
	"repro/internal/tensor"
)

func TestOptimizerFindsFasterModel(t *testing.T) {
	forBatchSizes(t, func(t *testing.T, batch int) {
		w := buildFixture(t)
		res := w.search(core.Config{
			Rounds: 12, BatchSize: batch, MaxPairsPerPass: 2, Seed: 7,
		})
		if res.Evaluated == 0 {
			t.Fatal("no candidates evaluated")
		}
		if res.Best == nil {
			t.Fatal("search found no model meeting the targets")
		}
		if res.Best.FLOPs >= w.teacher.FLOPs() {
			t.Fatalf("best model FLOPs %d not below original %d", res.Best.FLOPs, w.teacher.FLOPs())
		}
		if err := res.Best.Graph.Validate(); err != nil {
			t.Fatalf("best model invalid: %v", err)
		}
		for id, target := range w.targets {
			if res.Best.Accuracy[id] < target {
				t.Fatalf("task %d accuracy %.3f below target %.3f", id, res.Best.Accuracy[id], target)
			}
		}
		if len(res.Traces) == 0 || res.SearchTime <= 0 {
			t.Fatal("trace bookkeeping broken")
		}
		// Traces record monotonically improving best latency once set.
		var last float64 = math.Inf(1)
		for _, tr := range res.Traces {
			if tr.BestLatency > 0 {
				if float64(tr.BestLatency) > last*1.0001 {
					t.Fatal("best latency regressed in trace")
				}
				last = float64(tr.BestLatency)
			}
		}
		// The original graph must be untouched by the search.
		if err := w.teacher.Validate(); err != nil {
			t.Fatalf("search corrupted the original graph: %v", err)
		}
	})
}

func TestOptimizerRespectsTimeBudget(t *testing.T) {
	forBatchSizes(t, func(t *testing.T, batch int) {
		res := buildFixture(t).search(core.Config{
			Rounds:     1000,
			BatchSize:  batch,
			Seed:       9,
			TimeBudget: 1, // nanosecond: stop immediately
		})
		if len(res.Traces) > batch {
			t.Fatalf("time budget ignored: %d candidates ran", len(res.Traces))
		}
	})
}

func TestOptimizerOnRoundCallback(t *testing.T) {
	var calls int
	res := buildFixture(t).search(core.Config{
		Rounds: 3,
		Seed:   11,
		OnRound: func(tr core.Trace) {
			calls++
			if tr.Iteration == 0 {
				t.Error("trace iteration must be 1-based")
			}
		},
	})
	if calls == 0 || calls != len(res.Traces) {
		t.Fatalf("OnRound called %d times for %d traces", calls, len(res.Traces))
	}
}

// The search must never recommend a model slower than the original: with a
// latency-inflating candidate space the result is "no best", not a
// regression.
func TestOptimizerNeverRegressesBelowIncumbent(t *testing.T) {
	w := buildFixture(t)
	res := w.search(core.Config{Rounds: 8, Seed: 21})
	if res.Best != nil && res.Best.FLOPs > w.teacher.FLOPs() {
		t.Fatalf("best model costs %d FLOPs, original %d", res.Best.FLOPs, w.teacher.FLOPs())
	}
}

// scriptPolicy wraps a Policy and logs the order the optimizer consults
// it in: 'P' for a PickBase, 'O' for an Observe, with the elite count each
// call saw.
type scriptPolicy struct {
	core.Policy
	calls  []byte
	elites []int
}

func (p *scriptPolicy) PickBase(orig *graph.Graph, elites []*core.Elite, rng *tensor.RNG) *graph.Graph {
	p.calls, p.elites = append(p.calls, 'P'), append(p.elites, len(elites))
	return p.Policy.PickBase(orig, elites, rng)
}

func (p *scriptPolicy) Observe(iter int, drop float64, met bool, numElites int) {
	p.calls, p.elites = append(p.calls, 'O'), append(p.elites, numElites)
	p.Policy.Observe(iter, drop, met, numElites)
}

// batchLog wraps a BatchEvaluator and records every batch's size.
type batchLog struct {
	core.BatchEvaluator
	sizes []int
}

func (b *batchLog) EvaluateBatch(jobs []core.EvalJob) []core.EvalOutcome {
	b.sizes = append(b.sizes, len(jobs))
	return b.BatchEvaluator.EvaluateBatch(jobs)
}

// TestBatchOfOneIsAlgorithm1 pins the degenerate case: with BatchSize 1 a
// round is one iteration of the paper's Algorithm 1 — one candidate is
// sampled, evaluated alone, merged into the elite list and fed back to the
// policy before the next one is sampled — and, like any batch size, the
// result does not depend on how many evaluator slots stand behind it.
func TestBatchOfOneIsAlgorithm1(t *testing.T) {
	run := func(slots int) (*core.Result, *scriptPolicy, *batchLog) {
		w := buildFixture(t)
		pol := &scriptPolicy{Policy: core.NewSAPolicy()}
		ev := &batchLog{BatchEvaluator: core.NewLocalEvaluator(w.ds, w.targets, w.outs, w.ds.Train.X, w.accOpts, slots)}
		res := w.search(core.Config{
			Rounds: 10, BatchSize: 1, MaxPairsPerPass: 1, Seed: 7,
			Policy: pol, Evaluator: ev,
		})
		return res, pol, ev
	}
	one, pol, ev := run(1)

	if len(one.Traces) != 10 || one.Evaluated != 10 {
		t.Fatalf("10 rounds of one candidate produced %d traces, %d evaluated", len(one.Traces), one.Evaluated)
	}
	for i, tr := range one.Traces {
		if tr.Iteration != i+1 {
			t.Fatalf("trace %d is iteration %d", i, tr.Iteration)
		}
	}
	for _, n := range ev.sizes {
		if n != 1 {
			t.Fatalf("a batch of %d candidates reached the evaluator: %v", n, ev.sizes)
		}
	}
	if len(ev.sizes) != one.Stats.FineTuned {
		t.Fatalf("%d evaluator calls for %d fine-tunes", len(ev.sizes), one.Stats.FineTuned)
	}
	// Sample and feedback strictly alternate, and each sample sees the
	// elite list as the previous merge left it.
	if len(pol.calls) != 20 {
		t.Fatalf("policy consulted %d times, want 20: %s", len(pol.calls), pol.calls)
	}
	for i := 0; i < len(pol.calls); i += 2 {
		if pol.calls[i] != 'P' || pol.calls[i+1] != 'O' {
			t.Fatalf("policy calls do not alternate pick/observe: %s", pol.calls)
		}
		if i > 0 && pol.elites[i] != pol.elites[i-1] {
			t.Fatalf("sample %d saw %d elites, the merge before it left %d", i/2, pol.elites[i], pol.elites[i-1])
		}
	}
	if got := pol.elites[len(pol.elites)-1]; got != len(one.Elites) {
		t.Fatalf("last observation reported %d elites, result holds %d", got, len(one.Elites))
	}
	if len(one.Elites) == 0 {
		t.Fatal("fixture produced no elites; elite merging is not exercised")
	}

	four, _, _ := run(4)
	compareResults(t, "1 vs 4 evaluator slots", one, four, false)
}

// failAll is a BatchEvaluator that fails every candidate without training
// it, logging the capacity profile of each one it is handed.
type failAll struct {
	profiles []graph.CapacityProfile
}

func (f *failAll) EvaluateBatch(jobs []core.EvalJob) []core.EvalOutcome {
	outs := make([]core.EvalOutcome, len(jobs))
	for i, j := range jobs {
		f.profiles = append(f.profiles, j.Cand.Capacity())
		outs[i] = core.EvalOutcome{Report: &distill.Report{EpochsRun: 1}}
	}
	return outs
}

// TestRuleFilterSkipsDominatedCandidates is the rule-based filter's
// contract, seen through the optimizer that owns it: failures are recorded
// at merge time, a later candidate whose capacity profile is strictly more
// aggressive than a recorded failure is skipped with the capacity rule and
// never reaches the evaluator, and no dominated candidate is ever
// evaluated. With the filter off every candidate is evaluated.
func TestRuleFilterSkipsDominatedCandidates(t *testing.T) {
	w := newWorld(7, 16, 8, 0, 0, core.AccuracyOptions{UseRuleFilter: true})
	search := func(ev *failAll) *core.Result {
		// No memo: every candidate the rule lets through is evaluated, so
		// the evaluator's log lines up with the non-skipped records.
		return w.search(core.Config{
			Rounds: 40, BatchSize: 1, Seed: 3, DisableMemo: true,
			Policy: core.RandomPolicy{}, Evaluator: ev,
		})
	}
	ev := &failAll{}
	res := search(ev)

	rule := filter.NewRuleBased()
	skipped := 0
	for i, tr := range res.Traces {
		if tr.Outcome == core.OutcomeSkipped {
			if !tr.Skipped() {
				t.Fatalf("trace %d skipped by %q", i, tr.Rule)
			}
			if rule.Failures() == 0 {
				t.Fatalf("trace %d skipped before any failure was recorded", i)
			}
			skipped++
			continue
		}
		if tr.Outcome != core.OutcomeRejected || tr.Rule != core.RuleAccuracyBudget {
			t.Fatalf("trace %d: %s / %s, want a measured rejection", i, tr.Outcome, tr.Rule)
		}
		p := ev.profiles[i-skipped]
		if rule.ShouldSkip(p) {
			t.Fatalf("trace %d: a candidate dominated by a recorded failure was evaluated", i)
		}
		rule.RecordFailure(p)
	}
	if skipped == 0 {
		t.Fatal("no candidate was rule-skipped; the fixture exercises nothing")
	}
	if res.Stats.SkippedByRule != skipped || res.Stats.FineTuned != len(ev.profiles) ||
		skipped+len(ev.profiles) != res.Evaluated {
		t.Fatalf("%d skipped + %d evaluated of %d sampled; stats %+v",
			skipped, len(ev.profiles), res.Evaluated, res.Stats)
	}

	w.accOpts.UseRuleFilter = false
	ev = &failAll{}
	if res := search(ev); res.Stats.SkippedByRule != 0 || len(ev.profiles) != res.Evaluated {
		t.Fatalf("filter off: %d skipped, %d of %d evaluated",
			res.Stats.SkippedByRule, len(ev.profiles), res.Evaluated)
	}
}
