package core

import (
	"sync"

	"repro/internal/data"
	"repro/internal/distill"
	"repro/internal/filter"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// EvalJob is one candidate fine-tune/measure job handed to a BatchEvaluator.
// The seed is a pure function of the search seed and the candidate's
// structural fingerprint (memoSeed), so any evaluator — an in-process slot
// or a remote worker — produces bit-identical results for the same job.
type EvalJob struct {
	// Cand is the candidate graph (mutated, untrained).
	Cand *graph.Graph
	// Seed drives fine-tuning.
	Seed uint64
	// Warm shrinks the epoch budget (candidate inherited elite weights).
	Warm bool
}

// EvalOutcome is one job's result.
type EvalOutcome struct {
	// Met reports whether the candidate reached every task target.
	Met bool
	// Report is the fine-tuning report (nil when Err is set).
	Report *distill.Report
	// Trained is the fine-tuned graph. In-process evaluation trains the
	// job's graph in place; a remote worker returns a freshly decoded graph
	// carrying the trained weights. Only set when Met.
	Trained *graph.Graph
	// Err reports an evaluation that failed outright (transport errors in
	// a distributed search). The optimizer counts it, emits an eval-error
	// decision, and does not memoize the candidate, so a later duplicate
	// retries it.
	Err error
}

// BatchEvaluator evaluates a batch of candidates, returning outcomes in job
// order. The optimizer calls it between its serial sample and merge
// phases; internal/search/coord provides the distributed
// implementation over HTTP workers.
type BatchEvaluator interface {
	EvaluateBatch(jobs []EvalJob) []EvalOutcome
}

// AccuracyOptions configures the accuracy estimator.
type AccuracyOptions struct {
	// FineTune carries the optimizer settings (epochs, lr, batch, delta).
	FineTune distill.Config
	// UseEarlyTermination enables the learning-curve hook ("GMorph w P").
	UseEarlyTermination bool
	// UseRuleFilter enables capacity-rule skipping ("GMorph w P+R"). The
	// optimizer reads it; the estimator itself never skips.
	UseRuleFilter bool
	// Slack loosens the early-termination decision (see filter package).
	Slack float64
}

// AccuracyEstimator fine-tunes one candidate at a time against the teacher
// outputs and reports whether it meets the per-task accuracy targets,
// cutting non-promising runs short when early termination is on. It is what
// one evaluator slot owns; the rule filter, the memo and every counter live
// with the optimizer, which derives them from the returned reports.
type AccuracyEstimator struct {
	Eval    *distill.Evaluator
	Teacher distill.TeacherOutputs
	// TrainX is the representative input set (no labels needed).
	TrainX *tensor.Tensor
	Opts   AccuracyOptions
}

// NewAccuracyEstimator builds an estimator over a dataset's train split and
// precomputed teacher outputs.
func NewAccuracyEstimator(ds *data.Dataset, targets map[int]float64, teacher distill.TeacherOutputs, trainX *tensor.Tensor, opts AccuracyOptions) *AccuracyEstimator {
	return &AccuracyEstimator{
		Eval:    &distill.Evaluator{Dataset: ds, Targets: targets},
		Teacher: teacher,
		TrainX:  trainX,
		Opts:    opts,
	}
}

// FineTuneCandidate fine-tunes the candidate graph in place with
// distillation and returns the report (Met tells whether every task target
// was reached). warm marks a candidate mutated from a trained elite: its
// inherited weights are close, so the epoch budget shrinks to half the
// full budget, rounded and at least one epoch (with the regression
// fallback described on distill.Config.WarmEpochs).
func (a *AccuracyEstimator) FineTuneCandidate(g *graph.Graph, seed uint64, warm bool) *distill.Report {
	var hook distill.Hook
	if a.Opts.UseEarlyTermination {
		hook = filter.EarlyTermination{
			TotalEpochs:      a.Opts.FineTune.Epochs,
			Slack:            a.Opts.Slack,
			MinEpochFraction: 0.5,
		}.Hook()
	}
	cfg := a.Opts.FineTune
	cfg.Seed = seed
	if warm {
		cfg.WarmEpochs = max(1, (cfg.Epochs+1)/2)
	}
	return distill.FineTune(g, a.TrainX, a.Teacher, a.Eval, cfg, hook)
}

// LocalEvaluator is the in-process BatchEvaluator: a pool of estimator
// slots over shared immutable inputs (dataset, teacher outputs). A
// goroutine owns a slot exclusively from acquire to release, so two
// in-flight evaluations can never share an estimator (FineTuneCandidate
// drives its embedded evaluator). The slot channel is owned
// by the evaluator, not the batch, so concurrent EvaluateBatch calls (the
// worker server handles HTTP requests independently) still respect the
// global slot bound.
type LocalEvaluator struct {
	slots chan *AccuracyEstimator
	n     int
}

// NewLocalEvaluator builds an evaluator with the given number of slots.
// The slots never consult the rule filter: skip decisions belong to the
// optimizer's serial phase (or to the coordinator, in a distributed run).
func NewLocalEvaluator(ds *data.Dataset, targets map[int]float64, outs distill.TeacherOutputs,
	trainX *tensor.Tensor, accOpts AccuracyOptions, slots int) *LocalEvaluator {
	if slots <= 0 {
		slots = 1
	}
	l := &LocalEvaluator{slots: make(chan *AccuracyEstimator, slots), n: slots}
	for i := 0; i < slots; i++ {
		l.slots <- NewAccuracyEstimator(ds, targets, outs, trainX, accOpts)
	}
	return l
}

// Slots returns the evaluator's concurrency bound.
func (l *LocalEvaluator) Slots() int { return l.n }

// EvaluateBatch implements BatchEvaluator. Kernel-level chunking is
// deterministic (see tensor.ParallelFor), so each outcome depends only on
// (candidate, seed), not on scheduling.
func (l *LocalEvaluator) EvaluateBatch(jobs []EvalJob) []EvalOutcome {
	outs := make([]EvalOutcome, len(jobs))
	var wg sync.WaitGroup
	for ji := range jobs {
		wg.Add(1)
		est := <-l.slots
		go func(ji int, est *AccuracyEstimator) {
			defer func() { l.slots <- est; wg.Done() }()
			j := jobs[ji]
			rep := est.FineTuneCandidate(j.Cand, j.Seed, j.Warm)
			outs[ji] = EvalOutcome{Met: rep.Met, Report: rep}
			if rep.Met {
				outs[ji].Trained = j.Cand
			}
		}(ji, est)
	}
	wg.Wait()
	return outs
}
