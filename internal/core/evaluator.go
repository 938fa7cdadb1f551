package core

import (
	"sync"

	"repro/internal/data"
	"repro/internal/distill"
	"repro/internal/estimator"
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

// LocalEvaluator is the in-process BatchEvaluator: a pool of estimator
// slots over shared immutable inputs (dataset, teacher outputs). A
// goroutine owns a slot exclusively from acquire to release, so two
// in-flight evaluations can never share an estimator (FineTuneCandidate
// drives its embedded evaluator). The slot channel is owned
// by the evaluator, not the batch, so concurrent EvaluateBatch calls (the
// worker server handles HTTP requests independently) still respect the
// global slot bound.
type LocalEvaluator struct {
	slots chan *estimator.AccuracyEstimator
	n     int
}

// NewLocalEvaluator builds an evaluator with the given number of slots.
// The slots never consult the rule filter: skip decisions belong to the
// optimizer's serial phase (or to the coordinator, in a distributed run).
func NewLocalEvaluator(ds *data.Dataset, targets map[int]float64, outs distill.TeacherOutputs,
	trainX *tensor.Tensor, accOpts estimator.AccuracyOptions, slots int) *LocalEvaluator {
	if slots <= 0 {
		slots = 1
	}
	l := &LocalEvaluator{slots: make(chan *estimator.AccuracyEstimator, slots), n: slots}
	for i := 0; i < slots; i++ {
		l.slots <- estimator.NewAccuracyEstimator(ds, targets, outs, trainX, accOpts)
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
		go func(ji int, est *estimator.AccuracyEstimator) {
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
