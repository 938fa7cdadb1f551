// Package estimator implements GMorph's Performance Estimation component
// (Section 5): FLOPs counting, latency measurement by timed execution on
// the target substrate, and the accuracy estimator that fine-tunes
// candidates with distillation while applying predictive filtering.
package estimator

import (
	"time"

	"repro/internal/data"
	"repro/internal/distill"
	"repro/internal/filter"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/tensor"
	"repro/internal/timing"
)

// FLOPs returns the analytic per-sample floating point operation count of
// the graph.
func FLOPs(g *graph.Graph) int64 { return g.FLOPs() }

// LatencyOptions controls latency measurement.
type LatencyOptions struct {
	// Batch is the inference batch size (default 8).
	Batch int
	// Warmup executions are discarded (default 1).
	Warmup int
	// Runs timed executions are performed; the minimum is reported (see
	// internal/timing for the rationale). Default 5.
	Runs int
	// Compiled times a compiled execution plan (what cmd/serve deploys)
	// instead of the eager graph walk. Compilation happens outside the
	// timing loop, so the measurement reflects steady-state serving cost.
	Compiled bool
}

func (o LatencyOptions) withDefaults() LatencyOptions {
	if o.Batch <= 0 {
		o.Batch = 8
	}
	if o.Warmup <= 0 {
		o.Warmup = 1
	}
	if o.Runs <= 0 {
		o.Runs = 5
	}
	return o
}

// Latency measures the graph's inference wall-clock on a synthetic batch
// shaped like the graph input. With opts.Compiled it measures a compiled
// plan instance rather than the eager walk. Compilation happens before the
// timing loop, so when a kernel tuner is installed (plan.SetTuner) the
// measurement reflects tuned steady-state kernels while any tuning cost —
// at most one measurement sweep per distinct layer shape, then winner-cache
// hits — stays outside the timed region. SA search loops that compare
// thousands of candidates should install a tuner in load (never-measure)
// mode or prewarm the cache, so candidate latencies stay comparable.
func Latency(g *graph.Graph, opts LatencyOptions) time.Duration {
	opts = opts.withDefaults()
	x, handle := inputBatch(g, opts.Batch)
	defer tensor.PutBuf(handle)
	if opts.Compiled {
		inst := plan.Compile(g).NewInstance()
		return timing.MinOfRuns(opts.Warmup, opts.Runs, func() { inst.Execute(x) })
	}
	return timing.MinOfRuns(opts.Warmup, opts.Runs, func() { g.Forward(x, false) })
}

// inputBatch builds a batch matching the graph's input domain: gaussian
// pixels for image inputs, token id zeros for raw token inputs. The batch
// is drawn from the tensor arena — SA search measures latency thousands of
// times, so these short-lived batches would otherwise be pure GC churn —
// and must be released via tensor.PutBuf once measurement is done.
func inputBatch(g *graph.Graph, batch int) (*tensor.Tensor, *[]float32) {
	shape := append([]int{batch}, g.Root.InputShape...)
	x, handle := tensor.GetTensor(shape...)
	if len(g.Root.InputShape) != 1 { // images
		tensor.NewRNG(1).FillNormal(x, 0, 1)
	}
	return x, handle
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
