package core

import (
	"time"

	"repro/internal/data"
	"repro/internal/distill"
	"repro/internal/engine"
	"repro/internal/filter"
	"repro/internal/fingerprint"
	"repro/internal/graph"
	"repro/internal/mutation"
	"repro/internal/tensor"
)

// Optimizer runs graph mutation optimization. Each algorithmic round has
// three phases: sample BatchSize candidates serially, evaluate the ones that
// survive the filters through the batch evaluator, merge the outcomes
// serially. All stateful search machinery — candidate sampling, the
// rule-based filter, the memo, elite merging, policy observation — lives
// in the serial phases, which makes the search deterministic in (Seed,
// BatchSize) regardless of evaluation concurrency (local slots or remote
// workers). With BatchSize 1 a round is one
// iteration of the paper's Algorithm 1: sample, evaluate, merge, observe.
type Optimizer struct {
	cfg      Config
	original *graph.Graph
	ds       *data.Dataset
	eval     *distill.Evaluator
	outs     distill.TeacherOutputs
	trainX   *tensor.Tensor
	accOpts  AccuracyOptions
}

// NewOptimizer builds an optimizer over the original multi-DNN graph. It
// takes the raw evaluation inputs — dataset, per-task targets, teacher
// outputs, representative inputs, estimator options — so that it can build
// one estimator per local evaluation slot.
func NewOptimizer(original *graph.Graph, ds *data.Dataset, targets map[int]float64,
	outs distill.TeacherOutputs, trainX *tensor.Tensor, accOpts AccuracyOptions,
	cfg Config) *Optimizer {
	return &Optimizer{
		cfg: cfg.withDefaults(), original: original, ds: ds,
		eval: &distill.Evaluator{Dataset: ds, Targets: targets},
		outs: outs, trainX: trainX, accOpts: accOpts,
	}
}

// job is one sampled candidate awaiting evaluation.
type job struct {
	cand      *graph.Graph
	fromElite bool
	seed      uint64
	iteration int
	profile   graph.CapacityProfile
	skipped   bool
	mutation  string
	// fp is the candidate's structural fingerprint (only set when the
	// candidate was not rule-skipped).
	fp uint64
	// warm marks a candidate mutated from a trained elite; it fine-tunes
	// under the shrunken warm-start budget.
	warm bool
	// entry, when non-nil, is the memoized outcome the merge phase replays
	// instead of evaluating the candidate.
	entry *MemoEntry
	// aliasOf, when >= 0, is the index of an earlier job in the same batch
	// with the same fingerprint: the alias replays that job's freshly
	// merged memo entry instead of re-evaluating, so a duplicate-heavy
	// batch measures each structure exactly once.
	aliasOf int
	// evalIdx indexes this job's EvalOutcome in the round's evaluation
	// batch, -1 when the job does not evaluate.
	evalIdx int
}

// outcome is the result of merging one candidate: its record, the elite it
// produced (nil unless it met the targets), and the policy's drop.
type outcome struct {
	trace Trace
	elite *Elite
	drop  float64
}

// Run executes the search and returns the best model found. Rounds is the
// total candidate budget: Rounds/BatchSize rounds are executed, each
// evaluating up to BatchSize candidates through the batch evaluator.
func (o *Optimizer) Run() *Result {
	cfg := o.cfg
	rng := tensor.NewRNG(cfg.Seed)
	res := &Result{}
	start := time.Now()
	maxElites := 16
	if sa, ok := cfg.Policy.(*SAPolicy); ok {
		maxElites = sa.MaxElites
	}
	// The original multi-DNN graph is the incumbent: a candidate only
	// becomes Best if it beats the original's cost, so the search never
	// recommends a model slower than what the user already has.
	o.original.RefreshCapacities()
	incumbent := &Elite{
		Graph:   o.original,
		Latency: engine.Latency(o.original),
		FLOPs:   o.original.FLOPs(),
	}
	res.OriginalLatency = incumbent.Latency
	// The rule-based filter lives here, not inside the evaluator: skip
	// decisions are taken serially at sampling time and failures are
	// recorded serially at merge time, so the filter sees an identical
	// history for any evaluation concurrency.
	useRule := o.accOpts.UseRuleFilter
	rule := filter.NewRuleBased()
	evaluator := cfg.Evaluator
	if evaluator == nil {
		evaluator = NewLocalEvaluator(o.ds, o.eval.Targets, o.outs, o.trainX, o.accOpts, cfg.Workers)
	}
	// Like the filter, the memo is only read during serial sampling and
	// only written during serial merging, so cache hits land on the same
	// candidates for any evaluation concurrency. Duplicates sampled within
	// one batch alias the first occurrence (aliasOf) and replay its entry
	// at merge time — zero duplicate measurements even inside a batch.
	memo := cfg.Memo
	if memo == nil {
		memo, _ = NewDiskMemo("") // the empty path reads no file, so cannot fail
	}
	useMemo := !cfg.DisableMemo

	rounds := cfg.Rounds / cfg.BatchSize
	if rounds == 0 {
		rounds = 1
	}
	iter := 0
	for r := 0; r < rounds; r++ {
		if cfg.TimeBudget > 0 && time.Since(start) > cfg.TimeBudget {
			break
		}
		// Phase 1 (serial): sample the round's candidates. Every draw —
		// base pick, pair choice, per-candidate mutator stream, fine-tune
		// seed — comes from the master rng in a fixed order, and every
		// filter (rule, memo, batch alias) decides here.
		var jobs []job
		var evalJobs []EvalJob
		batchFp := make(map[uint64]int)
		for c := 0; c < cfg.BatchSize; c++ {
			iter++
			base := cfg.Policy.PickBase(o.original, res.Elites, rng)
			pairs := base.ShareablePairs()
			if len(pairs) == 0 {
				continue
			}
			k := 1 + rng.Intn(cfg.MaxPairsPerPass)
			chosen := make([]graph.Pair, 0, k)
			for i := 0; i < k; i++ {
				chosen = append(chosen, pairs[rng.Intn(len(pairs))])
			}
			mut := mutation.NewMutator(rng.Split())
			mres, err := mut.Apply(base, chosen)
			if err != nil {
				continue
			}
			j := job{
				cand: mres.Graph, fromElite: base != o.original,
				iteration: iter, mutation: describePairs(chosen),
				aliasOf: -1, evalIdx: -1,
			}
			j.cand.RefreshCapacities()
			j.profile = j.cand.Capacity()
			switch {
			case useRule && rule.ShouldSkip(j.profile):
				j.skipped = true
				res.Stats.SkippedByRule++
			default:
				j.fp = fingerprint.Hash(j.cand)
				if useMemo {
					if j.entry = memo.Lookup(j.fp); j.entry != nil {
						res.Stats.CacheHits++
					} else if first, ok := batchFp[j.fp]; ok {
						// An earlier candidate in this batch has the same
						// structure; its (identically seeded) evaluation
						// will stand in for this one.
						res.Stats.CacheHits++
						j.aliasOf = first
					} else {
						res.Stats.CacheMisses++
					}
				}
				if j.entry == nil && j.aliasOf < 0 {
					// The fine-tune seed is a function of the search seed and
					// the structural fingerprint, so duplicates train
					// identically — which is what makes a memo replay (or a
					// remote evaluation) equivalent to re-evaluating.
					j.seed = memoSeed(cfg.Seed, j.fp)
					j.warm = j.fromElite
					if useMemo {
						batchFp[j.fp] = len(jobs)
					}
					j.evalIdx = len(evalJobs)
					evalJobs = append(evalJobs, EvalJob{
						Cand: j.cand, Seed: j.seed, Warm: j.warm,
					})
				}
			}
			jobs = append(jobs, j)
		}

		// Phase 2 (parallel): evaluate the surviving candidates through the
		// batch evaluator — in-process estimator slots, or remote workers.
		var evalOuts []EvalOutcome
		if len(evalJobs) > 0 {
			evalOuts = evaluator.EvaluateBatch(evalJobs)
		}
		// Evaluated counts every sampled candidate, including skipped and
		// replayed ones (see Result.Evaluated).
		res.Evaluated += len(jobs)

		// Phase 3 (serial): merge outcomes in candidate order. Everything the
		// next round's sampling can observe — elites, filter history, the
		// memo, latency measurements, policy feedback — is produced here,
		// in a deterministic order.
		for ji := range jobs {
			oc := o.merge(&jobs[ji], evalOuts, memo, rule, res)
			tr := oc.trace
			if oc.elite != nil {
				res.Elites = append(res.Elites, oc.elite)
				if len(res.Elites) > maxElites {
					res.Elites = res.Elites[1:]
				}
				if (res.Best == nil && better(cfg.Metric, oc.elite, incumbent)) ||
					(res.Best != nil && better(cfg.Metric, oc.elite, res.Best)) {
					res.Best = oc.elite
				}
				tr.Elite, tr.Best = true, res.Best == oc.elite
			}
			if res.Best != nil {
				tr.BestLatency = res.Best.Latency
			}
			tr.Elapsed = time.Since(start)
			res.Traces = append(res.Traces, tr)
			if cfg.OnRound != nil {
				cfg.OnRound(tr)
			}
			cfg.Policy.Observe(tr.Iteration, oc.drop, oc.elite != nil, len(res.Elites))
		}
	}
	res.SearchTime = time.Since(start)
	return res
}

// merge folds one job's outcome into the search state and returns its
// record. It runs in the serial phase, in candidate order.
func (o *Optimizer) merge(j *job, evalOuts []EvalOutcome, memo *DiskMemo,
	rule *filter.RuleBased, res *Result) outcome {
	oc := outcome{drop: 1}
	tr := &oc.trace
	tr.Iteration, tr.FromElite, tr.Mutation = j.iteration, j.fromElite, j.mutation
	if !j.skipped {
		tr.Fingerprint = fpKey(j.fp)
	}

	switch {
	case j.skipped:
		// Rule-skipped candidates record no failure: the rule already
		// acted on the history that produced it.
		tr.Outcome, tr.Rule = OutcomeSkipped, RuleCapacity

	case j.entry != nil || j.aliasOf >= 0:
		e := j.entry
		if e == nil {
			// The first occurrence of this fingerprint merged earlier in
			// this batch; replay the entry it just published.
			if e = memo.Lookup(j.fp); e == nil {
				// The original evaluation errored and was not memoized.
				res.Stats.EvalErrors++
				tr.Outcome, tr.Rule = OutcomeRejected, RuleEvalError
				tr.Detail = "duplicate of a candidate whose evaluation failed"
				break
			}
			tr.Detail = "replayed a duplicate evaluated earlier in the same batch"
		}
		tr.CacheHit = true
		var g *graph.Graph
		if e.Met {
			g = replayGraph(j.cand, e)
		}
		o.fold(&oc, j, e, g, memo, rule, res)

	default:
		out := evalOuts[j.evalIdx]
		if out.Err != nil {
			res.Stats.EvalErrors++
			tr.Outcome, tr.Rule, tr.Detail = OutcomeRejected, RuleEvalError, out.Err.Error()
			break
		}
		e := &MemoEntry{Met: out.Met, Margin: -1}
		if rep := out.Report; rep != nil {
			e.Terminated, e.EpochsRun, e.TrainTime = rep.Terminated, rep.EpochsRun, rep.TrainTime
			e.WarmStarted, e.WarmFellBack = rep.WarmStarted, rep.WarmFellBack
			if len(rep.Final) > 0 {
				e.Margin = o.eval.MinMargin(rep.Final)
			}
		}
		st := &res.Stats
		st.FineTuned++
		st.TotalEpochs += e.EpochsRun
		if e.Terminated {
			st.EarlyTerminated++
		}
		if e.WarmStarted {
			st.WarmStarted++
		}
		if e.WarmFellBack {
			st.WarmFallbacks++
		}
		trained := out.Trained
		if out.Met {
			if trained == nil {
				trained = j.cand
			}
			e.Trained, e.FLOPs = trained, trained.FLOPs()
			e.Accuracy = copyAccuracy(out.Report.Final)
		}
		if !o.cfg.DisableMemo {
			memo.Insert(j.fp, e)
		}
		o.fold(&oc, j, e, trained, memo, rule, res)
	}
	return oc
}

// fold merges one outcome into the round — a fresh evaluation's entry, a
// memo replay and an in-batch alias alike: the record's verdict, rule and
// measured scores, the elite (g is its trained graph, met outcomes only)
// with its memoized latency, the policy's drop, and the rule filter's
// failure history.
func (o *Optimizer) fold(oc *outcome, j *job, e *MemoEntry, g *graph.Graph,
	memo *DiskMemo, rule *filter.RuleBased, res *Result) {
	tr := &oc.trace
	tr.Terminated, tr.EpochsRun, tr.FineTuneTime, tr.Warm = e.Terminated, e.EpochsRun, e.TrainTime, e.WarmStarted
	tr.Measured = &Scores{Margin: e.Margin}
	switch {
	case tr.CacheHit:
		tr.Rule = RuleMemo
	case e.Met:
		tr.Rule = RuleAccuracyMet
	default:
		tr.Rule = RuleAccuracyBudget
	}
	if !e.Met {
		rule.RecordFailure(j.profile)
		tr.Outcome = OutcomeRejected
		return
	}
	lat := o.latency(memo, j.fp, g, &res.Stats)
	acc := copyAccuracy(e.Accuracy)
	oc.elite = &Elite{
		Graph: g, Latency: lat, FLOPs: e.FLOPs, Accuracy: acc,
		FromElite: j.fromElite, FineTuneTime: e.TrainTime, Iteration: j.iteration,
	}
	if oc.drop = -o.eval.MinMargin(acc); oc.drop < 0 {
		oc.drop = 0
	}
	tr.Outcome, tr.Accuracy = OutcomeAccepted, copyAccuracy(e.Accuracy)
	tr.Measured.LatencyNS = float64(lat)
}

// latency measures a met candidate's trained graph, memoized by fingerprint
// unless the memo is off: structurally identical graphs execute the same op
// schedule, so re-measuring a duplicate buys noise, not information.
func (o *Optimizer) latency(memo *DiskMemo, fp uint64, g *graph.Graph, st *SearchStats) time.Duration {
	if o.cfg.DisableMemo {
		return engine.Latency(g)
	}
	if d, ok := memo.Latency(fp); ok {
		st.LatencyHits++
		return d
	}
	st.LatencyMisses++
	d := engine.Latency(g)
	memo.SetLatency(fp, d)
	return d
}

func better(metric Metric, a, b *Elite) bool {
	if metric == OptimizeFLOPs {
		return a.FLOPs < b.FLOPs
	}
	return a.Latency < b.Latency
}
