// Package core implements GMorph's primary contribution: the graph
// mutation optimization loop of Algorithm 1 together with the simulated
// annealing-based search-space sampling policy (Section 4.3.1). Each
// iteration samples a base abstract graph (an elite candidate with
// probability p, the original multi-DNN graph otherwise), mutates a random
// set of input-shareable node pairs, fine-tunes the result with
// distillation (subject to predictive filtering), and keeps candidates that
// meet the task-accuracy targets as elites for later exploitation.
//
// There is one loop (Optimizer.Run). It samples Config.BatchSize candidates
// per round and evaluates them through a BatchEvaluator; Algorithm 1 is the
// batch of one, and parallel or distributed search is the same loop with a
// larger batch and more evaluator slots.
package core

import (
	"math"
	"strings"
	"time"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Policy selects the base graph for each mutation round.
type Policy interface {
	// PickBase returns the base graph for the next round given the
	// original graph and the current elites.
	PickBase(original *graph.Graph, elites []*Elite, rng *tensor.RNG) *graph.Graph
	// Observe feeds back the outcome of the round (accuracy drop of the
	// trained candidate; met indicates target satisfaction).
	Observe(iter int, drop float64, met bool, numElites int)
}

// SAPolicy is the paper's simulated-annealing sampling policy. The
// probability of exploiting an elite is
//
//	p = (1 - exp(-(1-Δ)/(T_c·T_i))) · sqrt(N_c/N_i)
//
// with the temperature schedule T_c = T_i·α^iter. Early rounds explore from
// the original graph; as the temperature drops and elites accumulate, the
// policy shifts to mutating promising candidates.
type SAPolicy struct {
	// InitialTemp is T_i (paper default 90).
	InitialTemp float64
	// Alpha is the cooling constant (paper default 0.99).
	Alpha float64
	// MaxElites is N_i, the elite list capacity (paper default 16).
	MaxElites int

	p float64
}

// NewSAPolicy returns the policy with the paper's defaults.
func NewSAPolicy() *SAPolicy {
	return &SAPolicy{InitialTemp: 90, Alpha: 0.99, MaxElites: 16}
}

// PickBase implements Policy.
func (s *SAPolicy) PickBase(original *graph.Graph, elites []*Elite, rng *tensor.RNG) *graph.Graph {
	if len(elites) > 0 && rng.Float64() < s.p {
		return elites[rng.Intn(len(elites))].Graph
	}
	return original
}

// Observe implements Policy, updating p with the paper's formula.
func (s *SAPolicy) Observe(iter int, drop float64, met bool, numElites int) {
	tc := s.InitialTemp * math.Pow(s.Alpha, float64(iter))
	if drop < 0 {
		drop = 0
	}
	if drop > 1 {
		drop = 1
	}
	nc := float64(numElites)
	ni := float64(s.MaxElites)
	if nc > ni {
		nc = ni
	}
	s.p = (1 - math.Exp(-(1-drop)/(tc*s.InitialTemp))) * math.Sqrt(nc/ni)
}

// P exposes the current exploitation probability (for tests and logs).
func (s *SAPolicy) P() float64 { return s.p }

// RandomPolicy is the baseline from Section 6.4: every round mutates the
// original multi-DNN graph, never exploiting previous candidates.
type RandomPolicy struct{}

// PickBase implements Policy.
func (RandomPolicy) PickBase(original *graph.Graph, elites []*Elite, rng *tensor.RNG) *graph.Graph {
	return original
}

// Observe implements Policy.
func (RandomPolicy) Observe(int, float64, bool, int) {}

// Elite is a trained candidate that met the accuracy targets.
type Elite struct {
	Graph *graph.Graph
	// Latency is the measured inference latency (engine.Latency: the
	// compiled plan at batch 1).
	Latency time.Duration
	// FLOPs is the analytic per-sample cost.
	FLOPs int64
	// Accuracy is the per-task test metric after fine-tuning.
	Accuracy map[int]float64
	// FromElite records whether the candidate was mutated from another
	// elite (true) or from the original graph (false).
	FromElite bool
	// FineTuneTime is the wall-clock spent training the candidate.
	FineTuneTime time.Duration
	// Iteration is the round that produced the candidate.
	Iteration int
}

// Metric selects the optimization objective.
type Metric int

// Objectives.
const (
	// OptimizeLatency minimizes measured inference time (paper default).
	OptimizeLatency Metric = iota
	// OptimizeFLOPs minimizes the analytic operation count.
	OptimizeFLOPs
)

// Config parameterizes the optimization loop.
type Config struct {
	// Rounds is N, the candidate budget (paper: 200): Rounds/BatchSize
	// algorithmic rounds of BatchSize candidates each, at least one.
	Rounds int
	// BatchSize is the number of candidates sampled per algorithmic round;
	// elites, filter history, the memo and the policy merge between rounds.
	// 1 is the paper's Algorithm 1; larger batches are the parallel
	// simulated annealing sketched in its Discussion (Section 7). Unset
	// means 1, or 4 when Evaluator is set. It is independent of Workers, so
	// the trajectory is a function of Seed and BatchSize only.
	BatchSize int
	// Workers is the number of in-process evaluation slots (default 2,
	// never more than BatchSize). It only controls concurrency: for a fixed
	// Seed and BatchSize the Result is the same for any value (see the
	// determinism test). Ignored when Evaluator is set.
	Workers int
	// Evaluator evaluates each round's candidate batch. Nil means a
	// LocalEvaluator with Workers slots; a coord.Pool fans the batch out
	// across worker processes. Fine-tune seeds are a pure function of
	// fingerprints, so any evaluator produces the same outcomes.
	Evaluator BatchEvaluator
	// MaxPairsPerPass bounds how many node pairs one mutation pass applies
	// (1-2 in the paper's examples; default 2).
	MaxPairsPerPass int
	// Metric is the objective (default latency).
	Metric Metric
	// Policy is the sampling policy (default the SA policy).
	Policy Policy
	// Seed drives all sampling.
	Seed uint64
	// TimeBudget optionally stops the search after the given wall-clock
	// duration (0 = unlimited).
	TimeBudget time.Duration
	// OnRound, when non-nil, observes each round's trace entry as it is
	// appended (for live progress reporting).
	OnRound func(Trace)
	// DisableMemo turns off the fingerprint-keyed candidate and latency
	// caches, forcing every sampled duplicate to be re-distilled and
	// re-measured (the pre-memoization behavior; mainly for A/B tests).
	DisableMemo bool
	// Memo is the fingerprint-keyed result store backing the search memo
	// (nil: NewDiskMemo(""), in-process only). A file-backed DiskMemo
	// shares one corpus across processes and runs.
	Memo *DiskMemo
}

func (c Config) withDefaults() Config {
	if c.Rounds == 0 {
		c.Rounds = 50
	}
	if c.MaxPairsPerPass == 0 {
		c.MaxPairsPerPass = 2
	}
	if c.Policy == nil {
		c.Policy = NewSAPolicy()
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 1
		if c.Evaluator != nil {
			c.BatchSize = 4
		}
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Workers > c.BatchSize {
		c.Workers = c.BatchSize
	}
	return c
}

// Rule names: which filter, budget, or verdict decided a candidate's fate.
const (
	// RuleCapacity marks a candidate rejected by the capacity rule filter
	// before fine-tuning (the paper's "GMorph w P+R" skip).
	RuleCapacity = "capacity-rule"
	// RuleMemo marks a candidate whose outcome replayed from the
	// fingerprint memo instead of being re-measured.
	RuleMemo = "memo-replay"
	// RuleAccuracyMet marks a measured candidate that reached every
	// per-task accuracy target.
	RuleAccuracyMet = "accuracy-met"
	// RuleAccuracyBudget marks a measured candidate that missed at least
	// one per-task accuracy target.
	RuleAccuracyBudget = "accuracy-budget"
	// RuleEvalError marks a candidate whose evaluation failed outright
	// (e.g. a worker transport error in a distributed search).
	RuleEvalError = "eval-error"
)

// Outcome values.
const (
	OutcomeAccepted = "accepted"
	OutcomeRejected = "rejected"
	OutcomeSkipped  = "skipped"
)

// Scores is a (margin, latency) score pair. Margin is the minimum per-task
// accuracy headroom over the targets — negative means the budget is
// violated. LatencyNS is 0 when unknown (the search only measures latency
// for candidates that meet the targets).
type Scores struct {
	Margin    float64 `json:"margin"`
	LatencyNS float64 `json:"latency_ns,omitempty"`
}

// Trace is the search's one record per sampled candidate: what was tried,
// what measurement said, which rule fired, and where the search stood when
// it was merged. Figure 8's latency-vs-search-time curves are plotted from
// these, and internal/search/explain persists and renders them (the JSON
// tags are the decision-file format; Terminated and the wall-clock fields
// stay out of it).
type Trace struct {
	// Iteration is the search round that sampled the candidate.
	Iteration int `json:"iteration"`
	// Fingerprint is the candidate's canonical structural hash (empty for
	// rule-skipped candidates, whose fingerprint is never computed).
	Fingerprint string `json:"fingerprint,omitempty"`
	// FromElite tells whether the base graph was an elite.
	FromElite bool `json:"from_elite,omitempty"`
	// Mutation describes the share-point pairs the mutation pass merged.
	Mutation string `json:"mutation,omitempty"`
	// Outcome is accepted, rejected, or skipped.
	Outcome string `json:"outcome"`
	// Rule names the filter, budget, or verdict that decided the outcome.
	Rule string `json:"rule"`
	// CacheHit is true when the verdict replayed from the fingerprint memo
	// instead of being fine-tuned.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Warm is true when fine-tuning ran (or, replayed, had run) under the
	// shrunken warm-start budget (inherited elite weights).
	Warm bool `json:"warm,omitempty"`
	// Measured holds the measured scores (nil for skipped candidates).
	Measured *Scores `json:"measured,omitempty"`
	// Accuracy is the fine-tuned per-task metric (met candidates only).
	Accuracy map[int]float64 `json:"accuracy,omitempty"`
	// EpochsRun counts the fine-tuning epochs spent (or replayed).
	EpochsRun int `json:"epochs_run,omitempty"`
	// Elite is true when the candidate joined the elite list.
	Elite bool `json:"elite,omitempty"`
	// Best is true when the candidate became the incumbent best when it
	// was merged.
	Best bool `json:"best,omitempty"`
	// Detail carries extra context (error text, replay provenance).
	Detail string `json:"detail,omitempty"`
	// Terminated is true when early termination cancelled fine-tuning.
	Terminated bool `json:"-"`
	// BestLatency is the best latency found so far, 0 until a candidate
	// meets the targets.
	BestLatency time.Duration `json:"-"`
	// Elapsed is the cumulative search time when the round finished.
	Elapsed time.Duration `json:"-"`
	// FineTuneTime is the candidate's training time (replayed: the time
	// the memoized run spent).
	FineTuneTime time.Duration `json:"-"`
}

// Met reports whether the candidate reached the accuracy targets.
func (t Trace) Met() bool { return t.Outcome == OutcomeAccepted }

// Skipped reports whether the capacity rule filter rejected the candidate.
func (t Trace) Skipped() bool { return t.Rule == RuleCapacity }

// Result is the outcome of a search.
type Result struct {
	// Best is the lowest-cost trained multi-task model meeting the
	// targets; nil when no candidate met them (callers fall back to the
	// original graph).
	Best *Elite
	// Elites holds every accepted candidate (up to the policy capacity).
	Elites []*Elite
	// Traces holds one record per sampled candidate, in merge order.
	Traces []Trace
	// SearchTime is the total wall-clock spent.
	SearchTime time.Duration
	// OriginalLatency is the original graph's latency, memoized like every
	// candidate's: the incumbent cost a latency-objective Best had to beat.
	OriginalLatency time.Duration
	// Evaluated counts candidates that entered evaluation (incl. skipped
	// and cache-replayed ones).
	Evaluated int
	// Stats aggregates filtering, memoization, and warm-start counters.
	Stats SearchStats
}

// describePairs renders the share-point pairs one mutation pass merged, for
// the decision report ("which share points were tried").
func describePairs(pairs []graph.Pair) string {
	var b strings.Builder
	for i, p := range pairs {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(p.Guest.ID())
		b.WriteString(" -> ")
		b.WriteString(p.Host.ID())
	}
	return b.String()
}
