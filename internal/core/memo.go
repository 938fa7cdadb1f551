package core

import (
	"time"

	"repro/internal/graph"
)

// SearchStats aggregates the search-time filtering, memoization, and
// warm-start counters of one optimization run. The optimizer counts in its
// serial phases — filters at sampling time, evaluation reports at merge
// time — so the totals are identical for any Workers value.
type SearchStats struct {
	// CacheHits / CacheMisses count candidate-outcome cache consultations
	// (duplicate candidates scored without re-distilling vs. fresh
	// evaluations). Both stay 0 when memoization is disabled.
	CacheHits   int `json:"cache_hits"`
	CacheMisses int `json:"cache_misses"`
	// LatencyHits / LatencyMisses count latency-memo consultations for
	// candidates that met the targets.
	LatencyHits   int `json:"latency_hits"`
	LatencyMisses int `json:"latency_misses"`
	// WarmStarted counts fine-tuning runs that ran under a shrunken
	// warm-start budget; WarmFallbacks counts those whose first evaluation
	// regressed and fell back to the full budget.
	WarmStarted   int `json:"warm_started"`
	WarmFallbacks int `json:"warm_fallbacks"`
	// Filtering effectiveness.
	SkippedByRule   int `json:"skipped_by_rule"`
	EarlyTerminated int `json:"early_terminated"`
	FineTuned       int `json:"fine_tuned"`
	TotalEpochs     int `json:"total_epochs"`
	// EvalErrors counts candidates whose evaluation failed outright (e.g.
	// a worker transport error in a distributed search). Always 0 for
	// in-process evaluation.
	EvalErrors int `json:"eval_errors"`
}

// MemoEntry is one memoized candidate outcome, keyed by structural
// fingerprint. It stores everything a replay needs to reproduce the round
// bookkeeping of the original evaluation — the verdict, the fine-tuning
// counters, the measured accuracy, and, for candidates that met the
// targets, the trained graph for direct weight transfer — plus the
// accuracy margin (recorded for failed candidates too).
type MemoEntry struct {
	Met          bool
	Terminated   bool
	WarmStarted  bool
	WarmFellBack bool
	EpochsRun    int
	TrainTime    time.Duration
	Accuracy     map[int]float64
	// Margin is the minimum per-task accuracy headroom over the targets at
	// evaluation time (negative: the budget was violated; -1 when the run
	// produced no final accuracy at all).
	Margin float64
	FLOPs  int64
	// Trained holds the fine-tuned graph (met candidates only).
	Trained *graph.Graph
}

// replayGraph materializes the trained model for a cache-hit elite. The
// cached trained weights are transplanted into the freshly sampled duplicate
// (direct weight transfer via graph.InheritWeights); if node identities do
// not line up — the duplicate is isomorphic but was labeled differently —
// the cached graph is cloned instead.
func replayGraph(cand *graph.Graph, e *MemoEntry) *graph.Graph {
	if copied, total := graph.InheritWeights(cand, e.Trained); copied == total {
		return cand
	}
	return e.Trained.Clone()
}

// copyAccuracy clones a per-task accuracy map. Cache entries keep their own
// copy and every replayed elite gets its own, so mutating one elite's map can
// never corrupt the cache or a sibling elite.
func copyAccuracy(m map[int]float64) map[int]float64 {
	acc := make(map[int]float64, len(m))
	for id, v := range m {
		acc[id] = v
	}
	return acc
}

// memoSeed derives a candidate's fine-tuning seed from the search seed and
// the candidate's structural fingerprint (splitmix64 finalizer). Duplicate
// candidates therefore fine-tune identically, which is what makes their
// evaluation redundant work the cache can elide without changing the search:
// with caching off the duplicate re-runs to the same outcome, with caching
// on the outcome replays from the cache. The same property is what lets a
// remote worker's evaluation stand in for a local one.
func memoSeed(seed, fp uint64) uint64 {
	x := seed ^ (fp * 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
