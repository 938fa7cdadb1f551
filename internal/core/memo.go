package core

import (
	"sort"
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
	// PredictorSkipped counts candidates the learned pre-ranker rejected
	// without fine-tuning; PredictorForced counts predictor-rejected
	// candidates that periodic forced exploration measured anyway.
	PredictorSkipped int `json:"predictor_skipped"`
	PredictorForced  int `json:"predictor_forced"`
	// EvalErrors counts candidates whose evaluation failed outright (e.g.
	// a worker transport error in a distributed search). Always 0 for
	// in-process evaluation.
	EvalErrors int `json:"eval_errors"`
}

// MemoEntry is one memoized candidate outcome, keyed by structural
// fingerprint. It stores everything a replay needs to reproduce the round
// bookkeeping of the original evaluation — the verdict, the fine-tuning
// counters, the measured accuracy, and, for candidates that met the
// targets, the trained graph for direct weight transfer — plus the graph
// features and accuracy margin the learned pre-ranker trains on (recorded
// for failed candidates too: misses are exactly what the predictor must
// learn to veto).
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
	// Features is the candidate's feature vector (see Features), the
	// predictor's training row.
	Features []float64
	// Trained holds the fine-tuned graph (met candidates only).
	Trained *graph.Graph
}

// MemoStore is the pluggable fingerprint-keyed result store behind the
// search memo: the in-process MemoryMemo, or DiskMemo when several worker
// processes (or successive runs) must converge on one shared corpus.
//
// The optimizer calls every method from its serial sample/merge phases
// only, which is what keeps the search deterministic in the seed regardless
// of evaluation concurrency; implementations therefore do not need to
// support concurrent mutation from the search itself (DiskMemo locks anyway
// because Save may race a concurrent process touching the same file).
type MemoStore interface {
	// Lookup returns the entry for a fingerprint, or nil.
	Lookup(fp uint64) *MemoEntry
	// Insert stores an outcome. The first insert of a fingerprint wins;
	// later inserts are dropped, so replay behavior does not depend on
	// evaluation order.
	Insert(fp uint64, e *MemoEntry)
	// Latency returns the memoized latency for a fingerprint. Persistent
	// stores key latencies by machine signature under the hood: a latency
	// measured on one machine must never replay on another.
	Latency(fp uint64) (time.Duration, bool)
	// SetLatency memoizes a latency measurement (first write wins).
	SetLatency(fp uint64, d time.Duration)
	// Range visits all entries in ascending fingerprint order (so corpus
	// consumers like predictor priming are deterministic).
	Range(fn func(fp uint64, e *MemoEntry))
	// Len returns the number of entries.
	Len() int
}

// MemoryMemo is the in-process MemoStore: plain maps, no locking (see the
// MemoStore contract).
type MemoryMemo struct {
	entries map[uint64]*MemoEntry
	lat     map[uint64]time.Duration
}

// NewMemoryMemo returns an empty in-process store.
func NewMemoryMemo() *MemoryMemo {
	return &MemoryMemo{
		entries: make(map[uint64]*MemoEntry),
		lat:     make(map[uint64]time.Duration),
	}
}

// Lookup implements MemoStore.
func (m *MemoryMemo) Lookup(fp uint64) *MemoEntry { return m.entries[fp] }

// Insert implements MemoStore (first insert wins).
func (m *MemoryMemo) Insert(fp uint64, e *MemoEntry) {
	if _, ok := m.entries[fp]; !ok {
		m.entries[fp] = e
	}
}

// Latency implements MemoStore.
func (m *MemoryMemo) Latency(fp uint64) (time.Duration, bool) {
	d, ok := m.lat[fp]
	return d, ok
}

// SetLatency implements MemoStore.
func (m *MemoryMemo) SetLatency(fp uint64, d time.Duration) {
	if _, ok := m.lat[fp]; !ok {
		m.lat[fp] = d
	}
}

// Range implements MemoStore, visiting entries in fingerprint order.
func (m *MemoryMemo) Range(fn func(fp uint64, e *MemoEntry)) {
	fps := make([]uint64, 0, len(m.entries))
	for fp := range m.entries {
		fps = append(fps, fp)
	}
	sort.Slice(fps, func(i, j int) bool { return fps[i] < fps[j] })
	for _, fp := range fps {
		fn(fp, m.entries[fp])
	}
}

// Len implements MemoStore.
func (m *MemoryMemo) Len() int { return len(m.entries) }

// searchCache adapts a MemoStore to the optimizer: it owns the
// enabled/disabled decision and the consultation counters, so the store
// implementations stay policy-free.
type searchCache struct {
	enabled bool
	store   MemoStore
}

// newSearchCache wraps the given store (a fresh MemoryMemo when nil).
func newSearchCache(enabled bool, store MemoStore) *searchCache {
	if store == nil {
		store = NewMemoryMemo()
	}
	return &searchCache{enabled: enabled, store: store}
}

// insert stores an outcome (first evaluation of a fingerprint wins).
func (c *searchCache) insert(fp uint64, e *MemoEntry) {
	if !c.enabled {
		return
	}
	c.store.Insert(fp, e)
}

// latency memoizes a latency measurement by fingerprint: structurally
// identical graphs execute the same op schedule, so re-measuring a duplicate
// buys noise, not information.
func (c *searchCache) latency(fp uint64, st *SearchStats, measure func() time.Duration) time.Duration {
	if !c.enabled {
		return measure()
	}
	if d, ok := c.store.Latency(fp); ok {
		st.LatencyHits++
		return d
	}
	st.LatencyMisses++
	d := measure()
	c.store.SetLatency(fp, d)
	return d
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
