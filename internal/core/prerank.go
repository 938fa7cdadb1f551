package core

// PrerankScore is a pre-ranker's assessment of one candidate, taken before
// any fine-tuning cost is paid.
type PrerankScore struct {
	// Trained reports whether the model behind the score has fit at least
	// once; until then Margin/LatencyNS are meaningless and Skip is false.
	Trained bool
	// Margin is the predicted minimum per-task accuracy headroom over the
	// targets (negative: predicted to violate the budget).
	Margin float64
	// LatencyNS is the predicted inference latency (0 when unknown).
	LatencyNS float64
	// Skip recommends rejecting the candidate without measuring it.
	Skip bool
	// Forced marks a candidate the ranker wanted to skip but measures
	// anyway (periodic forced exploration, so a wrong model cannot wedge
	// the search).
	Forced bool
}

// Preranker is consulted by the optimizer for every fresh candidate (rule
// filter and memo first — a replayed outcome needs no prediction). Assess
// and Observe are only called from the serial sample/merge phases, in
// candidate order, so implementations need no locking and the search stays
// deterministic for any evaluation concurrency.
//
// internal/search/predict provides the ridge-regression implementation.
type Preranker interface {
	// Assess scores a candidate's feature vector (see Features).
	Assess(features []float64) PrerankScore
	// Observe feeds back a measured outcome: the accuracy margin, and the
	// measured latency in nanoseconds (negative when not measured — the
	// search only measures latency for candidates that met the targets).
	Observe(features []float64, latencyNS, margin float64)
}

// PrimePreranker replays a memo corpus into a pre-ranker, in deterministic
// fingerprint order, and returns the number of rows fed. Warm-starting the
// predictor from a persisted memo is what lets a fresh search on a new seed
// skip bad candidates from round one.
func PrimePreranker(p Preranker, memo *DiskMemo) int {
	if p == nil || memo == nil {
		return 0
	}
	n := 0
	memo.Range(func(fp uint64, e *MemoEntry) {
		if len(e.Features) == 0 {
			return
		}
		lat := -1.0
		if d, ok := memo.Latency(fp); ok {
			lat = float64(d)
		}
		p.Observe(e.Features, lat, e.Margin)
		n++
	})
	return n
}
