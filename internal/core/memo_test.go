package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/distill"
)

// TestSearchCacheTransparent is the memoization contract: with the random
// policy (every candidate mutates the original graph, so duplicates start
// from identical weights) a cached search must retrace an uncached one
// exactly — same rounds, same verdicts, same elites, same accuracies — while
// eliding the duplicate fine-tuning runs. MaxPairsPerPass=1 keeps the
// candidate space small enough that a fixed-seed search revisits structures.
//
// The seed is chosen so that no duplicate is the mirror image of its first
// occurrence (guest and host task swapped): the structural fingerprint
// equates the two, but they keep different teachers' weights and so
// fine-tune to different accuracies, which a replay cannot reproduce.
func TestSearchCacheTransparent(t *testing.T) {
	run := func(disable bool) *core.Result {
		return buildFixture(t).search(core.Config{
			Rounds:          18,
			MaxPairsPerPass: 1,
			Policy:          core.RandomPolicy{},
			Seed:            22,
			DisableMemo:     disable,
		})
	}
	cached := run(false)
	uncached := run(true)

	if cached.Stats.CacheHits == 0 {
		t.Fatal("fixture produced no duplicate candidates; the test exercises nothing")
	}
	if uncached.Stats.CacheHits != 0 || uncached.Stats.CacheMisses != 0 {
		t.Fatalf("disabled cache reported consultations: %+v", uncached.Stats)
	}
	// Every cache hit is one fine-tuning run the cached search did not pay.
	if cached.Stats.FineTuned+cached.Stats.CacheHits != uncached.Stats.FineTuned {
		t.Fatalf("hits don't account for elided fine-tuning: cached %+v vs uncached %+v",
			cached.Stats, uncached.Stats)
	}

	for i, u := range uncached.Traces {
		if u.CacheHit {
			t.Fatalf("trace %d: uncached run reported a cache hit", i)
		}
	}
	compareResults(t, "cached vs uncached", cached, uncached, true, core.OptimizeLatency)
}

// TestSearchCacheReplaysTrainedWeights checks that a cache-hit elite carries
// usable trained weights (direct weight transfer from the memoized run), not
// the untrained duplicate: every elite produced by a replay must score the
// accuracy the cache recorded for it.
func TestSearchCacheReplaysTrainedWeights(t *testing.T) {
	w := buildFixture(t)
	res := w.search(core.Config{
		Rounds:          18,
		MaxPairsPerPass: 1,
		Policy:          core.RandomPolicy{},
		Seed:            5,
	})
	eval := &distill.Evaluator{Dataset: w.ds}
	if res.Stats.CacheHits == 0 {
		t.Skip("no duplicates sampled; nothing to verify")
	}
	checked := 0
	for _, el := range res.Elites {
		measured, err := eval.Measure(el.Graph)
		if err != nil {
			t.Fatalf("measuring elite from iteration %d: %v", el.Iteration, err)
		}
		for id, want := range el.Accuracy {
			if measured[id] != want {
				t.Fatalf("elite from iteration %d: task %d measures %v, recorded %v",
					el.Iteration, id, measured[id], want)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("search produced no elites to verify")
	}
}

// BenchmarkFuseSearchMemo times a duplicate-dominated search with and
// without the fingerprint memo (BENCH_PR4.json records the first
// comparison). MaxPairsPerPass=1 with the random policy keeps the candidate
// space to single-pair mutations of the original graph, so a 24-round
// search revisits structures heavily — the regime the memo targets. Each
// iteration starts from a fresh in-process memo; the hit rate is reported
// as a custom metric.
func BenchmarkFuseSearchMemo(b *testing.B) {
	w := newWorld(141, 64, 32, 6, 0.10, core.AccuracyOptions{
		FineTune: distill.Config{LR: 0.003, Epochs: 8, Batch: 16, EvalEvery: 2, Seed: 17},
		Slack:    0.02,
	})
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"memo", false}, {"nomemo", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := w.search(core.Config{
					Rounds:          24,
					MaxPairsPerPass: 1,
					Policy:          core.RandomPolicy{},
					Seed:            17,
					DisableMemo:     mode.disable,
				})
				if total := res.Stats.CacheHits + res.Stats.CacheMisses; total > 0 {
					b.ReportMetric(float64(res.Stats.CacheHits)/float64(total), "cache-hit-rate")
				}
				b.ReportMetric(float64(res.Stats.TotalEpochs), "fine-tune-epochs")
			}
		})
	}
}
