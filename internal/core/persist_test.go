package core_test

import (
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// TestDiskMemoReplayEliminatesDuplicateMeasurements is the persistence
// contract behind the distributed search: re-running the same search over a
// persisted memo must replay every outcome — zero fine-tuning runs, zero
// fresh latency measurements — while producing an identical search
// trajectory (traces, elites, accuracies).
func TestDiskMemoReplayEliminatesDuplicateMeasurements(t *testing.T) {
	path := filepath.Join(t.TempDir(), "memo.json")
	run := func() *core.Result {
		memo, err := core.NewDiskMemo(path)
		if err != nil {
			t.Fatal(err)
		}
		res := newWorld(141, 64, 32, 6, 0.15, ruleFilter6).search(core.Config{
			Rounds:          16,
			MaxPairsPerPass: 1,
			Seed:            7,
			Memo:            memo,
			BatchSize:       4,
		})
		if err := memo.Save(); err != nil {
			t.Fatal(err)
		}
		return res
	}

	first := run()
	if first.Stats.FineTuned == 0 {
		t.Fatal("first run fine-tuned nothing; fixture is degenerate")
	}
	second := run()

	if second.Stats.FineTuned != 0 {
		t.Fatalf("second run over a warm memo fine-tuned %d candidates, want 0",
			second.Stats.FineTuned)
	}
	if second.Stats.LatencyMisses != 0 {
		t.Fatalf("second run measured %d latencies, want 0 (persisted, machine-keyed)",
			second.Stats.LatencyMisses)
	}
	if second.Stats.CacheHits != first.Stats.CacheHits+first.Stats.FineTuned {
		t.Fatalf("second run hits %d, want first run's hits+finetunes %d+%d",
			second.Stats.CacheHits, first.Stats.CacheHits, first.Stats.FineTuned)
	}

	// The replayed search must retrace the original exactly.
	compareResults(t, "first vs replayed run", first, second, true)
}
