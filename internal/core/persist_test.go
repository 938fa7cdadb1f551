package core_test

import (
	"path/filepath"
	"testing"

	"repro/internal/core"
)

// TestDiskMemoReplayEliminatesDuplicateMeasurements is the persistence
// contract behind the distributed search: re-running the same search over a
// persisted memo must replay every outcome — zero fine-tuning runs, zero
// fresh latency measurements, the original's included — while producing
// an identical search trajectory (traces, elites, accuracies).
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
	// The incumbent replays too: a replayed search compares its candidates
	// against the original timed in the same session as they were.
	if second.OriginalLatency != first.OriginalLatency {
		t.Fatalf("second run's original latency %v, want the first run's %v (memo replay)",
			second.OriginalLatency, first.OriginalLatency)
	}
	if second.Stats.CacheHits != first.Stats.CacheHits+first.Stats.FineTuned {
		t.Fatalf("second run hits %d, want first run's hits+finetunes %d+%d",
			second.Stats.CacheHits, first.Stats.CacheHits, first.Stats.FineTuned)
	}

	// The replayed search must retrace the original exactly.
	compareResults(t, "first vs replayed run", first, second, true, core.OptimizeLatency)
}

// TestReplayComputesNoTeacherOutputs: the local evaluator computes the
// teacher outputs when its first candidate fine-tunes, so the run that
// populates a memo computes them once and a replay over the full memo —
// no fine-tune at all — never does.
func TestReplayComputesNoTeacherOutputs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "memo.json")
	w := newWorld(141, 64, 32, 6, 0.15, ruleFilter6)
	run := func() (*core.Result, int64) {
		memo, err := core.NewDiskMemo(path)
		if err != nil {
			t.Fatal(err)
		}
		before := core.TeacherOutputRuns()
		res := w.search(core.Config{Rounds: 8, MaxPairsPerPass: 1, Seed: 7, Memo: memo, BatchSize: 4})
		if err := memo.Save(); err != nil {
			t.Fatal(err)
		}
		return res, core.TeacherOutputRuns() - before
	}
	first, runs := run()
	if first.Stats.FineTuned == 0 || runs != 1 {
		t.Fatalf("populating run: %d fine-tunes computed the teacher outputs %d times, want 1", first.Stats.FineTuned, runs)
	}
	replay, runs := run()
	if replay.Stats.FineTuned != 0 || runs != 0 {
		t.Fatalf("replay: %d fine-tunes, teacher outputs computed %d times, want 0 and 0", replay.Stats.FineTuned, runs)
	}
}
