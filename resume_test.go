package gmorph_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	gmorph "repro"
)

// A search resumes by re-running Fuse over its memo with a larger Rounds:
// the first N rounds replay from the memo without fine-tuning, and the
// rounds after them are the uninterrupted M-round run's rounds — same
// candidates, verdicts and accuracies, same elites — at any SearchBatch.
// The rule filter is on, so the replayed prefix must also rebuild its
// failure history.
func TestFuseResumeFromMemo(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const n, m = 8, 12
	teachers, ds, _ := buildTinyTeachers(t)
	for _, batch := range []int{1, 4} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			cfg := gmorph.Config{
				AccuracyDrop:   0.10,
				Rounds:         m,
				FineTuneEpochs: 8,
				LearningRate:   0.003,
				EvalEvery:      2,
				OptimizeFLOPs:  true,
				RuleFilter:     true,
				Seed:           31,
				SearchBatch:    batch,
			}
			full, err := gmorph.Fuse(teachers, ds, cfg)
			if err != nil {
				t.Fatal(err)
			}

			cfg.MemoPath = filepath.Join(t.TempDir(), "memo.json")
			cfg.Rounds = n
			first, err := gmorph.Fuse(teachers, ds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(first.Elites) == 0 {
				t.Fatal("the first search accepted nothing; resume not exercisable")
			}
			cfg.Rounds = m
			resumed, err := gmorph.Fuse(teachers, ds, cfg)
			if err != nil {
				t.Fatal(err)
			}

			if len(resumed.Traces) != len(full.Traces) {
				t.Fatalf("resumed run holds %d records, the uninterrupted run %d", len(resumed.Traces), len(full.Traces))
			}
			for i, tr := range resumed.Traces[:n] {
				if !tr.CacheHit || tr.Fingerprint != full.Traces[i].Fingerprint {
					t.Fatalf("round %d did not replay the uninterrupted run's candidate: %+v", i+1, tr)
				}
			}
			fresh := 0
			for i, tr := range resumed.Traces[n:] {
				if want, got := searchDetermined(full.Traces[n+i]), searchDetermined(tr); !reflect.DeepEqual(want, got) {
					t.Fatalf("round %d differs from the uninterrupted run:\n%+v\n%+v", n+i+1, want, got)
				}
				if !tr.CacheHit && tr.Outcome != "skipped" {
					fresh++
				}
			}
			if fresh == 0 {
				t.Fatalf("rounds %d-%d all replayed; the continuation is not exercised", n+1, m)
			}
			if resumed.Stats.FineTuned != fresh || fresh != full.Stats.FineTuned-first.Stats.FineTuned {
				t.Fatalf("resumed run fine-tuned %d candidates; %d are fresh, the uninterrupted run fine-tuned %d after round %d",
					resumed.Stats.FineTuned, fresh, full.Stats.FineTuned-first.Stats.FineTuned, n)
			}
			if len(resumed.Elites) != len(full.Elites) {
				t.Fatalf("resumed run holds %d elites, the uninterrupted run %d", len(resumed.Elites), len(full.Elites))
			}
			for i, e := range full.Elites {
				if got, want := gmorph.Fingerprint(resumed.Elites[i].Graph), gmorph.Fingerprint(e.Graph); got != want {
					t.Fatalf("elite %d is %s, the uninterrupted run's is %s", i, got, want)
				}
			}
		})
	}
}

// searchDetermined strips a record's wall-clock fields: the Best mark
// (ranked by measured latency), BestLatency, Elapsed, FineTuneTime and the
// latency inside Measured.
func searchDetermined(tr gmorph.Trace) gmorph.Trace {
	tr.Best, tr.BestLatency, tr.Elapsed, tr.FineTuneTime = false, 0, 0, 0
	if tr.Measured != nil {
		sc := *tr.Measured
		sc.LatencyNS, tr.Measured = 0, &sc
	}
	return tr
}

// A memo file that fails to load is an error returned before the search
// samples anything, and the file is left as it was: a fresh search would
// save over it and lose every trained candidate.
func TestFuseCorruptMemoIsAnError(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	teachers, ds, _ := buildTinyTeachers(t)
	cfg := gmorph.Config{
		AccuracyDrop: 0.10, Rounds: 2, FineTuneEpochs: 2,
		LearningRate: 0.003, Seed: 31,
		MemoPath: filepath.Join(t.TempDir(), "memo.json"),
	}
	if _, err := gmorph.Fuse(teachers, ds, cfg); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(cfg.MemoPath)
	if err != nil {
		t.Fatal(err)
	}
	truncated := raw[:len(raw)/2]
	if err := os.WriteFile(cfg.MemoPath, truncated, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg.OnRound = func(tr gmorph.Trace) {
		t.Errorf("round %d sampled over a memo that does not load", tr.Iteration)
	}
	if _, err := gmorph.Fuse(teachers, ds, cfg); err == nil {
		t.Fatal("Fuse accepted a memo file that does not load")
	}
	if got, err := os.ReadFile(cfg.MemoPath); err != nil || string(got) != string(truncated) {
		t.Fatalf("the memo file changed after the failed run (%v)", err)
	}
}
