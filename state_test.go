package gmorph_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	gmorph "repro"
)

// StateDir makes Fuse resumable at any SearchBatch: a second call with the
// same directory must pick up the saved elites and continue iteration
// numbering, and must write both generations of elites back.
func TestFuseStateDirResume(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, batch := range []int{1, 4} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			teachers, ds, _ := buildTinyTeachers(t)
			dir := t.TempDir()

			cfg := gmorph.Config{
				AccuracyDrop:   0.10,
				Rounds:         8,
				FineTuneEpochs: 8,
				LearningRate:   0.003,
				EvalEvery:      2,
				Seed:           31,
				SearchBatch:    batch,
				StateDir:       dir,
			}
			res1, err := gmorph.Fuse(teachers, ds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(filepath.Join(dir, "state.json")); err != nil {
				t.Fatalf("state not persisted: %v", err)
			}
			if len(res1.Elites) == 0 {
				t.Fatal("first search accepted nothing; resume not exercisable")
			}

			var minIter int
			cfg.Rounds = 4
			cfg.OnRound = func(tr gmorph.Trace) {
				if minIter == 0 || tr.Iteration < minIter {
					minIter = tr.Iteration
				}
			}
			res2, err := gmorph.Fuse(teachers, ds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if minIter != 9 {
				t.Fatalf("resumed rounds start at %d, want 9", minIter)
			}
			// Elites carried over: the saved ones lead the resumed list, and
			// a best found by the first search is still reported.
			if len(res2.Elites) < len(res1.Elites) {
				t.Fatalf("resume holds %d elites, the first search saved %d", len(res2.Elites), len(res1.Elites))
			}
			for i, e := range res1.Elites {
				if got := gmorph.Fingerprint(res2.Elites[i].Graph); got != gmorph.Fingerprint(e.Graph) {
					t.Fatalf("saved elite %d is not on the resumed list", i)
				}
			}
			if res1.Found && !res2.Found {
				t.Fatal("resume lost the saved best candidate")
			}
		})
	}
}

// Only a StateDir without state.json starts afresh. State that fails to
// load — a truncated manifest, a missing elite checkpoint — is an error
// returned before the search, and the directory is left as it was: a
// restart at iteration 0 would save over the manifest and lose the elites.
func TestFuseStateDirCorruptIsAnError(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	teachers, ds, _ := buildTinyTeachers(t)
	for _, tc := range []struct{ name, state string }{
		{"truncated manifest", `{"iteration": 8, "elites": [{"file": "elite_0`},
		{"missing elite", `{"iteration": 8, "elites": [{"file": "elite_000.gmck", "flops": 900, "iteration": 3}]}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "state.json")
			if err := os.WriteFile(path, []byte(tc.state), 0o644); err != nil {
				t.Fatal(err)
			}
			cfg := gmorph.Config{
				AccuracyDrop: 0.10, Rounds: 2, FineTuneEpochs: 2,
				LearningRate: 0.003, Seed: 31, StateDir: dir,
			}
			if _, err := gmorph.Fuse(teachers, ds, cfg); err == nil {
				t.Fatal("Fuse accepted a StateDir whose state does not load")
			}
			got, err := os.ReadFile(path)
			if err != nil || string(got) != tc.state {
				t.Fatalf("state.json changed: %q (%v)", got, err)
			}
			if entries, _ := os.ReadDir(dir); len(entries) != 1 {
				t.Fatalf("StateDir holds %d entries after the failed resume, want 1", len(entries))
			}
		})
	}
}

// The saved iteration is the last one the search sampled, not its budget:
// Rounds 10 at SearchBatch 4 samples two rounds of four candidates, so the
// resumed search starts at iteration 9.
func TestFuseStateDirSavesSampledIteration(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	teachers, ds, _ := buildTinyTeachers(t)
	cfg := gmorph.Config{
		AccuracyDrop:   0.10,
		Rounds:         10,
		FineTuneEpochs: 2,
		LearningRate:   0.003,
		EvalEvery:      2,
		Seed:           31,
		SearchBatch:    4,
		StateDir:       t.TempDir(),
	}
	if _, err := gmorph.Fuse(teachers, ds, cfg); err != nil {
		t.Fatal(err)
	}
	var minIter int
	cfg.Rounds = 4
	cfg.OnRound = func(tr gmorph.Trace) {
		if minIter == 0 || tr.Iteration < minIter {
			minIter = tr.Iteration
		}
	}
	if _, err := gmorph.Fuse(teachers, ds, cfg); err != nil {
		t.Fatal(err)
	}
	if minIter != 9 {
		t.Fatalf("resumed rounds start at %d, want 9", minIter)
	}
}
