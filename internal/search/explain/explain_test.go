package explain_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/search/explain"
)

// sample holds one record per kind of decision. Record 2's rule is one
// older searches wrote (a learned pre-ranker's veto); a decision file keeps
// rule names as plain strings, so it still loads and is counted.
func sample() []core.Trace {
	return []core.Trace{
		{
			Iteration: 1, Fingerprint: "00000000deadbeef",
			Mutation: "t1/op3/ConvBlock -> t0/op2/ConvBlock",
			Outcome:  core.OutcomeAccepted, Rule: core.RuleAccuracyMet,
			Measured:  &core.Scores{Margin: 0.027, LatencyNS: 1.1e6},
			Accuracy:  map[int]float64{0: 0.91, 1: 0.84},
			EpochsRun: 6, Elite: true, Best: true,
		},
		{
			Iteration: 2, Fingerprint: "00000000cafef00d",
			Mutation: "t1/op5/Linear -> t0/op4/Linear",
			Outcome:  core.OutcomeSkipped, Rule: "predictor-margin",
		},
		{
			Iteration: 3, FromElite: true, CacheHit: true, Warm: true,
			Fingerprint: "00000000deadbeef",
			Outcome:     core.OutcomeRejected, Rule: core.RuleMemo,
			Measured: &core.Scores{Margin: -0.04},
			Detail:   "replayed a duplicate evaluated earlier in the same batch",
		},
	}
}

// TestSaveLoadRoundTrip pins the decision file format.
func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "decisions.json")
	if err := explain.Save(path, sample()); err != nil {
		t.Fatal(err)
	}
	checkLoadsSample(t, path)
}

// TestLoadV1File pins compatibility: testdata/v1.json was written by Save
// over sample() when the decision file still had its own record type and
// each record a "predicted" score pair. It must load and render through
// core.Trace, with its pre-ranker veto counted under that rule, and Save
// must still write testdata/v1-saved.json, the same records today, byte
// for byte.
func TestLoadV1File(t *testing.T) {
	got := checkLoadsSample(t, filepath.Join("testdata", "v1.json"))
	var b strings.Builder
	explain.Render(&b, got)
	for _, want := range []string{
		"3 candidates (1 accepted, 1 rejected, 1 skipped), 1 elites",
		"predictor-margin   fired 1 times",
	} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("v1 report lacks %q:\n%s", want, b.String())
		}
	}
	path := filepath.Join(t.TempDir(), "decisions.json")
	if err := explain.Save(path, sample()); err != nil {
		t.Fatal(err)
	}
	want, _ := os.ReadFile(filepath.Join("testdata", "v1-saved.json"))
	if saved, _ := os.ReadFile(path); !bytes.Equal(saved, want) {
		t.Fatalf("Save no longer writes the v1 file:\n%s", saved)
	}
}

// checkLoadsSample loads the decision file at path and checks it holds
// exactly sample()'s records.
func checkLoadsSample(t *testing.T, path string) []core.Trace {
	t.Helper()
	got, err := explain.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := sample(); !reflect.DeepEqual(got, want) {
		t.Fatalf("loaded records differ:\nwant %+v\ngot  %+v", want, got)
	}
	return got
}

// TestLoadMissingOrCorrupt pins the failure modes.
func TestLoadMissingOrCorrupt(t *testing.T) {
	if _, err := explain.Load(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("loading a missing file should error")
	}
}

// TestRenderMentionsEveryDecision checks the human-readable report carries
// the load-bearing content: one block per decision, the rule that acted,
// the measured lines, and provenance markers.
func TestRenderMentionsEveryDecision(t *testing.T) {
	var b strings.Builder
	explain.Render(&b, sample())
	out := b.String()
	for _, want := range []string{
		"3 candidates", "accepted", "rejected", "skipped",
		core.RuleAccuracyMet, core.RuleMemo, "measured:  margin +0.0270",
		"t1/op3/ConvBlock -> t0/op2/ConvBlock",
		"elite", "best",
		"00000000deadbeef",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
