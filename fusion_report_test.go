package gmorph_test

import (
	"path/filepath"
	"strings"
	"testing"

	gmorph "repro"
)

// TestFuseDecisionsExplainEveryRound pins the explanation contract on the
// facade: every sampled candidate's record carries its rationale, every
// elite's acceptance is marked, and the records round-trip through the
// decision file the CLI consumes (gmorph -decisions / inspect -fusion).
func TestFuseDecisionsExplainEveryRound(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	teachers, ds, _ := buildTinyTeachers(t)
	cfg := gmorph.Config{
		AccuracyDrop:    0.08,
		Rounds:          10,
		MaxPairsPerPass: 1,
		FineTuneEpochs:  6,
		LearningRate:    0.003,
		EvalEvery:       2,
		RandomPolicy:    true,
		Seed:            3,
	}
	res, err := gmorph.Fuse(teachers, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traces) == 0 {
		t.Fatal("search produced no records")
	}
	eliteTraces := 0
	for _, tr := range res.Traces {
		if tr.Outcome == "" || (tr.Outcome != "skipped" && tr.Rule == "") {
			t.Fatalf("record without rationale: %+v", tr)
		}
		if tr.Elite {
			eliteTraces++
		}
	}
	if eliteTraces != len(res.Elites) {
		t.Fatalf("%d elite-marked records for %d elites", eliteTraces, len(res.Elites))
	}

	// Round-trip through the CLI's decision file and render the report.
	path := filepath.Join(t.TempDir(), "decisions.json")
	if err := gmorph.SaveFusionReport(path, res.Traces); err != nil {
		t.Fatal(err)
	}
	loaded, err := gmorph.LoadFusionReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(res.Traces) {
		t.Fatalf("decision file round-trip lost rounds: %d vs %d", len(loaded), len(res.Traces))
	}
	var b strings.Builder
	gmorph.RenderFusionReport(&b, loaded)
	if !strings.Contains(b.String(), "fusion decisions:") {
		t.Fatalf("report missing summary:\n%s", b.String())
	}
}
