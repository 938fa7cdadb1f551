package core_test

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/testutil"
)

func TestSaveLoadStateRoundTrip(t *testing.T) {
	ds := testutil.TinyFace(201, 16, 8)
	g1 := testutil.TinyMultiDNN(202, ds)
	g2 := testutil.TinyMultiDNN(203, ds)
	res := &core.Result{
		Elites: []*core.Elite{
			{Graph: g1, Latency: 5 * time.Millisecond, FLOPs: 1000,
				Accuracy: map[int]float64{0: 0.9, 1: 0.8}, FromElite: false,
				FineTuneTime: time.Second, Iteration: 3},
			{Graph: g2, Latency: 4 * time.Millisecond, FLOPs: 900,
				Accuracy: map[int]float64{0: 0.88, 1: 0.82}, FromElite: true,
				FineTuneTime: 2 * time.Second, Iteration: 7},
		},
	}
	dir := t.TempDir()
	if err := core.SaveState(dir, res, 9); err != nil {
		t.Fatal(err)
	}
	elites, iter, err := core.LoadState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if iter != 9 {
		t.Fatalf("iteration = %d, want 9", iter)
	}
	if len(elites) != 2 {
		t.Fatalf("elites = %d, want 2", len(elites))
	}
	e := elites[1]
	if e.Latency <= 0 || e.FLOPs != 900 || !e.FromElite || e.Iteration != 7 {
		t.Fatalf("elite meta lost: %+v", e)
	}
	if e.Accuracy[1] != 0.82 {
		t.Fatalf("accuracy lost: %v", e.Accuracy)
	}
	if err := e.Graph.Validate(); err != nil {
		t.Fatalf("restored graph invalid: %v", err)
	}
	// The restored graph must behave like the saved one.
	x := ds.Test.X
	a := g2.Forward(x.Clone(), false)
	b := e.Graph.Forward(x.Clone(), false)
	for id := range a {
		for i := range a[id].Data() {
			if a[id].Data()[i] != b[id].Data()[i] {
				t.Fatal("restored elite graph diverges")
			}
		}
	}
}

// A saved latency belongs to the machine and the measurement that took it,
// so LoadState never trusts one: an elite saved (by an older binary) with a
// 1 ns latency loads with a fresh measurement of its compiled plan.
func TestLoadStateRemeasuresLatency(t *testing.T) {
	ds := testutil.TinyFace(205, 16, 8)
	dir := t.TempDir()
	if err := parser.SaveFile(filepath.Join(dir, "elite_000.gmck"), testutil.TinyMultiDNN(206, ds)); err != nil {
		t.Fatal(err)
	}
	state := `{"iteration": 4, "elites": [{"file": "elite_000.gmck", "latency_ns": 1,
		"flops": 900, "accuracy": {"0": 0.9, "1": 0.8}, "iteration": 4}]}`
	if err := os.WriteFile(filepath.Join(dir, "state.json"), []byte(state), 0o644); err != nil {
		t.Fatal(err)
	}
	elites, _, err := core.LoadState(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(elites) != 1 {
		t.Fatalf("loaded %d elites, want 1", len(elites))
	}
	if lat := elites[0].Latency; lat <= time.Microsecond {
		t.Fatalf("loaded latency %v: the saved one was trusted, want a re-measurement above 1µs", lat)
	}
}

func TestLoadStateMissingDir(t *testing.T) {
	if _, _, err := core.LoadState(t.TempDir()); err == nil {
		t.Fatal("missing state accepted")
	}
}

// A resumed search must continue from the saved elites and the saved
// iteration counter, whatever the batch size: a resume that finds nothing
// new still returns the saved best, the saved elites stay on the list, and
// iteration numbering (the temperature schedule's clock) carries on.
func TestResumeSearchFromState(t *testing.T) {
	forBatchSizes(t, func(t *testing.T, batch int) {
		w := newWorld(211, 96, 48, 8, 0.12, fineTune12)
		first := w.search(core.Config{Rounds: 8, BatchSize: batch, Seed: 5})
		if first.Best == nil {
			t.Fatal("first search found nothing; resume not exercisable")
		}
		dir := t.TempDir()
		if err := core.SaveState(dir, first, 8); err != nil {
			t.Fatal(err)
		}
		elites, iter, err := core.LoadState(dir)
		if err != nil {
			t.Fatal(err)
		}

		resumed := w.search(core.Config{
			Rounds: 4, BatchSize: batch, Seed: 6,
			InitialElites: elites, StartIteration: iter,
		})
		if resumed.Best == nil {
			t.Fatal("resumed search lost the saved best")
		}
		if resumed.Best.FLOPs > first.Best.FLOPs && resumed.Best.Latency > first.Best.Latency*2 {
			t.Fatalf("resumed best much worse than saved best: %v vs %v",
				resumed.Best.Latency, first.Best.Latency)
		}
		// The saved elites lead the resumed list (capacity 16 is not
		// reached here), new ones append behind them.
		if len(resumed.Elites) < len(elites) {
			t.Fatalf("resumed search holds %d elites, %d were saved", len(resumed.Elites), len(elites))
		}
		for i, e := range elites {
			if resumed.Elites[i] != e {
				t.Fatalf("saved elite %d is not on the resumed list", i)
			}
		}
		// Iterations continue after the saved counter.
		if len(resumed.Traces) == 0 {
			t.Fatal("resumed search sampled nothing")
		}
		for i, tr := range resumed.Traces {
			if tr.Iteration != iter+1+i {
				t.Fatalf("resumed candidate %d numbered %d, want %d", i, tr.Iteration, iter+1+i)
			}
		}
	})
}
