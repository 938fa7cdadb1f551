package distill_test

import (
	"math"
	"testing"

	"repro/internal/distill"
	"repro/internal/testutil"
)

// The teacher fixture is shared across tests; pretraining it once keeps the
// suite fast.
func TestDistillationEndToEnd(t *testing.T) {
	ds := testutil.TinyFace(1, 96, 48)
	teacher := testutil.TinyMultiDNN(2, ds)
	accs := testutil.PretrainTeachers(teacher, ds, 8, 0.004, 3)
	for id, a := range accs {
		if a < 0.7 {
			t.Fatalf("teacher task %d only reached %.2f; fixture too weak", id, a)
		}
	}

	outs := distill.ComputeTeacherOutputs(teacher, ds.Train.X, 32)
	if len(outs) != 2 {
		t.Fatalf("teacher outputs for %d tasks, want 2", len(outs))
	}
	if outs[0].Dim(0) != ds.Train.Len() {
		t.Fatalf("teacher output rows %d, want %d", outs[0].Dim(0), ds.Train.Len())
	}

	// Batched teacher outputs must equal single-shot outputs.
	single := teacher.Forward(ds.Train.X.Clone(), false)
	for id := range outs {
		a, b := outs[id].Data(), single[id].Data()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("batched teacher output %d diverges at %d", id, i)
			}
		}
	}

	// Fine-tune a fresh student (same architecture, new weights) via
	// distillation only — no labels — and verify accuracy recovers close
	// to the teachers'.
	student := testutil.TinyMultiDNN(99, ds)
	targets := make(map[int]float64)
	for id, a := range accs {
		targets[id] = a - 0.1 // allow 10 points of slack
	}
	eval := &distill.Evaluator{Dataset: ds, Targets: targets}
	rep := distill.FineTune(student, ds.Train.X, outs, eval,
		distill.Config{LR: 0.004, Epochs: 20, Batch: 16, EvalEvery: 2, Seed: 5}, nil)
	if !rep.Met {
		t.Fatalf("distillation did not recover accuracy: final %v vs targets %v after %d epochs",
			rep.Final, targets, rep.EpochsRun)
	}
	if rep.EpochsRun == 0 || rep.TrainTime <= 0 {
		t.Fatalf("report bookkeeping broken: %+v", rep)
	}
	if len(rep.Curve) == 0 {
		t.Fatal("no learning-curve samples recorded")
	}
}

func TestFineTuneEarlyStopOnTarget(t *testing.T) {
	ds := testutil.TinyFace(7, 48, 24)
	teacher := testutil.TinyMultiDNN(8, ds)
	testutil.PretrainTeachers(teacher, ds, 6, 0.004, 9)
	outs := distill.ComputeTeacherOutputs(teacher, ds.Train.X, 24)

	// Targets of 0 are met at the first evaluation: the run must stop then.
	eval := &distill.Evaluator{Dataset: ds, Targets: map[int]float64{0: 0, 1: 0}}
	student := teacher.Clone()
	rep := distill.FineTune(student, ds.Train.X, outs, eval,
		distill.Config{LR: 0.001, Epochs: 30, Batch: 16, EvalEvery: 1, Seed: 1}, nil)
	if !rep.Met || rep.EpochsRun != 1 {
		t.Fatalf("early stop failed: met=%v epochs=%d", rep.Met, rep.EpochsRun)
	}
}

func TestFineTuneHookCancels(t *testing.T) {
	ds := testutil.TinyFace(11, 48, 24)
	teacher := testutil.TinyMultiDNN(12, ds)
	outs := distill.ComputeTeacherOutputs(teacher, ds.Train.X, 24)

	// Impossible targets; a hook that cancels after 3 evaluations.
	eval := &distill.Evaluator{Dataset: ds, Targets: map[int]float64{0: 2, 1: 2}}
	var calls int
	hook := func(curve []distill.Sample) bool {
		calls++
		return len(curve) >= 3
	}
	student := teacher.Clone()
	rep := distill.FineTune(student, ds.Train.X, outs, eval,
		distill.Config{LR: 0.001, Epochs: 30, Batch: 16, EvalEvery: 1, Seed: 2}, hook)
	if !rep.Terminated {
		t.Fatal("hook cancellation not reported")
	}
	if rep.EpochsRun != 3 {
		t.Fatalf("epochs run = %d, want 3", rep.EpochsRun)
	}
	if rep.Met {
		t.Fatal("impossible targets reported as met")
	}
	if calls != 3 {
		t.Fatalf("hook called %d times, want 3", calls)
	}
}

func TestEvaluatorMinMargin(t *testing.T) {
	eval := &distill.Evaluator{Targets: map[int]float64{0: 0.8, 1: 0.6}}
	m := eval.MinMargin(map[int]float64{0: 0.85, 1: 0.55})
	if m < -0.0501 || m > -0.0499 {
		t.Fatalf("MinMargin = %v, want -0.05", m)
	}
	m = eval.MinMargin(map[int]float64{0: 0.9, 1: 0.7})
	if m < 0.0999 || m > 0.1001 {
		t.Fatalf("MinMargin = %v, want 0.1", m)
	}
}

// A diverging run (NaN loss) must abort and report failure instead of
// training on garbage.
func TestFineTuneDivergenceGuard(t *testing.T) {
	ds := testutil.TinyFace(31, 32, 16)
	teacher := testutil.TinyMultiDNN(32, ds)
	outs := distill.ComputeTeacherOutputs(teacher, ds.Train.X, 16)
	student := testutil.TinyMultiDNN(33, ds)
	// Poison a head weight (no activation follows it, so the non-finite
	// value reaches the loss).
	w := student.Heads[0].Layer.Params()[0]
	w.Value.Data()[0] = float32(math.Inf(1))
	eval := &distill.Evaluator{Dataset: ds, Targets: map[int]float64{0: 2, 1: 2}}
	rep := distill.FineTune(student, ds.Train.X, outs, eval,
		distill.Config{LR: 0.003, Epochs: 10, Batch: 16, EvalEvery: 1, Seed: 34}, nil)
	if !rep.Diverged {
		t.Fatal("NaN loss not detected")
	}
	if rep.Met {
		t.Fatal("diverged run reported as met")
	}
}
