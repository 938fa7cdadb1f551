package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/distill"
	"repro/internal/graph"
	"repro/internal/mutation"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// Impossible targets: the candidate fine-tunes through its whole budget and
// is reported as failing. (What the search then does with the failure —
// the rule filter — is the optimizer's business.)
func TestAccuracyEstimatorFailsUnreachableTarget(t *testing.T) {
	ds := testutil.TinyFace(7, 64, 32)
	teacher := testutil.TinyMultiDNN(8, ds)
	testutil.PretrainTeachers(teacher, ds, 6, 0.004, 9)
	outs := distill.ComputeTeacherOutputs(teacher, ds.Train.X, 32)

	targets := map[int]float64{0: 2, 1: 2}
	acc := core.NewAccuracyEstimator(ds, targets, outs, ds.Train.X, core.AccuracyOptions{
		FineTune: distill.Config{LR: 0.002, Epochs: 2, Batch: 16, EvalEvery: 2},
	})
	mild, err := mutation.NewMutator(tensor.NewRNG(10)).Apply(teacher, []graph.Pair{{
		Host:  mutation.FindNode(teacher, 0, 1),
		Guest: mutation.FindNode(teacher, 1, 1),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if rep := acc.FineTuneCandidate(mild.Graph, 1, false); rep.Met || rep.EpochsRun != 2 {
		t.Fatalf("candidate must fine-tune for 2 epochs and fail: %+v", rep)
	}
}

func TestAccuracyEstimatorMeetsReachableTarget(t *testing.T) {
	ds := testutil.TinyFace(11, 96, 48)
	teacher := testutil.TinyMultiDNN(12, ds)
	teachAcc := testutil.PretrainTeachers(teacher, ds, 8, 0.004, 13)
	outs := distill.ComputeTeacherOutputs(teacher, ds.Train.X, 32)

	targets := map[int]float64{}
	for id, a := range teachAcc {
		targets[id] = a - 0.15
	}
	acc := core.NewAccuracyEstimator(ds, targets, outs, ds.Train.X, core.AccuracyOptions{
		FineTune: distill.Config{LR: 0.003, Epochs: 25, Batch: 16, EvalEvery: 2},
	})
	// Candidate: teacher clone with the two branches sharing block 0.
	mut := mutation.NewMutator(tensor.NewRNG(14))
	cand, err := mut.Apply(teacher, []graph.Pair{{
		Host:  mutation.FindNode(teacher, 0, 1),
		Guest: mutation.FindNode(teacher, 1, 1),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if rep := acc.FineTuneCandidate(cand.Graph, 3, false); !rep.Met {
		t.Fatalf("shallow sharing should meet a relaxed target; final %v targets %v",
			rep.Final, targets)
	}
}
