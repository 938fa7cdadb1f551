package core_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/distill"
	"repro/internal/graph"
	"repro/internal/testutil"
)

// world is one search fixture: pre-trained teachers plus every evaluation
// input the optimizer takes.
type world struct {
	teacher *graph.Graph
	ds      *data.Dataset
	// teach is the teachers' measured per-task accuracy; targets sit drop
	// below it.
	teach, targets map[int]float64
	outs           distill.TeacherOutputs
	accOpts        core.AccuracyOptions
}

// fineTune12 is the fine-tuning budget most search tests share.
var fineTune12 = core.AccuracyOptions{
	FineTune: distill.Config{LR: 0.003, Epochs: 12, Batch: 16, EvalEvery: 2},
}

// newWorld builds a two-task TinyFace world: the dataset from seed, the
// teachers from seed+1, pre-trained for the given epochs with seed+2.
func newWorld(seed uint64, train, test, pretrainEpochs int, drop float64, accOpts core.AccuracyOptions) *world {
	ds := testutil.TinyFace(seed, train, test)
	teacher := testutil.TinyMultiDNN(seed+1, ds)
	teach := testutil.PretrainTeachers(teacher, ds, pretrainEpochs, 0.004, seed+2)
	targets := map[int]float64{}
	for id, a := range teach {
		targets[id] = a - drop
	}
	return &world{
		teacher: teacher, ds: ds, teach: teach, targets: targets,
		outs:    distill.ComputeTeacherOutputs(teacher, ds.Train.X, 32),
		accOpts: accOpts,
	}
}

// buildFixture is the world most search tests share: teachers strong
// enough that a 0.12 drop budget is reachable by shallow sharing.
func buildFixture(t *testing.T) *world {
	t.Helper()
	w := newWorld(41, 96, 48, 8, 0.12, fineTune12)
	for id, a := range w.teach {
		if a < 0.7 {
			t.Fatalf("teacher too weak: task %d at %.2f", id, a)
		}
	}
	return w
}

// search runs one optimization over the world.
func (w *world) search(cfg core.Config) *core.Result {
	return core.NewOptimizer(w.teacher, w.ds, w.targets, w.outs, w.ds.Train.X, w.accOpts, cfg).Run()
}

// forBatchSizes runs a search test over the two shapes of the one loop:
// Algorithm 1 (one candidate per round) and a batched round.
func forBatchSizes(t *testing.T, fn func(t *testing.T, batch int)) {
	for _, batch := range []int{1, 4} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) { fn(t, batch) })
	}
}
