package data_test

import (
	"sync"
	"testing"

	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

func evalForward(g *graph.Graph) func(*tensor.Tensor) map[int]*tensor.Tensor {
	return func(x *tensor.Tensor) map[int]*tensor.Tensor { return g.Forward(x, false) }
}

// TestForwardBatchesConcurrent scores one dataset from two goroutines at
// once, each through its own copy of one model, as the search's evaluator
// slots do. Both must match a serial score, and the batched outputs must
// match one forward over the whole split bit for bit. Under -race it shows
// that the shared batched forward holds no state across calls.
func TestForwardBatchesConcurrent(t *testing.T) {
	ds := testutil.TinyFace(41, 8, 40)
	g := testutil.TinyMultiDNN(42, ds)
	whole := g.Forward(ds.Test.X.Clone(), false)
	want, err := ds.ScoreTest(evalForward(g), 16)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	scores := make([]map[int]float64, 2)
	outs := make([]map[int]*tensor.Tensor, 2)
	errs := make([]error, 2)
	for i := range scores {
		c := g.Clone()
		wg.Add(1)
		go func() {
			defer wg.Done()
			scores[i], errs[i] = ds.ScoreTest(evalForward(c), 16)
			outs[i] = data.ForwardBatches(ds.Test.X, 16, evalForward(c))
		}()
	}
	wg.Wait()
	for i := range scores {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		for id, w := range want {
			if scores[i][id] != w {
				t.Errorf("goroutine %d task %d scores %v, serial %v", i, id, scores[i][id], w)
			}
		}
		for id, w := range whole {
			got := outs[i][id].Data()
			for j, v := range w.Data() {
				if got[j] != v {
					t.Fatalf("goroutine %d task %d output %d is %v, one whole-split forward gives %v", i, id, j, got[j], v)
				}
			}
		}
	}
}
