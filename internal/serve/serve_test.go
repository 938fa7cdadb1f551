package serve_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/mutation"
	"repro/internal/serve"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

func TestRunProducesThroughput(t *testing.T) {
	ds := testutil.TinyFace(1, 8, 4)
	g := testutil.TinyMultiDNN(2, ds)
	rep := serve.Run(context.Background(), engine.NewReference(g), g.Root.InputShape, serve.Options{
		Clients: 1, Batch: 1, Duration: 150 * time.Millisecond, Warmup: 1,
	})
	if rep.Requests == 0 || rep.QPS <= 0 {
		t.Fatalf("no throughput measured: %+v", rep)
	}
	if rep.P50 <= 0 || rep.P99 < rep.P50 {
		t.Fatalf("broken percentiles: %+v", rep)
	}
	if rep.Elapsed < 150*time.Millisecond {
		t.Fatalf("window too short: %v", rep.Elapsed)
	}
}

// Canceling the context ends the window early.
func TestRunHonorsContext(t *testing.T) {
	ds := testutil.TinyFace(1, 8, 4)
	g := testutil.TinyMultiDNN(2, ds)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	serve.Run(ctx, engine.NewReference(g), g.Root.InputShape, serve.Options{
		Clients: 1, Duration: 10 * time.Second, Warmup: 1,
	})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("run ignored canceled context: ran %v", elapsed)
	}
}

// captureTarget records every input it is driven with.
type captureTarget struct {
	mu     sync.Mutex
	inputs []*tensor.Tensor
}

func (c *captureTarget) target(_ context.Context, x *tensor.Tensor) error {
	c.mu.Lock()
	c.inputs = append(c.inputs, x)
	c.mu.Unlock()
	time.Sleep(100 * time.Microsecond)
	return nil
}

// 1-D (token-id) inputs must be filled with integer ids inside the
// vocabulary — not left all-zero, and never fractional or out of range,
// which would panic the embedding lookup.
func TestTokenInputsFilledWithinVocab(t *testing.T) {
	cap := &captureTarget{}
	const vocab = 12
	serve.RunTarget(context.Background(), cap.target, graph.Shape{32}, serve.Options{
		Clients: 2, Duration: 30 * time.Millisecond, Warmup: 1, Vocab: vocab,
	})
	cap.mu.Lock()
	defer cap.mu.Unlock()
	if len(cap.inputs) == 0 {
		t.Fatal("target never driven")
	}
	nonzero := false
	for _, in := range cap.inputs {
		for _, v := range in.Data() {
			if v != float32(int(v)) || v < 0 || int(v) >= vocab {
				t.Fatalf("input value %v is not a token id in [0, %d)", v, vocab)
			}
			if v != 0 {
				nonzero = true
			}
		}
	}
	if !nonzero {
		t.Fatal("all token inputs are zero; ids were never filled")
	}
}

// Open-loop mode issues requests at a fixed rate and sheds arrivals that
// find no free slot instead of queueing unboundedly.
func TestOpenLoopRate(t *testing.T) {
	cap := &captureTarget{}
	rep := serve.RunTarget(context.Background(), cap.target, graph.Shape{3, 16, 16}, serve.Options{
		Rate: 2000, Duration: 200 * time.Millisecond, Warmup: 1, MaxOutstanding: 8,
	})
	if rep.Requests == 0 {
		t.Fatalf("open loop completed nothing: %+v", rep)
	}
	// At 2000/s over 200ms, ~400 arrivals. The target is fast, so most
	// complete; the loop must not run wildly past the arrival budget.
	if rep.Requests > 500 {
		t.Fatalf("open loop ran %d requests, more than the arrival schedule allows", rep.Requests)
	}
	if rep.QPS <= 0 || rep.P50 <= 0 {
		t.Fatalf("missing open-loop metrics: %+v", rep)
	}
}

// A slow target under a fast open-loop arrival rate must drop arrivals
// rather than launch unbounded concurrent requests.
func TestOpenLoopDropsWhenSaturated(t *testing.T) {
	slow := func(ctx context.Context, _ *tensor.Tensor) error {
		select {
		case <-time.After(50 * time.Millisecond):
		case <-ctx.Done():
		}
		return nil
	}
	rep := serve.RunTarget(context.Background(), slow, graph.Shape{4}, serve.Options{
		Rate: 1000, Duration: 150 * time.Millisecond, Warmup: 1, MaxOutstanding: 2, Vocab: 4,
	})
	if rep.Dropped == 0 {
		t.Fatalf("saturated open loop dropped nothing: %+v", rep)
	}
}

// The paper's Discussion: a fused model serves more queries per second
// than the original multi-DNNs.
func TestFusedModelImprovesThroughput(t *testing.T) {
	ds := testutil.TinyFace(3, 8, 4)
	g := testutil.TinyMultiDNN(4, ds)
	// Build a heavily fused variant: share the first two blocks.
	mut := mutation.NewMutator(tensor.NewRNG(5))
	res, err := mut.Apply(g, []graph.Pair{
		{Host: mutation.FindNode(g, 0, 1), Guest: mutation.FindNode(g, 1, 1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	res2, err := mut.Apply(res.Graph, []graph.Pair{
		{Host: mutation.FindNode(res.Graph, 0, 2), Guest: mutation.FindNode(res.Graph, 1, 2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	fused := res2.Graph
	if fused.FLOPs() >= g.FLOPs() {
		t.Fatal("fixture: fused model not cheaper")
	}
	// Wall-clock QPS on a shared machine is noisy; retry with growing
	// windows and accept the best attempt.
	var gain float64
	for attempt := 0; attempt < 4; attempt++ {
		dur := time.Duration(250*(attempt+1)) * time.Millisecond
		_, _, got := serve.Compare(context.Background(), g, fused, serve.Options{
			Clients: 1, Batch: 2, Duration: dur,
		})
		if got > gain {
			gain = got
		}
		if gain > 1.05 {
			break
		}
	}
	if gain <= 1.05 {
		t.Fatalf("fused model throughput gain %.2f, want > 1.05", gain)
	}
}

// Compare serves through compiled engines, each of which runs one forward
// at a time; concurrent clients, closed or open loop, must each get their
// own (the race detector flags a shared one).
func TestCompareConcurrentClients(t *testing.T) {
	ds := testutil.TinyFace(6, 8, 4)
	g := testutil.TinyMultiDNN(7, ds)
	for _, opts := range []serve.Options{
		{Clients: 3, Duration: 60 * time.Millisecond},
		{Rate: 2000, MaxOutstanding: 3, Duration: 60 * time.Millisecond},
	} {
		orig, fused, _ := serve.Compare(context.Background(), g, g, opts)
		if orig.Requests == 0 || fused.Requests == 0 || orig.Errors+fused.Errors != 0 {
			t.Fatalf("options %+v: original %+v, fused %+v", opts, orig, fused)
		}
	}
}
