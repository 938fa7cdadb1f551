package registry_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/serve/batcher"
	"repro/internal/serve/registry"
	"repro/internal/tensor"
)

// hammerTarget adapts Model.Submit to the load harness, classifying
// outcomes: backpressure (queue full, SLO shed) is expected under open
// loop; anything else — in particular a request dropped by a swap — is a
// hard failure.
func hammerTarget(m *registry.Model, backpressure, hard *atomic.Int64) serve.Target {
	return func(ctx context.Context, x *tensor.Tensor) error {
		_, err := m.Submit(ctx, x)
		switch {
		case err == nil:
			return nil
		case errors.Is(err, batcher.ErrQueueFull), errors.Is(err, registry.ErrOverBudget):
			backpressure.Add(1)
			return err
		default:
			hard.Add(1)
			return err
		}
	}
}

// Hot swap under load: an open-loop client hammers model A while A is
// swapped to a new version twice. Zero requests may fail with anything
// but backpressure, each drain must complete with the old engine pool
// fully drained (Pending 0 at teardown, i.e. Abandoned 0), and the new
// version must be the one serving afterwards.
func TestHotSwapUnderLoad(t *testing.T) {
	r := newRegistry(t)
	m, err := r.Register("face", tinyGraph(1), registry.ModelOptions{
		Pool: 2, MaxBatch: 4, QueueCap: 32, Wrap: slow(2 * time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}

	var backpressure, hard atomic.Int64
	shape := graph.Shape{3, 16, 16}
	done := make(chan serve.Report, 1)
	go func() {
		done <- serve.RunTarget(context.Background(), hammerTarget(m, &backpressure, &hard), shape, serve.Options{
			Rate: 500, Duration: 700 * time.Millisecond,
			MaxOutstanding: 16, Warmup: 4,
		})
	}()

	// Two swaps in the middle of the window, with traffic in flight.
	time.Sleep(150 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i, g := range []*graph.Graph{tinyGraph(2), tinyGraph(3)} {
		rec, err := m.Swap(ctx, g, "")
		if err != nil {
			t.Fatalf("swap %d: %v", i, err)
		}
		if rec.Abandoned != 0 {
			t.Fatalf("swap %d abandoned %d in-flight requests", i, rec.Abandoned)
		}
		if rec.FromVersion != i+1 || rec.ToVersion != i+2 {
			t.Fatalf("swap %d versions %d->%d", i, rec.FromVersion, rec.ToVersion)
		}
		time.Sleep(100 * time.Millisecond)
	}

	rep := <-done
	if rep.Requests == 0 {
		t.Fatal("open-loop stream completed no requests")
	}
	if got := hard.Load(); got != 0 {
		t.Fatalf("%d non-backpressure errors during hot swap (want 0)", got)
	}
	if int64(rep.Errors) != backpressure.Load() {
		t.Fatalf("harness saw %d errors, backpressure classified %d", rep.Errors, backpressure.Load())
	}

	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != 3 {
		t.Fatalf("serving version %d after two swaps, want 3", snap.Version)
	}
	st := m.Stats()
	if len(st.Swaps) != 2 {
		t.Fatalf("swap history has %d records, want 2", len(st.Swaps))
	}
	for _, rec := range st.Swaps {
		if rec.Abandoned != 0 || rec.DrainMicros < 0 {
			t.Fatalf("bad swap record %+v", rec)
		}
		if rec.FromChecksum == rec.ToChecksum {
			t.Fatalf("swap did not change checksum: %+v", rec)
		}
	}
	if rst := r.Stats(); rst.SwapsCompleted != 2 {
		t.Fatalf("registry counts %d swaps", rst.SwapsCompleted)
	}
	// The post-swap deployment answers with the new weights.
	x := sample(3*16*16, 1)
	outs, err := m.Submit(context.Background(), x.Clone())
	if err != nil {
		t.Fatal(err)
	}
	want := engine.Compile(tinyGraph(3)).Forward(x.Clone())
	for id, w := range want {
		if outs[id].Data()[0] != w.Data()[0] {
			t.Fatalf("task %d output is not version 3's", id)
		}
	}
}

// A flooding tenant must not move a steady tenant's outcomes: the victim
// sees zero errors of any kind while the aggressor eats its own
// backpressure on its own queue.
func TestNoisyNeighbourIsolation(t *testing.T) {
	r := newRegistry(t)
	// The aggressor's engine is made slow enough that its arrival rate is
	// far past its capacity, so its own queue must shed. The victim gets a
	// deep queue and no SLO budget: any backpressure it sees could only
	// mean the neighbour consumed its admission capacity.
	// 10ms per batch of ≤4 caps the aggressor near 400 req/s — far below
	// its arrival rate even after the harness ticker's ~1ms floor — so its
	// queue must overflow.
	noisy, err := r.Register("noisy", tinyGraph(1), registry.ModelOptions{
		Pool: 1, MaxBatch: 4, QueueCap: 8, SLOBudget: 40 * time.Millisecond,
		Wrap: slow(10 * time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := r.Register("victim", tinyGraph(2), registry.ModelOptions{
		Pool: 1, MaxBatch: 4, QueueCap: 64, Wrap: slow(time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}

	var nbp, nhard, vbp, vhard atomic.Int64
	shape := graph.Shape{3, 16, 16}
	// Both tenants' open-loop streams run at once.
	var nr, vr serve.Report
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		nr = serve.RunTarget(context.Background(), hammerTarget(noisy, &nbp, &nhard), shape, serve.Options{
			Rate: 4000, Duration: 500 * time.Millisecond, MaxOutstanding: 64,
		})
	}()
	vr = serve.RunTarget(context.Background(), hammerTarget(victim, &vbp, &vhard), shape, serve.Options{
		Rate: 100, Duration: 500 * time.Millisecond, MaxOutstanding: 8,
	})
	wg.Wait()

	if nr.Requests == 0 || vr.Requests == 0 {
		t.Fatalf("streams starved: noisy %d, victim %d requests", nr.Requests, vr.Requests)
	}
	// The flood must have been large enough to hit the aggressor's own
	// admission (otherwise the test proves nothing).
	if nbp.Load() == 0 {
		t.Fatal("noisy tenant was never backpressured; raise its rate")
	}
	if nhard.Load() != 0 || vhard.Load() != 0 {
		t.Fatalf("hard errors: noisy %d, victim %d", nhard.Load(), vhard.Load())
	}
	// Isolation: the victim's bounded queue is its own, so the neighbour's
	// flood must not consume it.
	if vbp.Load() != 0 {
		t.Fatalf("victim saw %d backpressure errors at 100 req/s (isolation broken)", vbp.Load())
	}
	if st := victim.Stats(); st.Rejected != 0 || st.Shed != 0 {
		t.Fatalf("victim stats record sheds: %+v", st)
	}
}
