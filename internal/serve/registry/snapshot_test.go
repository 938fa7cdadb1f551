package registry

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/tensor"
	"repro/internal/testutil"
)

// The request path takes no registry lock: Snapshot answers while a
// topology change holds topoMu, for a model alone in its group and for a
// shared-stem member alike, and it allocates nothing that grows with the
// traffic a model has served.
func TestSnapshotIsLockFree(t *testing.T) {
	r := New()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = r.Close(ctx)
	})
	ga, gb := testutil.TinySharedStemPair(31)
	opts := ModelOptions{ShareStem: 2, MaxBatch: 8, MaxWait: 100 * time.Microsecond, QueueCap: 256}
	shared, err := r.Register("shared-a", ga, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register("shared-b", gb, opts); err != nil {
		t.Fatal(err)
	}
	solo, err := r.Register("solo", testutil.TinyMultiDNN(3, testutil.TinyFace(3, 8, 4)), ModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if snap, err := shared.Snapshot(); err != nil || snap.Shared == nil {
		t.Fatalf("pair did not form a group: %v", err)
	}

	// Serve past the group batcher's 4 096-entry latency window.
	const requests, callers = 4200, 8
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			x := tensor.New(1, 3, 16, 16)
			x.Data()[c] = 1
			for i := c; i < requests; i += callers {
				if _, err := shared.Submit(context.Background(), x); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if got := shared.Stats().Batcher.Requests; got < requests {
		t.Fatalf("group served %d requests, want %d", got, requests)
	}

	blocked := func(m *Model) bool {
		r.topoMu.Lock()
		defer r.topoMu.Unlock()
		done := make(chan struct{})
		go func() {
			defer close(done)
			_, _ = m.Snapshot()
		}()
		select {
		case <-done:
			return false
		case <-time.After(100 * time.Millisecond):
			return true
		}
	}
	if blocked(solo) {
		t.Error("Snapshot of a group of one waits for the topology lock")
	}
	if blocked(shared) {
		t.Error("Snapshot of a shared-stem member waits for the topology lock")
	}

	if allocs := testing.AllocsPerRun(50, func() { _, _ = shared.Snapshot() }); allocs > 2 {
		t.Errorf("Snapshot of a busy shared member allocates %.0f times, want <= 2", allocs)
	}
}
