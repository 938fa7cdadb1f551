package registry_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/parser"
	"repro/internal/serve/batcher"
	"repro/internal/serve/registry"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

func tinyGraph(seed uint64) *graph.Graph {
	ds := testutil.TinyFace(seed, 8, 4)
	return testutil.TinyMultiDNN(seed, ds)
}

func sample(per int, seed int) *tensor.Tensor {
	t := tensor.New(1, 3, 16, 16)
	d := t.Data()
	for i := range d {
		d[i] = float32((i+seed)%7) * 0.1
	}
	return t
}

func newRegistry(t *testing.T) *registry.Registry {
	t.Helper()
	r := registry.New()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = r.Close(ctx)
	})
	return r
}

// Two models served from one process: independent outputs, independent
// stats, shared registry surface.
func TestRegistryServesTwoModels(t *testing.T) {
	r := newRegistry(t)
	ga, gb := tinyGraph(1), tinyGraph(2)
	ma, err := r.Register("face-a", ga, registry.ModelOptions{Pool: 2})
	if err != nil {
		t.Fatal(err)
	}
	mb, err := r.Register("face-b", gb, registry.ModelOptions{Pool: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Names(); len(got) != 2 || got[0] != "face-a" || got[1] != "face-b" {
		t.Fatalf("names = %v", got)
	}
	if r.DefaultName() != "face-a" {
		t.Fatalf("default = %q, want first registered", r.DefaultName())
	}

	ctx := context.Background()
	x := sample(3*16*16, 3)
	outsA, err := ma.Submit(ctx, x.Clone())
	if err != nil {
		t.Fatal(err)
	}
	outsB, err := mb.Submit(ctx, x.Clone())
	if err != nil {
		t.Fatal(err)
	}
	wantA := engine.Compile(ga).Forward(x.Clone())
	wantB := engine.Compile(gb).Forward(x.Clone())
	for id, want := range wantA {
		for i, v := range want.Data() {
			if outsA[id].Data()[i] != v {
				t.Fatalf("model a task %d diverges from direct engine at %d", id, i)
			}
		}
	}
	for id, want := range wantB {
		for i, v := range want.Data() {
			if outsB[id].Data()[i] != v {
				t.Fatalf("model b task %d diverges from direct engine at %d", id, i)
			}
		}
	}

	// Different weights must mean different checksums; stats attribute
	// traffic per model.
	sa, _ := ma.Snapshot()
	sb, _ := mb.Snapshot()
	if sa.Checksum == "" || sa.Checksum == sb.Checksum {
		t.Fatalf("checksums not distinct: %q vs %q", sa.Checksum, sb.Checksum)
	}
	if sa.Version != 1 || sb.Version != 1 {
		t.Fatalf("fresh models at versions %d/%d, want 1/1", sa.Version, sb.Version)
	}
	if sa.PlanOps == 0 {
		t.Fatalf("plan op count missing: %+v", sa)
	}
	if st := ma.Stats(); st.Batcher.Requests != 1 {
		t.Fatalf("model a requests = %d, want 1", st.Batcher.Requests)
	}
	rst := r.Stats()
	if rst.ModelsLoaded != 2 {
		t.Fatalf("ModelsLoaded = %d", rst.ModelsLoaded)
	}
	if _, ok := rst.QueueDepth["face-b"]; !ok {
		t.Fatalf("registry stats missing per-model queue depth: %+v", rst)
	}
}

func TestRegistryLookupAndValidation(t *testing.T) {
	r := newRegistry(t)
	if _, err := r.Register("bad name", tinyGraph(1), registry.ModelOptions{}); err == nil {
		t.Fatal("accepted model name with a space")
	}
	if _, err := r.Register("face", tinyGraph(1), registry.ModelOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register("face", tinyGraph(2), registry.ModelOptions{}); !errors.Is(err, registry.ErrDuplicateModel) {
		t.Fatalf("duplicate register err = %v", err)
	}
	if _, err := r.Get("nope"); !errors.Is(err, registry.ErrUnknownModel) {
		t.Fatalf("unknown lookup err = %v", err)
	}
	m, err := r.Get("") // empty name resolves to the default
	if err != nil || m.Name() != "face" {
		t.Fatalf("default lookup = %v, %v", m, err)
	}
	if err := r.SetDefault("nope"); !errors.Is(err, registry.ErrUnknownModel) {
		t.Fatalf("SetDefault unknown err = %v", err)
	}
}

// Models load from checksum-verified checkpoints; corruption is refused.
func TestRegistryLoadsCheckpoints(t *testing.T) {
	r := newRegistry(t)
	dir := t.TempDir()
	g := tinyGraph(1)
	path := filepath.Join(dir, "face.gmck")
	if err := parser.SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	wantSum, err := parser.Sum(g)
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.Load("face", path, registry.ModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := m.Snapshot()
	if snap.Checksum != wantSum {
		t.Fatalf("loaded checksum %s, want %s", snap.Checksum, wantSum)
	}
	if snap.Source != path {
		t.Fatalf("source = %q", snap.Source)
	}

	// Flip one payload byte: the CRC check must refuse the file.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	bad := filepath.Join(dir, "corrupt.gmck")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Load("corrupt", bad, registry.ModelOptions{}); !errors.Is(err, parser.ErrBadCheckpoint) {
		t.Fatalf("corrupt load err = %v, want ErrBadCheckpoint", err)
	}
}

// Reload detects a changed checkpoint by checksum and swaps to it; an
// unchanged file is a no-op.
func TestRegistryReloadSwapsOnChecksumChange(t *testing.T) {
	r := newRegistry(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "face.gmck")
	g1 := tinyGraph(1)
	if err := parser.SaveFile(path, g1); err != nil {
		t.Fatal(err)
	}
	m, err := r.Load("face", path, registry.ModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	swapped, _, err := m.Reload(ctx)
	if err != nil || swapped {
		t.Fatalf("unchanged reload: swapped=%v err=%v", swapped, err)
	}

	g2 := tinyGraph(2)
	if err := parser.SaveFile(path, g2); err != nil {
		t.Fatal(err)
	}
	swapped, rec, err := m.Reload(ctx)
	if err != nil || !swapped {
		t.Fatalf("changed reload: swapped=%v err=%v", swapped, err)
	}
	if rec.FromVersion != 1 || rec.ToVersion != 2 || rec.Abandoned != 0 {
		t.Fatalf("swap record %+v", rec)
	}
	snap, _ := m.Snapshot()
	if snap.Version != 2 {
		t.Fatalf("version %d after reload", snap.Version)
	}
	// The new weights actually serve.
	x := sample(3*16*16, 1)
	outs, err := m.Submit(ctx, x.Clone())
	if err != nil {
		t.Fatal(err)
	}
	want := engine.Compile(g2).Forward(x.Clone())
	for id, w := range want {
		if outs[id].Data()[0] != w.Data()[0] {
			t.Fatalf("task %d serves stale weights after reload", id)
		}
	}
	if st := r.Stats(); st.SwapsCompleted != 1 {
		t.Fatalf("SwapsCompleted = %d", st.SwapsCompleted)
	}
}

// slowEngine stretches forward passes so queues can form deterministically.
type slowEngine struct {
	inner engine.Engine
	delay time.Duration
}

func (s *slowEngine) Name() string { return "slow(" + s.inner.Name() + ")" }
func (s *slowEngine) Forward(x *tensor.Tensor) map[int]*tensor.Tensor {
	time.Sleep(s.delay)
	return s.inner.Forward(x)
}

// slow is a ModelOptions.Wrap stretching every forward by delay.
func slow(delay time.Duration) func(engine.Engine) engine.Engine {
	return func(e engine.Engine) engine.Engine { return &slowEngine{inner: e, delay: delay} }
}

// The SLO budget sheds arrivals that would queue past it, and the shed
// verdict is per-model: the quiet model keeps admitting.
func TestSLOAdmissionShedsBacklog(t *testing.T) {
	r := newRegistry(t)
	m, err := r.Register("busy", tinyGraph(1), registry.ModelOptions{
		Pool: 1, MaxBatch: 1, QueueCap: 64,
		SLOBudget: 2 * time.Millisecond,
		Wrap:      slow(5 * time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	quiet, err := r.Register("quiet", tinyGraph(2), registry.ModelOptions{
		Pool: 1, SLOBudget: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	x := sample(3*16*16, 1)
	// Warm the latency EWMA: sequential requests observe ~5ms each.
	for i := 0; i < 3; i++ {
		if _, err := m.Submit(ctx, x.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	// Flood: 32 concurrent arrivals against a 5ms/request model. The queue
	// deepens, predicted wait blows the 2ms budget, and admission sheds.
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		go func() {
			_, err := m.Submit(ctx, x.Clone())
			errs <- err
		}()
	}
	var ok, shed int
	for i := 0; i < 32; i++ {
		switch err := <-errs; {
		case err == nil:
			ok++
		case errors.Is(err, registry.ErrOverBudget):
			shed++
		case errors.Is(err, batcher.ErrQueueFull):
			// Also legitimate backpressure under this flood.
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if shed == 0 {
		t.Fatal("SLO admission never shed despite a 5ms service time and 2ms budget")
	}
	if ok == 0 {
		t.Fatal("admission shed everything; requests at the queue head should fit the budget")
	}
	if st := m.Stats(); st.Shed != int64(shed) {
		t.Fatalf("stats report %d shed, callers saw %d", st.Shed, shed)
	}
	// The busy model's backlog must not leak into the quiet model's verdict.
	if _, err := quiet.Submit(ctx, x.Clone()); err != nil {
		t.Fatalf("quiet model rejected while neighbour flooded: %v", err)
	}
	if st := quiet.Stats(); st.Shed != 0 || st.Rejected != 0 {
		t.Fatalf("quiet model recorded sheds: %+v", st)
	}
}

// Closing the registry drains models and fails later submits with
// ErrClosed.
func TestRegistryClose(t *testing.T) {
	r := registry.New()
	m, err := r.Register("face", tinyGraph(1), registry.ModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := r.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(context.Background(), sample(3*16*16, 1)); !errors.Is(err, registry.ErrClosed) {
		t.Fatalf("submit after close err = %v", err)
	}
	if r.Pending() != 0 {
		t.Fatalf("pending %d after clean close", r.Pending())
	}
	if _, err := r.Register("late", tinyGraph(2), registry.ModelOptions{}); !errors.Is(err, registry.ErrClosed) {
		t.Fatalf("register after close err = %v", err)
	}
}

// A Close whose drain budget expires leaves Pending reporting the
// requests it abandoned, and those still complete in the background.
func TestRegistryPendingAfterClose(t *testing.T) {
	r := registry.New()
	m, err := r.Register("face", tinyGraph(1), registry.ModelOptions{Wrap: slow(300 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := m.Submit(context.Background(), sample(3*16*16, 1))
		done <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); m.Pending() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("request never admitted")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := r.Close(ctx); err == nil {
		t.Fatal("Close reported a clean drain with a request in flight")
	}
	if got := r.Pending(); got != 1 {
		t.Fatalf("Pending after a cut-short Close = %d, want 1", got)
	}
	if err := <-done; err != nil {
		t.Fatalf("abandoned request failed: %v", err)
	}
}

// A group compiles once: a group of one with Pool 3 runs three engines
// over one plan, serves concurrent load correctly, and sums the per-op
// counters of every engine.
func TestGroupCompilesOnce(t *testing.T) {
	r := newRegistry(t)
	g := tinyGraph(1)
	m, err := r.Register("face", g, registry.ModelOptions{Pool: 3, MaxBatch: 2, MaxWait: 100 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	fused := m.Fused()
	if len(fused) != 3 {
		t.Fatalf("%d engines, want 3", len(fused))
	}
	for _, f := range fused[1:] {
		if f.Plan() != fused[0].Plan() {
			t.Fatal("the pool's engines run separately compiled plans")
		}
	}

	const callers, requests = 12, 20
	x := sample(3*16*16, 2)
	replies := make(chan map[int]*tensor.Tensor, callers*requests)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				outs, err := m.Submit(context.Background(), x.Clone())
				if err != nil {
					t.Error(err)
					return
				}
				replies <- outs
			}
		}()
	}
	wg.Wait()
	close(replies)
	want := engine.Compile(g).Forward(x.Clone())
	for outs := range replies {
		for id, w := range want {
			wantClose(t, "pooled output", outs[id], w)
		}
	}
	p, ops := m.OpStats()
	if p != fused[0].Plan() {
		t.Fatal("OpStats reports another plan")
	}
	if batches := m.Stats().Batcher.Batches; ops[0].Calls != batches {
		t.Fatalf("op 0 ran %d times across the pool, for %d batches", ops[0].Calls, batches)
	}
}
