package registry_test

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/serve/registry"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// wantClose asserts per-element relative agreement at 1e-4 — the shared
// plan runs the same kernels as the solo plan, but batch composition and
// slab layout may reorder float accumulation.
func wantClose(t *testing.T, label string, got, want *tensor.Tensor) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: missing output", label)
	}
	if !tensor.SameShape(got, want) {
		t.Fatalf("%s: shape %v, want %v", label, got.Shape(), want.Shape())
	}
	for i := range want.Data() {
		a, b := float64(want.Data()[i]), float64(got.Data()[i])
		if math.Abs(a-b) > 1e-4*math.Max(1, math.Abs(a)) {
			t.Fatalf("%s: elem %d: %v vs %v", label, i, b, a)
		}
	}
}

func sharedOpts(memoCap int) registry.ModelOptions {
	return registry.ModelOptions{
		Pool: 2, MaxBatch: 8, MaxWait: time.Millisecond,
		ShareStem: 2, StemMemoCap: memoCap,
	}
}

// Registering two models with matching two-block stems must fuse them into
// one shared-stem group whose outputs match each model's solo plan, with
// repeated inputs served from the stem memo.
func TestSharedStemFormationAndParity(t *testing.T) {
	r := newRegistry(t)
	ga, gb := testutil.TinySharedStemPair(41)
	ma, err := r.Register("shared-a", ga, sharedOpts(64))
	if err != nil {
		t.Fatal(err)
	}
	mb, err := r.Register("shared-b", gb, sharedOpts(64))
	if err != nil {
		t.Fatal(err)
	}

	snapA, err := ma.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snapA.Shared == nil {
		t.Fatal("shared-a has no group after matching registration")
	}
	if got := snapA.Shared.Members; len(got) != 2 || got[0] != "shared-a" || got[1] != "shared-b" {
		t.Fatalf("members = %v", got)
	}
	if snapA.Shared.Depth != 2 {
		t.Fatalf("stem depth = %d, want 2", snapA.Shared.Depth)
	}
	if snapA.Shared.Fingerprint == "" || snapA.Shared.Fingerprint == "0000000000000000" {
		t.Fatalf("fingerprint = %q", snapA.Shared.Fingerprint)
	}
	if snapA.Version != 1 {
		t.Fatalf("group formation bumped version to %d", snapA.Version)
	}

	ctx := context.Background()
	x := sample(3*16*16, 11)
	for name, m := range map[string]*registry.Model{"a": ma, "b": mb} {
		outs, err := m.Submit(ctx, x.Clone())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		g := ga
		if name == "b" {
			g = gb
		}
		want := engine.Compile(g).Forward(x.Clone())
		if len(outs) != 1 {
			t.Fatalf("%s: got %d outputs, want the model's own task only", name, len(outs))
		}
		wantClose(t, name, outs[0], want[0])
	}

	// The same rows again: the stem must come from the memo.
	if _, err := ma.Submit(ctx, x.Clone()); err != nil {
		t.Fatal(err)
	}
	st := ma.Stats()
	if st.Shared == nil {
		t.Fatal("stats lost the shared info")
	}
	if st.Shared.MemoHits == 0 {
		t.Fatalf("no memo hits after repeated input: %+v", st.Shared)
	}
	if len(st.Shared.StemBatchHist) == 0 {
		t.Fatal("stem batch histogram empty after traffic")
	}
	// Group-wide counters: the partner reports the same numbers.
	if sb := mb.Stats().Shared; sb == nil || sb.MemoHits != st.Shared.MemoHits {
		t.Fatalf("partner sees different group counters: %+v vs %+v", sb, st.Shared)
	}
}

// Models whose stems don't match (or don't match deeply enough) stay solo.
func TestSharedStemRequiresMatchingStem(t *testing.T) {
	r := newRegistry(t)
	ga, gb := testutil.TinySharedStemPair(43)
	ma, err := r.Register("stem-a", ga, sharedOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	// Unrelated architecture with sharing enabled: no group forms.
	mc, err := r.Register("stem-c", tinyGraph(44), registry.ModelOptions{ShareStem: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Matching stem but a deeper requirement than the two models share.
	deep := sharedOpts(0)
	deep.ShareStem = 3
	md, err := r.Register("stem-d", gb, deep)
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*registry.Model{"a": ma, "c": mc, "d": md} {
		if st := m.Stats(); st.Shared != nil {
			t.Fatalf("%s unexpectedly grouped: %+v", name, st.Shared)
		}
		if _, err := m.Submit(context.Background(), sample(3*16*16, 5)); err != nil {
			t.Fatalf("%s solo submit: %v", name, err)
		}
	}
}

// Concurrent submissions from both members must coalesce into mixed
// batches through the group batcher.
func TestSharedStemMixedBatching(t *testing.T) {
	r := newRegistry(t)
	ga, gb := testutil.TinySharedStemPair(47)
	opts := sharedOpts(0)
	opts.MaxWait = 30 * time.Millisecond
	ma, err := r.Register("mix-a", ga, opts)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := r.Register("mix-b", gb, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for round := 0; round < 5; round++ {
		var wg sync.WaitGroup
		for _, m := range []*registry.Model{ma, mb} {
			m := m
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := m.Submit(ctx, sample(3*16*16, round)); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	if st := ma.Stats(); st.Shared == nil || st.Shared.MixedBatches == 0 {
		t.Fatalf("no mixed batches after concurrent cross-model traffic: %+v", st.Shared)
	}
}

// Hot-swapping one member's head under load: the group recompiles onto the
// new graph, no request from either member is dropped, the partner keeps
// its version, and both keep answering correctly.
func TestSharedSwapOneHeadUnderLoad(t *testing.T) {
	r := newRegistry(t)
	ga, gb := testutil.TinySharedStemPair(53)
	ma, err := r.Register("swap-a", ga, sharedOpts(32))
	if err != nil {
		t.Fatal(err)
	}
	mb, err := r.Register("swap-b", gb, sharedOpts(32))
	if err != nil {
		t.Fatal(err)
	}
	if ma.Stats().Shared == nil {
		t.Fatal("group did not form")
	}

	// Same stem, new head: rebuild the pair deterministically and perturb
	// the replacement's divergent tail in place.
	_, gbNew := testutil.TinySharedStemPair(53)
	perturbTail(gbNew)

	ctx := context.Background()
	stop := make(chan struct{})
	var submitted, failed atomic.Int64
	var wg sync.WaitGroup
	for _, m := range []*registry.Model{ma, mb, ma, mb} {
		m := m
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := m.Submit(ctx, sample(3*16*16, i)); err != nil {
					failed.Add(1)
					t.Errorf("%s under swap: %v", m.Name(), err)
					return
				}
				submitted.Add(1)
			}
		}()
	}
	time.Sleep(20 * time.Millisecond) // let load build up
	rec, err := mb.Swap(ctx, gbNew, "")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // keep serving across the cutover
	close(stop)
	wg.Wait()

	if failed.Load() != 0 {
		t.Fatalf("%d requests dropped across the swap", failed.Load())
	}
	if submitted.Load() == 0 {
		t.Fatal("load generator never ran")
	}
	if rec.Abandoned != 0 {
		t.Fatalf("swap abandoned %d in-flight requests", rec.Abandoned)
	}
	if rec.FromVersion != 1 || rec.ToVersion != 2 {
		t.Fatalf("swap versions %d -> %d, want 1 -> 2", rec.FromVersion, rec.ToVersion)
	}
	snapA, _ := ma.Snapshot()
	if snapA.Version != 1 {
		t.Fatalf("partner version bumped to %d by the member swap", snapA.Version)
	}
	if snapA.Shared == nil || len(snapA.Shared.Members) != 2 {
		t.Fatalf("group dissolved by a same-stem swap: %+v", snapA.Shared)
	}

	// Both heads answer per their (possibly new) graphs.
	x := sample(3*16*16, 99)
	outsB, err := mb.Submit(ctx, x.Clone())
	if err != nil {
		t.Fatal(err)
	}
	wantClose(t, "swapped head", outsB[0], engine.Compile(gbNew).Forward(x.Clone())[0])
	outsA, err := ma.Submit(ctx, x.Clone())
	if err != nil {
		t.Fatal(err)
	}
	wantClose(t, "partner head", outsA[0], engine.Compile(ga).Forward(x.Clone())[0])
}

// Swapping a member to a graph whose stem no longer matches must eject it
// to a solo deployment and dissolve the two-member group, dropping nothing.
func TestSharedSwapDeparture(t *testing.T) {
	r := newRegistry(t)
	ga, gb := testutil.TinySharedStemPair(59)
	ma, err := r.Register("dep-a", ga, sharedOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	mb, err := r.Register("dep-b", gb, sharedOpts(0))
	if err != nil {
		t.Fatal(err)
	}
	if ma.Stats().Shared == nil {
		t.Fatal("group did not form")
	}

	gNew := tinyGraph(60) // unrelated stem: forces departure
	rec, err := mb.Swap(context.Background(), gNew, "")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Abandoned != 0 {
		t.Fatalf("departure abandoned %d requests", rec.Abandoned)
	}
	if st := mb.Stats(); st.Shared != nil || st.Version != 2 {
		t.Fatalf("departed member: version %d shared %+v", st.Version, st.Shared)
	}
	if st := ma.Stats(); st.Shared != nil || st.Version != 1 {
		t.Fatalf("remaining member: version %d shared %+v", st.Version, st.Shared)
	}

	x := sample(3*16*16, 7)
	outsA, err := ma.Submit(context.Background(), x.Clone())
	if err != nil {
		t.Fatal(err)
	}
	wantClose(t, "dissolved solo", outsA[0], engine.Compile(ga).Forward(x.Clone())[0])
	if _, err := mb.Submit(context.Background(), x.Clone()); err != nil {
		t.Fatal(err)
	}
}

// A departing member is offered to every other group: swapped onto the
// stem of a model that serves alone, it leaves its group — whose remainder
// becomes a group of one at its old version — and joins that model, with
// no request to any of the three dropped.
func TestSharedSwapDepartureJoinsAnotherGroup(t *testing.T) {
	r := newRegistry(t)
	ga, gb := testutil.TinySharedStemPair(41)
	gc, gd := testutil.TinySharedStemPair(77)
	var models []*registry.Model
	for _, reg := range []struct {
		name string
		g    *graph.Graph
	}{{"join-a", ga}, {"join-b", gb}, {"join-c", gc}} {
		m, err := r.Register(reg.name, reg.g, sharedOpts(0))
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	ma, mb, mc := models[0], models[1], models[2]
	if ma.Stats().Shared == nil {
		t.Fatal("group did not form")
	}
	if st := mc.Stats(); st.Shared != nil {
		t.Fatalf("join-c grouped with an unrelated stem: %+v", st.Shared)
	}

	ctx := context.Background()
	stop := make(chan struct{})
	var failed atomic.Int64
	var wg sync.WaitGroup
	for _, m := range models {
		m := m
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := m.Submit(ctx, sample(3*16*16, i)); err != nil {
					failed.Add(1)
					t.Errorf("%s under swap: %v", m.Name(), err)
					return
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	rec, err := mb.Swap(ctx, gd, "")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()

	if failed.Load() != 0 {
		t.Fatalf("%d requests dropped across the swap", failed.Load())
	}
	if rec.Abandoned != 0 {
		t.Fatalf("departure abandoned %d requests", rec.Abandoned)
	}
	for _, m := range []*registry.Model{mb, mc} {
		st := m.Stats()
		if st.Shared == nil || len(st.Shared.Members) != 2 ||
			st.Shared.Members[0] != "join-b" || st.Shared.Members[1] != "join-c" {
			t.Fatalf("%s: shared %+v, want group [join-b join-c]", m.Name(), st.Shared)
		}
	}
	if st := mb.Stats(); st.Version != 2 {
		t.Fatalf("departed member at version %d, want 2", st.Version)
	}
	if st := mc.Stats(); st.Version != 1 {
		t.Fatalf("joined model at version %d, want 1", st.Version)
	}
	if st := ma.Stats(); st.Shared != nil || st.Version != 1 {
		t.Fatalf("remaining member: version %d shared %+v", st.Version, st.Shared)
	}

	x := sample(3*16*16, 7)
	for _, c := range []struct {
		m *registry.Model
		g *graph.Graph
	}{{ma, ga}, {mb, gd}, {mc, gc}} {
		outs, err := c.m.Submit(ctx, x.Clone())
		if err != nil {
			t.Fatal(err)
		}
		wantClose(t, c.m.Name(), outs[0], engine.Compile(c.g).Forward(x.Clone())[0])
	}
}

// perturbTail nudges every parameter below the shared stem (the divergent
// third block and head), leaving the two stem blocks bit-identical.
func perturbTail(g *graph.Graph) {
	n := g.Root.Children[0].Children[0] // last stem node
	for len(n.Children) > 0 {
		n = n.Children[0]
		for _, p := range n.Layer.Params() {
			d := p.Value.Data()
			for i := range d {
				d[i] += 0.05
			}
		}
	}
}
