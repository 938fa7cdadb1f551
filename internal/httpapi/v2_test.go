package httpapi_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/api"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/httpapi"
	"repro/internal/serve/registry"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

func tinyGraph(seed uint64) *graph.Graph {
	ds := testutil.TinyFace(seed, 8, 4)
	return testutil.TinyMultiDNN(seed, ds)
}

// newFleetServer serves two distinct models ("alpha" is the default).
func newFleetServer(t *testing.T) (*api.Client, *registry.Registry, int) {
	t.Helper()
	reg := registry.New()
	if _, err := reg.Register("alpha", tinyGraph(1), registry.ModelOptions{Pool: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("beta", tinyGraph(2), registry.ModelOptions{Pool: 1}); err != nil {
		t.Fatal(err)
	}
	s := httpapi.NewRegistry(reg, 0)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return api.NewClient(srv.URL), reg, 3 * 16 * 16
}

// Two models answer from one process, each with its own weights.
func TestV2InferTwoModels(t *testing.T) {
	c, _, per := newFleetServer(t)
	ctx := context.Background()
	in := sampleInput(per)

	ra, err := c.InferModel(ctx, "alpha", in)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := c.InferModel(ctx, "beta", in)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Batch != 1 || rb.Batch != 1 {
		t.Fatalf("batches %d/%d", ra.Batch, rb.Batch)
	}
	// Distinct weights must answer distinctly.
	if reflect.DeepEqual(ra.Outputs["gender"], rb.Outputs["gender"]) {
		t.Fatal("alpha and beta returned identical outputs; routing is broken")
	}
	// Each model's HTTP answer matches its own engine run directly.
	for name, seed := range map[string]uint64{"alpha": 1, "beta": 2} {
		resp, err := c.InferModel(ctx, name, in)
		if err != nil {
			t.Fatal(err)
		}
		x := tensor.FromSlice(in, 1, 3, 16, 16)
		want := engine.Compile(tinyGraph(seed)).Forward(x)
		g := tinyGraph(seed)
		for _, id := range g.Tasks() {
			rows := resp.Outputs[g.TaskNames[id]]
			for i, v := range want[id].Data() {
				if rows[0][i] != v {
					t.Fatalf("%s task %d diverges from direct engine at %d", name, id, i)
				}
			}
		}
	}
}

func TestV2ModelListing(t *testing.T) {
	c, _, per := newFleetServer(t)
	ctx := context.Background()
	if _, err := c.InferModel(ctx, "beta", sampleInput(per)); err != nil {
		t.Fatal(err)
	}

	list, err := c.Models(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if list.Default != "alpha" {
		t.Fatalf("default = %q", list.Default)
	}
	if len(list.Models) != 2 {
		t.Fatalf("%d models listed", len(list.Models))
	}
	byName := map[string]api.ModelSummary{}
	for _, m := range list.Models {
		byName[m.Name] = m
	}
	a, b := byName["alpha"], byName["beta"]
	if !a.Default || b.Default {
		t.Fatalf("default flags: alpha %v beta %v", a.Default, b.Default)
	}
	if a.Version != 1 || a.Checksum == "" || a.Checksum == b.Checksum {
		t.Fatalf("identity fields wrong: %+v vs %+v", a, b)
	}
	if a.PlanOps == 0 {
		t.Fatalf("plan op count missing: %+v", a)
	}
	if b.Requests != 1 {
		t.Fatalf("beta requests = %d, want 1", b.Requests)
	}
	if len(a.Tasks) != 2 {
		t.Fatalf("alpha tasks = %v", a.Tasks)
	}

	// Per-model metadata carries the deploy identity from the listing.
	info, err := c.ModelInfo(ctx, "beta")
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "beta" || info.Version != 1 || info.Checksum != b.Checksum {
		t.Fatalf("model info identity wrong: %+v", info)
	}
}

func TestV2ModelStats(t *testing.T) {
	c, _, per := newFleetServer(t)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := c.InferModel(ctx, "alpha", sampleInput(per)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.ModelStats(ctx, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if st.Name != "alpha" || st.Version != 1 || st.Checksum == "" {
		t.Fatalf("identity: %+v", st)
	}
	if st.Requests != 3 {
		t.Fatalf("requests = %d, want 3", st.Requests)
	}
	if st.Registry != nil {
		t.Fatal("per-model stats must not carry the fleet section")
	}
	// The neighbour's counters are untouched.
	other, err := c.ModelStats(ctx, "beta")
	if err != nil {
		t.Fatal(err)
	}
	if other.Requests != 0 {
		t.Fatalf("beta requests = %d, want 0", other.Requests)
	}
}

// Unknown model names 404, and the typed error names the model.
func TestV2UnknownModel(t *testing.T) {
	c, _, per := newFleetServer(t)
	_, err := c.InferModel(context.Background(), "nope", sampleInput(per))
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("err = %v, want 404 api.Error", err)
	}
	if apiErr.Model != "nope" {
		t.Fatalf("error model = %q", apiErr.Model)
	}
	if apiErr.IsBackpressure() {
		t.Fatal("404 must not be classified as backpressure")
	}
}

// The v1 surface is a permanent alias for the default model: same
// outputs, same metadata, same counters — pinned so existing clients
// keep working across the v2 redesign.
func TestV1AliasesDefaultModel(t *testing.T) {
	c, reg, per := newFleetServer(t)
	ctx := context.Background()
	in := sampleInput(per)

	v1, err := c.Infer(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := c.InferModel(ctx, "alpha", in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(v1.Outputs, v2.Outputs) {
		t.Fatal("v1 infer diverges from v2 on the default model")
	}

	m1, err := c.Model(ctx)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := c.ModelInfo(ctx, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Fatalf("v1 model info %+v diverges from v2 %+v", m1, m2)
	}

	// v1 stats carry the default model's counters (both infers above)
	// plus the fleet-level registry section.
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 2 {
		t.Fatalf("v1 stats requests = %d, want 2", st.Requests)
	}
	if st.Registry == nil {
		t.Fatal("v1 stats missing the registry section")
	}
	if st.Registry.ModelsLoaded != 2 {
		t.Fatalf("ModelsLoaded = %d", st.Registry.ModelsLoaded)
	}
	if _, ok := st.Registry.QueueDepth["beta"]; !ok {
		t.Fatalf("registry queue depths missing beta: %+v", st.Registry)
	}

	// Re-pointing the default re-points the whole v1 surface.
	if err := reg.SetDefault("beta"); err != nil {
		t.Fatal(err)
	}
	m1, err = c.Model(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Name != "beta" {
		t.Fatalf("v1 model after SetDefault = %q", m1.Name)
	}
}

// Hot swap through the HTTP surface: closed-loop clients hammer the
// model over the wire while it is swapped. No request may fail with
// anything but backpressure, and the swap must drain cleanly.
func TestV2SwapUnderHTTPLoad(t *testing.T) {
	reg := registry.New()
	m, err := reg.Register("face", tinyGraph(1), registry.ModelOptions{
		Pool: 2, MaxBatch: 4, QueueCap: 32,
		Wrap: func(e engine.Engine) engine.Engine {
			return &slowEngine{inner: e, delay: time.Millisecond}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := httpapi.NewRegistry(reg, 0)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	c := api.NewClient(srv.URL)
	in := sampleInput(3 * 16 * 16)

	var ok, backpressure, hard atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, err := c.InferModel(context.Background(), "face", in)
				var apiErr *api.Error
				switch {
				case err == nil:
					ok.Add(1)
				case errors.As(err, &apiErr) && apiErr.IsBackpressure():
					backpressure.Add(1)
				default:
					hard.Add(1)
				}
			}
		}()
	}

	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rec, err := m.Swap(ctx, tinyGraph(3), "")
	if err != nil {
		t.Fatalf("swap: %v", err)
	}
	if rec.Abandoned != 0 {
		t.Fatalf("swap abandoned %d in-flight requests", rec.Abandoned)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()

	if ok.Load() == 0 {
		t.Fatal("no requests completed")
	}
	if got := hard.Load(); got != 0 {
		t.Fatalf("%d non-backpressure errors across the swap (want 0)", got)
	}
	// The wire reports the swap: bumped version and a history record.
	st, err := c.ModelStats(context.Background(), "face")
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != 2 || len(st.Swaps) != 1 {
		t.Fatalf("version %d, %d swap records", st.Version, len(st.Swaps))
	}
	if st.Swaps[0].Abandoned != 0 || st.Swaps[0].ToChecksum == st.Swaps[0].FromChecksum {
		t.Fatalf("swap record %+v", st.Swaps[0])
	}
	if st.Pending != 0 {
		t.Fatalf("pending = %d after quiesce", st.Pending)
	}
	// And the new weights serve.
	resp, err := c.InferModel(context.Background(), "face", in)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.FromSlice(in, 1, 3, 16, 16)
	want := engine.Compile(tinyGraph(3)).Forward(x)
	g := tinyGraph(3)
	for _, id := range g.Tasks() {
		if resp.Outputs[g.TaskNames[id]][0][0] != want[id].Data()[0] {
			t.Fatalf("task %d serves stale weights after swap", id)
		}
	}
}

// Shared-stem serving shows on the wire: /v2/models/{name} reports the
// group, /v2/models/{name}/stats reports group-wide memo counters.
// newSharedStemServer serves "vit-a" and "vit-b" as one shared-stem group
// with a stem memo.
func newSharedStemServer(t *testing.T) *api.Client {
	t.Helper()
	reg := registry.New()
	ga, gb := testutil.TinySharedStemPair(71)
	opts := registry.ModelOptions{Pool: 1, ShareStem: 2, StemMemoCap: 32}
	if _, err := reg.Register("vit-a", ga, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("vit-b", gb, opts); err != nil {
		t.Fatal(err)
	}
	s := httpapi.NewRegistry(reg, 0)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return api.NewClient(srv.URL)
}

func TestV2SharedStemSurface(t *testing.T) {
	c := newSharedStemServer(t)
	ctx := context.Background()

	info, err := c.ModelInfo(ctx, "vit-a")
	if err != nil {
		t.Fatal(err)
	}
	if info.SharedStem == nil {
		t.Fatal("/v2/models/vit-a carries no shared_stem despite the group")
	}
	if got := info.SharedStem.Members; len(got) != 2 || got[0] != "vit-a" || got[1] != "vit-b" {
		t.Fatalf("members = %v", got)
	}
	if info.SharedStem.Depth != 2 || info.SharedStem.Fingerprint == "" {
		t.Fatalf("shared_stem = %+v", info.SharedStem)
	}

	// The group's per-op counters reach every member's stats: after one
	// request to vit-b, vit-a reports the shared plan's stem ops as run.
	if _, err := c.InferModel(ctx, "vit-b", make([]float32, 3*16*16)); err != nil {
		t.Fatal(err)
	}
	opStats, err := c.ModelStats(ctx, "vit-a")
	if err != nil {
		t.Fatal(err)
	}
	if opStats.Plan == nil {
		t.Fatal("stats carry no plan section for a shared-stem member")
	}
	stemRan := false
	for _, op := range opStats.Plan.Ops {
		stemRan = stemRan || strings.HasPrefix(op.Name, "stem/") && op.Calls > 0
	}
	if !stemRan {
		t.Fatalf("no stem/ op ran after a request: %+v", opStats.Plan.Ops)
	}

	// Same rows three times: the doorkeeper admits them on the second
	// sighting, the third batch's stem comes from the memo, and both
	// members' stats report the same group-wide counters.
	in := sampleInput(3 * 16 * 16)
	for i := 0; i < 3; i++ {
		if _, err := c.InferModel(ctx, "vit-a", in); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.ModelStats(ctx, "vit-a")
	if err != nil {
		t.Fatal(err)
	}
	if st.SharedStem == nil || st.SharedStem.MemoHits == 0 {
		t.Fatalf("stats shared_stem = %+v, want memo hits", st.SharedStem)
	}
	if len(st.SharedStem.StemBatchHist) == 0 {
		t.Fatal("stem batch histogram missing from stats")
	}
	stB, err := c.ModelStats(ctx, "vit-b")
	if err != nil {
		t.Fatal(err)
	}
	if stB.SharedStem == nil || stB.SharedStem.MemoHits != st.SharedStem.MemoHits {
		t.Fatalf("partner reports different group counters: %+v vs %+v", stB.SharedStem, st.SharedStem)
	}
}
