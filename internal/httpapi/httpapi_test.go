package httpapi_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
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

// newServer serves g as the only (so the default) model of a fresh
// registry, which the test's cleanup drains.
func newServer(t *testing.T, g *graph.Graph, opts registry.ModelOptions, deadline time.Duration) *httpapi.Server {
	t.Helper()
	reg := registry.New()
	if _, err := reg.Register(httpapi.DefaultModelName, g, opts); err != nil {
		t.Fatal(err)
	}
	s := httpapi.NewRegistry(reg, deadline)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

// newTestServer serves the tiny two-task test model over a live listener.
func newTestServer(t *testing.T, opts registry.ModelOptions, deadline time.Duration) (*api.Client, *httpapi.Server, int) {
	t.Helper()
	s := newServer(t, testModel(), opts, deadline)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return api.NewClient(srv.URL), s, 3 * 16 * 16
}

func testModel() *graph.Graph {
	return testutil.TinyMultiDNN(2, testutil.TinyFace(1, 8, 4))
}

func sampleInput(per int) []float32 {
	input := make([]float32, per)
	for i := range input {
		input[i] = float32(i%7) * 0.1
	}
	return input
}

func TestInferSingleSample(t *testing.T) {
	c, _, per := newTestServer(t, registry.ModelOptions{Pool: 2}, 0)
	resp, err := c.Infer(context.Background(), sampleInput(per))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Batch != 1 {
		t.Fatalf("batch = %d", resp.Batch)
	}
	if len(resp.Outputs) != 2 {
		t.Fatalf("outputs for %d tasks, want 2", len(resp.Outputs))
	}
	if rows := resp.Outputs["gender"]; len(rows) != 1 || len(rows[0]) != 2 {
		t.Fatalf("gender output shape wrong: %v", rows)
	}
	if rows := resp.Outputs["ethnicity"]; len(rows) != 1 || len(rows[0]) != 3 {
		t.Fatalf("ethnicity output shape wrong: %v", rows)
	}
}

func TestInferBatch(t *testing.T) {
	c, _, per := newTestServer(t, registry.ModelOptions{Pool: 2}, 0)
	resp, err := c.Infer(context.Background(), make([]float32, 3*per))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Batch != 3 || len(resp.Outputs["gender"]) != 3 {
		t.Fatalf("batch handling broken: %+v", resp)
	}
}

// A request larger than MaxBatch still runs (as its own pass).
func TestInferOversizeBatch(t *testing.T) {
	c, _, per := newTestServer(t, registry.ModelOptions{Pool: 1, MaxBatch: 2}, 0)
	resp, err := c.Infer(context.Background(), make([]float32, 5*per))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Batch != 5 || len(resp.Outputs["gender"]) != 5 {
		t.Fatalf("oversize batch broken: batch=%d", resp.Batch)
	}
}

func TestInferRejectsBadInput(t *testing.T) {
	c, _, _ := newTestServer(t, registry.ModelOptions{}, 0)
	ctx := context.Background()
	for _, input := range [][]float32{make([]float32, 3), nil} {
		_, err := c.Infer(ctx, input)
		var apiErr *api.Error
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
			t.Errorf("len %d: err %v, want 400", len(input), err)
		}
	}
	// Garbage body and GET are still rejected at the HTTP layer.
	srv := httptest.NewServer(newServer(t, testModel(), registry.ModelOptions{}, 0).Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/v1/infer", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty body status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/v1/infer")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/infer status %d", resp.StatusCode)
	}
}

func TestModelAndStatsEndpoints(t *testing.T) {
	c, _, per := newTestServer(t, registry.ModelOptions{Pool: 2}, 0)
	ctx := context.Background()
	info, err := c.Model(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.InputShape) != 3 || info.InputShape[0] != 3 {
		t.Fatalf("input shape %v", info.InputShape)
	}
	if info.Tasks["gender"] != 2 || info.Tasks["ethnicity"] != 3 {
		t.Fatalf("tasks %v", info.Tasks)
	}
	if info.Params <= 0 || info.FLOPs <= 0 {
		t.Fatalf("bad metadata %+v", info)
	}

	// Drive a few inferences, then check counters and distributions.
	for i := 0; i < 3; i++ {
		if _, err := c.Infer(ctx, sampleInput(per)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 3 {
		t.Fatalf("requests = %d, want 3", st.Requests)
	}
	if st.Batches <= 0 || st.MeanBatch <= 0 {
		t.Fatalf("batch stats missing: %+v", st)
	}
	if st.P50Micros <= 0 || st.P95Micros < st.P50Micros || st.P99Micros < st.P95Micros {
		t.Fatalf("latency percentiles broken: %+v", st)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("queue depth %d at idle", st.QueueDepth)
	}
	total := int64(0)
	for _, n := range st.BatchHist {
		total += n
	}
	if total != st.Batches {
		t.Fatalf("batch histogram sums to %d, batches %d", total, st.Batches)
	}
}

// The stats endpoint must surface the compiled plan's schedule and per-op
// counters, aggregated across the whole engine pool.
func TestStatsPlanSection(t *testing.T) {
	c, _, per := newTestServer(t, registry.ModelOptions{Pool: 2}, 0)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := c.Infer(ctx, sampleInput(per)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	p := st.Plan
	if p == nil {
		t.Fatal("stats carry no plan section for a plan-backed pool")
	}
	if len(p.Ops) == 0 || p.Waves <= 0 || p.Slabs <= 0 {
		t.Fatalf("plan schedule metadata missing: %+v", p)
	}
	if p.PeakBytes <= 0 || p.PeakBytes > p.NaiveBytes {
		t.Fatalf("planned bytes %d vs naive %d", p.PeakBytes, p.NaiveBytes)
	}
	// Every op runs exactly once per fused pass, whichever pool engine took
	// the batch, so pool-aggregated calls must equal the batch count.
	for _, op := range p.Ops {
		if op.Calls != st.Batches {
			t.Fatalf("op %q calls = %d, batches = %d", op.Name, op.Calls, st.Batches)
		}
	}
}

// Concurrent clients must all be served correctly through the batcher.
func TestConcurrentInference(t *testing.T) {
	c, _, per := newTestServer(t, registry.ModelOptions{Pool: 2, MaxBatch: 4}, 0)
	input := sampleInput(per)
	want, err := c.Infer(context.Background(), input)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := c.Infer(context.Background(), input)
			if err != nil {
				errs <- err
				return
			}
			for task, rows := range want.Outputs {
				got := resp.Outputs[task]
				for r := range rows {
					for k := range rows[r] {
						if got[r][k] != rows[r][k] {
							errs <- fmt.Errorf("task %s row %d differs batched vs solo", task, r)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// slowEngine delays each forward pass without burning CPU so concurrent
// requests can outrun the scheduler and back the tiny queue up.
type slowEngine struct {
	inner engine.Engine
	delay time.Duration
}

func (s *slowEngine) Name() string { return "slow(" + s.inner.Name() + ")" }

func (s *slowEngine) Forward(x *tensor.Tensor) map[int]*tensor.Tensor {
	time.Sleep(s.delay)
	return s.inner.Forward(x)
}

// A full queue sheds load with 429 instead of queueing unboundedly.
func TestQueueFullReturns429(t *testing.T) {
	// A single slow engine with a tiny queue; concurrent requests pile up
	// behind the in-flight batch and overflow.
	c, _, per := newTestServer(t, registry.ModelOptions{
		Wrap: func(e engine.Engine) engine.Engine {
			return &slowEngine{inner: e, delay: 10 * time.Millisecond}
		},
		MaxBatch: 2, QueueCap: 1, MaxWait: time.Millisecond,
	}, 0)
	var rejected, ok int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Infer(context.Background(), sampleInput(per))
			mu.Lock()
			defer mu.Unlock()
			var apiErr *api.Error
			switch {
			case err == nil:
				ok++
			case errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusTooManyRequests:
				rejected++
			default:
				// Other failures are real errors.
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	if ok == 0 {
		t.Fatal("no request succeeded")
	}
	if rejected == 0 {
		t.Fatal("queue never rejected despite capacity 1 and 32 concurrent requests")
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected != rejected {
		t.Fatalf("stats report %d rejected, clients saw %d", st.Rejected, rejected)
	}
}

// A request that cannot meet its deadline fails with 503.
func TestDeadlineReturns503(t *testing.T) {
	c, _, per := newTestServer(t, registry.ModelOptions{Pool: 1, MaxBatch: 1, QueueCap: 64}, time.Nanosecond)
	_, err := c.Infer(context.Background(), sampleInput(per))
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("err %v, want 503", err)
	}
	if !apiErr.IsBackpressure() {
		t.Fatal("503 should classify as backpressure")
	}
}

// Shutdown drains queued requests and then refuses new ones.
func TestShutdownDrains(t *testing.T) {
	c, s, per := newTestServer(t, registry.ModelOptions{Pool: 1, MaxBatch: 4, QueueCap: 64}, 0)
	input := sampleInput(per)
	const n = 12
	results := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := c.Infer(context.Background(), input)
			results <- err
		}()
	}
	// Let the requests reach the queue, then drain.
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for i := 0; i < n; i++ {
		if err := <-results; err != nil {
			var apiErr *api.Error
			// Requests that arrived after the drain began get 503.
			if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusServiceUnavailable {
				continue
			}
			t.Fatalf("queued request failed during drain: %v", err)
		}
	}
	// New work is refused after shutdown.
	_, err := c.Infer(context.Background(), input)
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown err %v, want 503", err)
	}
}

// The batched path must agree with a direct engine forward.
func TestBatchedMatchesDirectEngine(t *testing.T) {
	g := testModel()
	s := newServer(t, g, registry.ModelOptions{Pool: 1, MaxBatch: 8}, 0)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := api.NewClient(srv.URL)

	per := 3 * 16 * 16
	input := sampleInput(per)
	resp, err := c.Infer(context.Background(), input)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.Compile(g)
	x := tensor.FromSlice(input, 1, 3, 16, 16)
	outs := eng.Forward(x)
	for id, o := range outs {
		name := g.TaskNames[id]
		rows := resp.Outputs[name]
		for k, v := range o.Data() {
			if rows[0][k] != v {
				t.Fatalf("task %s output %d: server %v, engine %v", name, k, rows[0][k], v)
			}
		}
	}
}
