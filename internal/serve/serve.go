// Package serve provides a small model-serving harness used to reproduce
// the paper's Discussion claim (Section 7): fusing multi-DNNs into one
// multi-task model raises online serving throughput, since every query
// costs one fused forward pass instead of one pass per task-specific DNN.
//
// Two load modes are supported:
//
//   - Closed loop (default): Clients workers issue requests back-to-back
//     for the duration of the window.
//   - Open loop (Rate > 0): requests arrive at a fixed rate regardless of
//     completions, the regime where queueing and batching effects show;
//     arrivals that find no free in-flight slot are counted as dropped.
//
// The measured target is pluggable (RunTarget), so the harness can drive a
// bare engine, an engine pool, or the dynamic batching scheduler and
// compare them under identical load.
package serve

import (
	"context"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/tensor"
)

// Options configures a serving run.
type Options struct {
	// Clients is the number of concurrent closed-loop clients (default 1).
	Clients int
	// Batch is the per-request batch size (default 1).
	Batch int
	// Duration bounds the measurement window (default 500ms).
	Duration time.Duration
	// Warmup requests before measurement (default 2).
	Warmup int
	// Vocab bounds the integer token ids used to fill 1-D (token-id)
	// inputs (default 8); image inputs are filled with Gaussian noise.
	Vocab int
	// Rate switches to open-loop load: requests arrive at Rate per second
	// regardless of completions. Zero keeps the closed loop.
	Rate float64
	// MaxOutstanding caps concurrently in-flight open-loop requests;
	// arrivals beyond it are dropped and counted (default 64).
	MaxOutstanding int
}

func (o Options) withDefaults() Options {
	if o.Clients <= 0 {
		o.Clients = 1
	}
	if o.Batch <= 0 {
		o.Batch = 1
	}
	if o.Duration <= 0 {
		o.Duration = 500 * time.Millisecond
	}
	if o.Warmup <= 0 {
		o.Warmup = 2
	}
	if o.Vocab <= 0 {
		o.Vocab = 8
	}
	if o.MaxOutstanding <= 0 {
		o.MaxOutstanding = 64
	}
	return o
}

// Report summarizes a serving run.
type Report struct {
	// Requests completed inside the window.
	Requests int
	// QPS is Requests divided by the actual elapsed time.
	QPS float64
	// P50, P95 and P99 are request latency percentiles.
	P50, P95, P99 time.Duration
	// Elapsed is the measured window length.
	Elapsed time.Duration
	// Dropped counts open-loop arrivals shed because MaxOutstanding
	// requests were already in flight.
	Dropped int
	// Errors counts requests the target failed (e.g. backpressure).
	Errors int
}

// Target is one request against the system under test: it runs the input
// to completion and returns nil on success. The harness measures its
// wall-clock latency.
type Target func(ctx context.Context, x *tensor.Tensor) error

// RunTarget drives an arbitrary target (engine, pool, or batcher) under
// the configured load and reports throughput. Canceling ctx ends the
// window early.
func RunTarget(ctx context.Context, target Target, inputShape graph.Shape, opts Options) Report {
	opts = opts.withDefaults()
	n := opts.Clients
	if opts.Rate > 0 && opts.MaxOutstanding > n {
		n = opts.MaxOutstanding
	}
	// Each in-flight request uses its own input tensor (engines may
	// parallelize internally; inputs must not be shared mid-flight).
	inputs := make([]*tensor.Tensor, n)
	for i := range inputs {
		shape := append([]int{opts.Batch}, inputShape...)
		inputs[i] = tensor.New(shape...)
		fillInput(tensor.NewRNG(uint64(i+1)), inputs[i], inputShape, opts.Vocab)
	}
	for w := 0; w < opts.Warmup; w++ {
		_ = target(ctx, inputs[w%len(inputs)])
	}
	if opts.Rate > 0 {
		return runOpen(ctx, target, inputs, opts)
	}
	return runClosed(ctx, target, inputs, opts)
}

// fillInput populates a request tensor: Gaussian noise for image-shaped
// inputs, integer token ids within the vocabulary for 1-D (token-id)
// inputs so text-model serving exercises real embedding lookups.
func fillInput(rng *tensor.RNG, t *tensor.Tensor, inputShape graph.Shape, vocab int) {
	if len(inputShape) != 1 {
		rng.FillNormal(t, 0, 1)
		return
	}
	d := t.Data()
	for i := range d {
		d[i] = float32(rng.Intn(vocab))
	}
}

func runClosed(ctx context.Context, target Target, inputs []*tensor.Tensor, opts Options) Report {
	var mu sync.Mutex
	var latencies []time.Duration
	var errs int
	start := time.Now()
	deadline := start.Add(opts.Duration)
	var wg sync.WaitGroup
	for c := 0; c < opts.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var local []time.Duration
			var localErrs int
			for ctx.Err() == nil && time.Now().Before(deadline) {
				t0 := time.Now()
				if err := target(ctx, inputs[c]); err != nil {
					localErrs++
					continue
				}
				local = append(local, time.Since(t0))
			}
			mu.Lock()
			latencies = append(latencies, local...)
			errs += localErrs
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return summarize(latencies, time.Since(start), 0, errs)
}

func runOpen(ctx context.Context, target Target, inputs []*tensor.Tensor, opts Options) Report {
	interval := time.Duration(float64(time.Second) / opts.Rate)
	if interval <= 0 {
		interval = time.Microsecond
	}
	free := make(chan *tensor.Tensor, len(inputs))
	for _, in := range inputs {
		free <- in
	}
	var mu sync.Mutex
	var latencies []time.Duration
	var dropped, errs int
	start := time.Now()
	deadline := start.Add(opts.Duration)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	var wg sync.WaitGroup
loop:
	for {
		select {
		case <-ctx.Done():
			break loop
		case now := <-ticker.C:
			if now.After(deadline) {
				break loop
			}
			select {
			case in := <-free:
				wg.Add(1)
				go func(in *tensor.Tensor) {
					defer wg.Done()
					t0 := time.Now()
					err := target(ctx, in)
					d := time.Since(t0)
					mu.Lock()
					if err != nil {
						errs++
					} else {
						latencies = append(latencies, d)
					}
					mu.Unlock()
					free <- in
				}(in)
			default:
				dropped++
			}
		}
	}
	wg.Wait()
	return summarize(latencies, time.Since(start), dropped, errs)
}

func summarize(latencies []time.Duration, elapsed time.Duration, dropped, errs int) Report {
	rep := Report{Requests: len(latencies), Elapsed: elapsed, Dropped: dropped, Errors: errs}
	if len(latencies) == 0 {
		return rep
	}
	rep.QPS = float64(rep.Requests) / elapsed.Seconds()
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	rep.P50 = latencies[len(latencies)/2]
	rep.P95 = latencies[min(len(latencies)-1, len(latencies)*95/100)]
	rep.P99 = latencies[min(len(latencies)-1, len(latencies)*99/100)]
	return rep
}

// Compare serves the original and fused models back to back under the
// same options, each through its compiled plan (the engine cmd/serve and
// the registry deploy), and returns both reports plus the throughput
// ratio. The token vocabulary is derived from the models when not set in
// opts.
func Compare(ctx context.Context, original, fused *graph.Graph, opts Options) (orig, fusedRep Report, gain float64) {
	shape := original.Root.InputShape
	if opts.Vocab <= 0 {
		opts.Vocab = graph.VocabOf(original)
	}
	orig = RunTarget(ctx, compiled(original, opts), shape, opts)
	fusedRep = RunTarget(ctx, compiled(fused, opts), shape, opts)
	if orig.QPS > 0 {
		gain = fusedRep.QPS / orig.QPS
	}
	return orig, fusedRep, gain
}

// compiled serves g from a pool of compiled engines over one plan, one per
// request opts can have in flight: a compiled engine runs one forward at a
// time.
func compiled(g *graph.Graph, opts Options) Target {
	opts = opts.withDefaults()
	n := opts.Clients
	if opts.Rate > 0 {
		n = opts.MaxOutstanding
	}
	p := plan.Compile(g)
	pool := make(chan engine.Engine, n)
	for range n {
		pool <- engine.NewFused(p, nil, nil)
	}
	return func(_ context.Context, x *tensor.Tensor) error {
		e := <-pool
		defer func() { pool <- e }()
		e.Forward(x)
		return nil
	}
}
