// Package batcher implements dynamic request batching for the serving
// layer: concurrent inference requests are enqueued into a bounded queue
// and coalesced into one batched Engine.Forward, whose outputs are
// scattered back to the waiting callers.
//
// Formation is engine-first. The collector takes the first queued request
// and checks out an engine before it forms the batch, so everything that
// queued while the engines were busy rides the next forward, up to
// MaxBatch samples. A batch still short of its target then waits for more
// rows, but only until MaxWait after its first request arrived, time spent
// waiting for the engine included. The target is the peak number of
// admitted, unanswered requests since the previous dispatch, counted at
// that dispatch and by every Submit after it (MaxBatch before the first
// dispatch): an idle engine leaves as soon as the callers it has seen are
// in, instead of taxing every request with the whole MaxWait.
//
// This realizes the paper's Discussion (Section 7) economics at the
// request scheduler level: a fused multi-task model answers every task of
// a query in one forward pass, and batching amortizes the per-pass fixed
// costs (graph walk, workspace setup, kernel launch) across concurrent
// queries.
//
// Backpressure is explicit: a full queue fails Submit with ErrQueueFull
// (the HTTP layer maps it to 429), and a request whose context ends while
// it waits is skipped at batch-formation time so abandoned requests never
// occupy a batch slot.
package batcher

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/tensor"
)

// ErrQueueFull is returned by Submit when the bounded queue is at
// capacity; the caller should shed the request (HTTP 429).
var ErrQueueFull = errors.New("batcher: queue full")

// ErrStopped is returned by Submit after Stop has begun draining.
var ErrStopped = errors.New("batcher: stopped")

// Options configures the batching policy.
type Options struct {
	// MaxBatch is the sample budget per fused forward pass (default 8).
	// A single request larger than MaxBatch forms its own pass.
	MaxBatch int
	// MaxWait is an upper bound on how long a batch waits for more
	// samples after its first request arrived, waiting for a busy engine
	// included (default 2ms). An idle engine leaves as soon as the
	// callers it has seen are in.
	MaxWait time.Duration
	// QueueCap bounds the request queue (default 8*MaxBatch).
	QueueCap int
}

// latencyWindow is how many recent request latencies feed the percentile
// estimates.
const latencyWindow = 4096

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 8
	}
	if o.MaxWait <= 0 {
		o.MaxWait = 2 * time.Millisecond
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 8 * o.MaxBatch
	}
	return o
}

// Stats is a point-in-time snapshot of the scheduler.
type Stats struct {
	// Requests counts completed requests; Canceled counts requests whose
	// context was canceled while queued; Expired counts requests whose
	// deadline elapsed while queued.
	Requests int64
	Canceled int64
	Expired  int64
	// QueueDepth is the number of admitted requests not yet handed to an
	// engine: queued, or held by the collector while an engine is busy.
	QueueDepth int
	// Batches counts fused forward passes, MeanBatch the mean samples per
	// pass, and BatchHist the pass count per batch size.
	Batches   int64
	MeanBatch float64
	BatchHist map[int]int64
	// MixedBatches counts passes that coalesced requests from two or more
	// distinct tags — cross-model stem batches under shared-stem serving.
	MixedBatches int64
	// MeanMicros and the percentiles summarize enqueue-to-scatter request
	// latency over the recent window, in microseconds.
	MeanMicros float64
	P50Micros  float64
	P95Micros  float64
	P99Micros  float64
}

type result struct {
	outs map[int]*tensor.Tensor
	err  error
}

type request struct {
	ctx  context.Context
	x    *tensor.Tensor
	rows int
	done chan result
	enq  time.Time
	// tag identifies the submitting model under shared-stem serving (0
	// otherwise); tasks, when non-nil, filters and renames the engine's
	// outputs (engine task id -> caller task id) at scatter time.
	tag   int
	tasks map[int]int
}

// Batcher coalesces concurrent inference requests into batched forward
// passes over a pool of engines. All methods are safe for concurrent use.
type Batcher struct {
	opts    Options
	sample  graph.Shape
	per     int
	engines chan engine.Engine
	queue   chan *request

	mu      sync.RWMutex // guards stopped vs. in-flight Submit enqueues
	stopped bool
	stopCh  chan struct{}
	drained chan struct{}
	wg      sync.WaitGroup // in-flight runBatch calls

	depth    atomic.Int64 // admitted requests not yet handed to an engine
	active   atomic.Int64 // admitted requests not yet answered
	peak     atomic.Int64 // most active seen at the last dispatch or by a Submit since
	requests atomic.Int64
	canceled atomic.Int64
	expired  atomic.Int64
	totalNS  atomic.Int64

	smu          sync.Mutex // guards hist + latency ring
	batches      int64
	rowsSum      int64
	mixedBatches int64
	hist         map[int]int64
	lat          []time.Duration
	latIdx       int
	latCount     int
}

// New builds a batcher over the given engine pool (one in-flight batch per
// engine). sample is the model's per-sample input shape.
func New(sample graph.Shape, engines []engine.Engine, opts Options) (*Batcher, error) {
	if len(engines) == 0 {
		return nil, errors.New("batcher: need at least one engine")
	}
	per := 1
	for _, d := range sample {
		per *= d
	}
	if per <= 0 {
		return nil, fmt.Errorf("batcher: degenerate sample shape %v", sample)
	}
	opts = opts.withDefaults()
	b := &Batcher{
		opts:    opts,
		sample:  sample.Clone(),
		per:     per,
		engines: make(chan engine.Engine, len(engines)),
		queue:   make(chan *request, opts.QueueCap),
		stopCh:  make(chan struct{}),
		drained: make(chan struct{}),
		hist:    make(map[int]int64),
		lat:     make([]time.Duration, latencyWindow),
	}
	for _, e := range engines {
		b.engines <- e
	}
	b.peak.Store(int64(opts.MaxBatch)) // cold start: fill as before any dispatch
	go b.collect()
	return b, nil
}

// MaxBatch reports the configured per-pass sample budget.
func (b *Batcher) MaxBatch() int { return b.opts.MaxBatch }

// Submit enqueues a batched input tensor [rows, sample...] and blocks
// until its outputs are scattered back, the queue rejects it, or ctx ends.
// The returned per-task tensors hold exactly this request's rows.
func (b *Batcher) Submit(ctx context.Context, x *tensor.Tensor) (map[int]*tensor.Tensor, error) {
	return b.SubmitTagged(ctx, x, 0, nil)
}

// SubmitTagged is Submit for shared-stem serving: tag identifies the
// submitting model (requests with different tags still coalesce into one
// stem batch), and tasks — when non-nil — selects which engine outputs this
// caller receives, renamed from engine task id (key) to caller task id
// (value). A nil tasks map returns every output under its engine id.
func (b *Batcher) SubmitTagged(ctx context.Context, x *tensor.Tensor, tag int, tasks map[int]int) (map[int]*tensor.Tensor, error) {
	rows, err := b.checkShape(x)
	if err != nil {
		return nil, err
	}
	req := &request{
		ctx: ctx, x: x, rows: rows, done: make(chan result, 1), enq: time.Now(),
		tag: tag, tasks: tasks,
	}

	b.mu.RLock()
	if b.stopped {
		b.mu.RUnlock()
		return nil, ErrStopped
	}
	select {
	case b.queue <- req:
		b.depth.Add(1)
		n := b.active.Add(1)
		b.mu.RUnlock()
		for p := b.peak.Load(); n > p && !b.peak.CompareAndSwap(p, n); p = b.peak.Load() {
		}
	default:
		b.mu.RUnlock()
		return nil, ErrQueueFull
	}

	select {
	case res := <-req.done:
		return res.outs, res.err
	case <-ctx.Done():
		// The queue slot is reclaimed by the collector, which drops
		// dead requests at batch-formation time.
		return nil, ctx.Err()
	}
}

func (b *Batcher) checkShape(x *tensor.Tensor) (int, error) {
	shape := x.Shape()
	if len(shape) != len(b.sample)+1 || shape[0] <= 0 {
		return 0, fmt.Errorf("batcher: input shape %v, want [rows, %v]", shape, []int(b.sample))
	}
	for i, d := range b.sample {
		if shape[i+1] != d {
			return 0, fmt.Errorf("batcher: input shape %v, want [rows, %v]", shape, []int(b.sample))
		}
	}
	return shape[0], nil
}

// collect is the scheduler loop. It takes the first request, checks out
// an engine, and only then forms the batch: everything already queued
// joins, up to MaxBatch samples, and a batch still short of target waits
// for more until first.enq + MaxWait. After Stop it keeps forming batches,
// without waiting, until the queue is empty.
func (b *Batcher) collect() {
	var pending *request // overflow request carried into the next batch
	for {
		first := pending
		pending = nil
		if first == nil {
			select {
			case first = <-b.queue:
			case <-b.stopCh:
				// Stop flipped the stopped flag under the write lock, so
				// nothing new arrives: drain what is left, then finish.
				select {
				case first = <-b.queue:
				default:
					close(b.drained)
					return
				}
			}
		}
		if b.dropDead(first) {
			continue
		}
		eng := <-b.engines
		if b.dropDead(first) { // its context may have ended behind a busy engine
			b.engines <- eng
			continue
		}
		batch, rows := []*request{first}, first.rows
		deadline := first.enq.Add(b.opts.MaxWait)
		var timer *time.Timer
	fill:
		for rows < b.opts.MaxBatch {
			var r *request
			select {
			case r = <-b.queue:
			default:
				wait := time.Until(deadline)
				if rows >= b.target() || wait <= 0 {
					break fill
				}
				if timer == nil {
					timer = time.NewTimer(wait)
				}
				select {
				case r = <-b.queue:
				case <-timer.C:
					break fill
				case <-b.stopCh:
					break fill // draining: close the window immediately
				}
			}
			if b.dropDead(r) {
				continue
			}
			if rows+r.rows > b.opts.MaxBatch {
				pending = r
				break fill
			}
			batch = append(batch, r)
			rows += r.rows
		}
		if timer != nil {
			timer.Stop()
		}
		b.depth.Add(-int64(len(batch)))
		// Callers answered by this batch are still active here, so a
		// closed loop's next round waits for all of them.
		b.peak.Store(b.active.Load())
		b.wg.Add(1)
		go b.runBatch(eng, batch, rows)
	}
}

// target is how many samples an idle engine waits for: the most admitted,
// unanswered requests seen at the last dispatch or by any Submit since, in
// [1, MaxBatch].
func (b *Batcher) target() int {
	return min(max(int(b.peak.Load()), 1), b.opts.MaxBatch)
}

// dropDead discards a request whose context ended while it waited, so it
// does not occupy a batch slot. Reports whether the request was dropped.
func (b *Batcher) dropDead(r *request) bool {
	err := r.ctx.Err()
	if err == nil {
		return false
	}
	if errors.Is(err, context.DeadlineExceeded) {
		b.expired.Add(1)
	} else {
		b.canceled.Add(1)
	}
	r.done <- result{err: err}
	b.depth.Add(-1)
	b.active.Add(-1)
	return true
}

func (b *Batcher) runBatch(eng engine.Engine, batch []*request, rows int) {
	defer b.wg.Done()
	x := batch[0].x
	var gatherBuf *[]float32
	if len(batch) > 1 {
		// Gather: concatenate the requests' rows into one arena-backed
		// input. Engines copy their outputs and do not retain the input
		// past Forward, so the buffer can go back to the arena immediately.
		x, gatherBuf = tensor.GetTensorDirty(append([]int{rows}, b.sample...)...)
		off := 0
		for _, r := range batch {
			copy(x.Data()[off*b.per:(off+r.rows)*b.per], r.x.Data())
			off += r.rows
		}
	}
	outs := eng.Forward(x)
	if gatherBuf != nil {
		tensor.PutBuf(gatherBuf)
	}
	b.engines <- eng // release before scatter so the next batch overlaps

	// Count the batch, and below each request, before answering it, so a
	// caller that reads Stats right after its reply sees itself counted.
	mixed := false
	for _, r := range batch {
		mixed = mixed || r.tag != batch[0].tag
	}
	b.recordBatch(rows, mixed)

	// Scatter: slice each task's output rows back per request, filtered and
	// renamed through the request's task map when it has one.
	off := 0
	for _, r := range batch {
		res := result{outs: make(map[int]*tensor.Tensor, len(outs))}
		emit := func(engID, callerID int) {
			o := outs[engID]
			if o == nil {
				return
			}
			if len(batch) == 1 {
				res.outs[callerID] = o
				return
			}
			per := o.Size() / rows
			t := tensor.New(append([]int{r.rows}, o.Shape()[1:]...)...)
			copy(t.Data(), o.Data()[off*per:(off+r.rows)*per])
			res.outs[callerID] = t
		}
		if r.tasks != nil {
			for engID, callerID := range r.tasks {
				emit(engID, callerID)
			}
		} else {
			for id := range outs {
				emit(id, id)
			}
		}
		off += r.rows
		lat := time.Since(r.enq)
		b.requests.Add(1)
		b.totalNS.Add(int64(lat))
		b.recordLatency(lat)
		b.active.Add(-1)
		r.done <- res
	}
}

func (b *Batcher) recordLatency(d time.Duration) {
	b.smu.Lock()
	b.lat[b.latIdx] = d
	b.latIdx = (b.latIdx + 1) % len(b.lat)
	if b.latCount < len(b.lat) {
		b.latCount++
	}
	b.smu.Unlock()
}

func (b *Batcher) recordBatch(rows int, mixed bool) {
	b.smu.Lock()
	b.batches++
	b.rowsSum += int64(rows)
	b.hist[rows]++
	if mixed {
		b.mixedBatches++
	}
	b.smu.Unlock()
}

// QueueDepth reports the number of admitted requests not yet handed to an
// engine: those in the queue and those the collector holds while every
// engine is busy. SLO admission reads it as the backlog.
func (b *Batcher) QueueDepth() int { return int(b.depth.Load()) }

// Pending reports the number of admitted requests that have not been
// answered yet — queued or inside an in-flight batch. After a Stop whose
// context expired, this is the count of requests the drain abandoned.
func (b *Batcher) Pending() int { return int(b.active.Load()) }

// Stats snapshots the scheduler counters and distributions.
func (b *Batcher) Stats() Stats {
	st := Stats{
		Requests:   b.requests.Load(),
		Canceled:   b.canceled.Load(),
		Expired:    b.expired.Load(),
		QueueDepth: int(b.depth.Load()),
	}
	if st.Requests > 0 {
		st.MeanMicros = float64(b.totalNS.Load()) / float64(st.Requests) / 1e3
	}
	b.smu.Lock()
	st.Batches = b.batches
	st.MixedBatches = b.mixedBatches
	if b.batches > 0 {
		st.MeanBatch = float64(b.rowsSum) / float64(b.batches)
	}
	st.BatchHist = make(map[int]int64, len(b.hist))
	for k, v := range b.hist {
		st.BatchHist[k] = v
	}
	window := append([]time.Duration(nil), b.lat[:b.latCount]...)
	b.smu.Unlock()
	if len(window) > 0 {
		sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
		pct := func(p float64) float64 {
			i := int(p * float64(len(window)-1))
			return float64(window[i].Nanoseconds()) / 1e3
		}
		st.P50Micros = pct(0.50)
		st.P95Micros = pct(0.95)
		st.P99Micros = pct(0.99)
	}
	return st
}

// Stop drains the queue gracefully: no new requests are accepted, every
// queued request still runs, and Stop returns once all in-flight batches
// finish or ctx ends (whichever comes first; draining continues in the
// background if ctx ends early).
func (b *Batcher) Stop(ctx context.Context) error {
	b.mu.Lock()
	if !b.stopped {
		b.stopped = true
		close(b.stopCh)
	}
	b.mu.Unlock()
	select {
	case <-b.drained:
	case <-ctx.Done():
		return ctx.Err()
	}
	done := make(chan struct{})
	go func() {
		b.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
