package registry

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/api"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/parser"
	"repro/internal/plan"
	"repro/internal/serve/batcher"
	"repro/internal/tensor"
)

// Snapshot is a read-only view of a model's current deployment, stable
// for the duration of one request. Taking one costs an atomic load: no
// lock, no allocation.
type Snapshot struct {
	Name       string
	Version    int
	Checksum   string
	Source     string
	InputShape graph.Shape
	SampleSize int
	Vocab      int
	Graph      *graph.Graph
	// PlanOps is how many compiled ops the deployment runs.
	PlanOps int
	// Shared describes the model's shared-stem group — members, depth and
	// stem fingerprint, fixed when the group was published — nil in a
	// group of one. It is shared between members and must not be
	// modified; its counters are zero (ModelStats carries them).
	Shared *SharedStemInfo
}

// ModelStats is one model's serving snapshot: identity, batcher counters,
// admission verdicts, and the swap history.
type ModelStats struct {
	Name     string
	Version  int
	Checksum string
	Source   string
	Batcher  batcher.Stats
	// Rejected counts queue-full sheds (429); Shed counts SLO-admission
	// sheds (503); Failures counts malformed requests the API layer
	// recorded against this model.
	Rejected, Shed, Failures int64
	Swaps                    []api.SwapRecord
	// Pending is the number of admitted-but-unanswered requests.
	Pending int
	// Shared describes the model's shared-stem group, nil in a group of
	// one. Its counters (memo, mixed batches, histogram) are group-wide.
	Shared *SharedStemInfo
}

// Model is the serving handle for one registered name. The deployment
// behind it changes across hot swaps and regroupings; the handle, its
// counters, and its history persist.
type Model struct {
	name string
	reg  *Registry
	opts ModelOptions
	path string // source checkpoint for Reload; "" if registered from memory
	seq  int    // registration index: orders group members

	// cur is stored only under the registry's topoMu (publish, Close) and
	// loaded without a lock.
	cur atomic.Pointer[deployment]

	rejected atomic.Int64 // queue-full sheds
	shed     atomic.Int64 // SLO-admission sheds
	failures atomic.Int64 // malformed requests (recorded by the API layer)
	ewmaNS   atomic.Int64 // recent successful-request latency EWMA

	hmu     sync.Mutex
	history []api.SwapRecord
}

// Name returns the registered model name.
func (m *Model) Name() string { return m.name }

// Snapshot captures the current deployment. It errs only when the
// registry has been closed.
func (m *Model) Snapshot() (Snapshot, error) {
	d := m.cur.Load()
	if d == nil {
		return Snapshot{}, ErrClosed
	}
	rep := &d.group.report
	return Snapshot{
		Name: m.name, Version: d.version, Checksum: d.checksum, Source: d.source,
		InputShape: d.shape, SampleSize: d.per, Vocab: d.vocab, Graph: d.g,
		PlanOps: len(rep.Ops), Shared: d.group.view,
	}, nil
}

// ewmaAlphaInv is the EWMA smoothing divisor: each observation moves the
// estimate 1/8 of the way to the new value.
const ewmaAlphaInv = 8

// Submit admits one batched input [rows, sample...] through the model's
// SLO budget and its group's bounded queue, and blocks for the scattered
// outputs. A request that races a hot swap retries transparently on the
// new deployment, so callers never observe ErrStopped from a swap — the
// zero-dropped-requests guarantee.
func (m *Model) Submit(ctx context.Context, x *tensor.Tensor) (map[int]*tensor.Tensor, error) {
	for {
		d := m.cur.Load()
		if d == nil {
			return nil, ErrClosed
		}
		if budget := m.opts.SLOBudget; budget > 0 {
			if wait := m.predictedWait(d); wait > budget {
				m.shed.Add(1)
				return nil, fmt.Errorf("%w: predicted wait %v > budget %v", ErrOverBudget, wait, budget)
			}
		}
		t0 := time.Now()
		outs, err := d.group.bat.SubmitTagged(ctx, x, d.tag, d.tasks)
		switch {
		case err == nil:
			m.observe(time.Since(t0))
			return outs, nil
		case errors.Is(err, batcher.ErrStopped) && m.cur.Load() != d:
			continue // swap raced admission; the new deployment takes it
		case errors.Is(err, batcher.ErrQueueFull):
			m.rejected.Add(1)
			return nil, err
		default:
			return nil, err
		}
	}
}

// predictedWait estimates how long a new arrival would queue: the recent
// per-request latency EWMA scaled by the backlog already ahead of it, in
// units of batches. The backlog is the batcher's QueueDepth, which counts
// the requests held behind a busy engine as well as the queued ones. An
// empty queue predicts zero — the budget bounds
// queueing delay, not service time — and under backlog the estimate is
// deliberately pessimistic (the EWMA itself includes queueing), which is
// what sheds a flood early enough to hold the admitted requests' p99.
func (m *Model) predictedWait(d *deployment) time.Duration {
	ewma := m.ewmaNS.Load()
	if ewma <= 0 {
		return 0 // cold start: admit until we have a latency signal
	}
	depth := int64(d.group.bat.QueueDepth())
	return time.Duration(ewma * depth / int64(d.group.bat.MaxBatch()))
}

// observe folds one successful request latency into the admission EWMA.
// Plain load/store: concurrent updates may lose an observation, which the
// estimate tolerates.
func (m *Model) observe(lat time.Duration) {
	old := m.ewmaNS.Load()
	m.ewmaNS.Store(old + (int64(lat)-old)/ewmaAlphaInv)
}

// RecordFailure counts a malformed request (HTTP 400) against the model,
// so per-model stats include client errors the batcher never saw.
func (m *Model) RecordFailure() { m.failures.Add(1) }

// Pending reports admitted-but-unanswered requests on the current
// deployment's batcher (the whole group's, for a shared-stem member).
func (m *Model) Pending() int {
	d := m.cur.Load()
	if d == nil {
		return 0
	}
	return d.group.bat.Pending()
}

// Stats snapshots the model's serving counters and swap history.
func (m *Model) Stats() ModelStats {
	st := ModelStats{
		Name:     m.name,
		Rejected: m.rejected.Load(),
		Shed:     m.shed.Load(),
		Failures: m.failures.Load(),
	}
	if d := m.cur.Load(); d != nil {
		st.Version = d.version
		st.Checksum = d.checksum
		st.Source = d.source
		st.Batcher = d.group.bat.Stats()
		st.Pending = d.group.bat.Pending()
		st.Shared = d.group.sharedStats(st.Batcher.MixedBatches)
	}
	m.hmu.Lock()
	st.Swaps = append([]api.SwapRecord(nil), m.history...)
	m.hmu.Unlock()
	return st
}

// Fused returns the current group's engine pool, one engine per slot, all
// running one plan (for a shared-stem member, the group's), for per-op
// stats aggregation.
func (m *Model) Fused() []*engine.Fused {
	d := m.cur.Load()
	if d == nil {
		return nil
	}
	return d.group.fused
}

// OpStats returns the compiled plan the current deployment's engines run
// and its per-op counters summed across the engine pool. For a shared-stem
// member both are the group's: op names carry the plan's "stem/" and
// "m<i>/" prefixes, and the counters cover every member's traffic.
func (m *Model) OpStats() (*plan.Plan, []plan.OpStat) {
	d := m.cur.Load()
	if d == nil {
		return nil, nil
	}
	var sum []plan.OpStat
	for _, f := range d.group.fused {
		for i, st := range f.OpStats() {
			if i == len(sum) {
				sum = append(sum, st)
				continue
			}
			sum[i].Calls += st.Calls
			sum[i].Nanos += st.Nanos
		}
	}
	return d.group.plan, sum
}

// Swap hot-swaps the model to a new graph under load. The model is placed
// again: it keeps its group while the new graph still shares the group's
// stem (partners keep their versions), and otherwise departs. The new
// deployments are published atomically, then the replaced batchers drain
// through Stop — requests they already admitted complete on the old
// engines, and arrivals that race the cutover retry onto the new
// deployment inside Submit. ctx bounds the drain; on expiry the swap still
// holds (the new version serves) but the record counts the abandoned
// in-flight requests and an error is returned.
//
// checksum may be "" for an in-memory graph, in which case the identity
// is computed as parser.Sum would.
func (m *Model) Swap(ctx context.Context, g *graph.Graph, checksum string) (api.SwapRecord, error) {
	if checksum == "" {
		sum, err := parser.Sum(g)
		if err != nil {
			return api.SwapRecord{}, fmt.Errorf("registry: checksumming swap of %q: %w", m.name, err)
		}
		checksum = sum
	}
	return m.swapTo(ctx, g, checksum, "")
}

// swapTo places the model with its next version, then drains what the
// placement replaced and records the swap.
func (m *Model) swapTo(ctx context.Context, g *graph.Graph, checksum, source string) (api.SwapRecord, error) {
	r := m.reg
	r.topoMu.Lock()
	old := m.cur.Load()
	var stale []*batcher.Batcher
	err := ErrClosed
	if old != nil {
		stale, err = r.place(m, m.member(g, checksum, source, old.version+1))
	}
	r.topoMu.Unlock()
	if err != nil {
		return api.SwapRecord{}, err
	}
	t0 := time.Now()
	abandoned, stopErr := drainBatchers(ctx, stale)
	drain := time.Since(t0)
	rec := api.SwapRecord{
		FromVersion: old.version, ToVersion: old.version + 1,
		FromChecksum: old.checksum, ToChecksum: checksum,
		DrainMicros: drain.Microseconds(),
		Abandoned:   abandoned,
		UnixMicros:  time.Now().UnixMicro(),
	}
	m.hmu.Lock()
	m.history = append(m.history, rec)
	m.hmu.Unlock()
	r.swaps.Add(1)
	r.swapDrainNS.Add(int64(drain))
	if stopErr != nil {
		return rec, fmt.Errorf("registry: swap of %q: drain abandoned %d in-flight requests: %w",
			m.name, rec.Abandoned, stopErr)
	}
	return rec, nil
}

// Reload re-reads the model's source checkpoint and hot-swaps to it when
// the content checksum changed. It reports whether a swap happened;
// (false, zero, nil) means the file still has the serving version's
// checksum. Models registered from memory cannot Reload.
func (m *Model) Reload(ctx context.Context) (bool, api.SwapRecord, error) {
	if m.path == "" {
		return false, api.SwapRecord{}, fmt.Errorf("registry: model %q has no source checkpoint", m.name)
	}
	d := m.cur.Load()
	if d == nil {
		return false, api.SwapRecord{}, ErrClosed
	}
	g, sum, err := parser.LoadFileSum(m.path)
	if err != nil {
		return false, api.SwapRecord{}, fmt.Errorf("registry: reloading %q: %w", m.name, err)
	}
	if sum == d.checksum {
		return false, api.SwapRecord{}, nil
	}
	if m.opts.Prepare != nil {
		if err := m.opts.Prepare(g); err != nil {
			return false, api.SwapRecord{}, fmt.Errorf("registry: preparing %q: %w", m.name, err)
		}
	}
	rec, err := m.swapTo(ctx, g, sum, m.path)
	return true, rec, err
}
