// Package registry is the fleet-serving core: one process serving many
// fused models at once, each independently versioned, admitted, and
// hot-swappable under load.
//
// The unit of deployment is the group: a set of models served by one
// dynamic batcher (internal/serve/batcher) over one engine pool. Every
// model belongs to exactly one group. A model that shares with nobody is a
// group of one, with its own bounded admission queue and its own engines,
// so backpressure is a per-model verdict — a bursty tenant fills its own
// queue and eats its own 429/503s instead of starving the fleet behind one
// global knob. Models that opt into stem sharing (ModelOptions.ShareStem)
// and whose weight-inclusive prefix fingerprints agree form a group of two
// or more, served by one multi-head plan whose batcher coalesces their
// requests into one stem batch. The compute substrate underneath is shared
// either way: every engine draws from the process-wide tensor worker pool
// (tensor.ParallelFor) and buffer arena, so idle models cost nothing.
//
// Deploys are checksum-verified: models loaded from disk carry the
// checkpoint's CRC-32 content identity (parser.LoadFileSum), models
// registered from memory get the identity their bytes would have on disk
// (parser.Sum). Register, Load, Swap and Reload all place the model the
// same way: it keeps its group while its graph still shares the group's
// stem, and otherwise departs into a group of one that, like the partners
// it left, is offered to every other group. New deployments are published
// atomically under the registry's topology lock; the replaced batchers
// drain after the lock is released, through their Stop/Pending machinery:
// requests already admitted complete on the old engines, requests that
// race the swap retry transparently on the new deployment, and the swap
// record logs how long the drain took and whether anything was abandoned
// (zero on a clean swap). The request path never takes the topology lock.
package registry

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
	"repro/internal/parser"
	"repro/internal/serve/batcher"
)

var (
	// ErrUnknownModel reports a lookup for a name never registered.
	ErrUnknownModel = errors.New("registry: unknown model")
	// ErrClosed is returned by operations on a closed registry (or a model
	// handle that outlived it).
	ErrClosed = errors.New("registry: closed")
	// ErrOverBudget is returned by Submit when the model's SLO-aware
	// admission predicts the request would miss its latency budget; the
	// HTTP layer maps it to 503. It is backpressure, not failure.
	ErrOverBudget = errors.New("registry: admission budget exceeded")
	// ErrDuplicateModel reports a Register/Load under a taken name.
	ErrDuplicateModel = errors.New("registry: model already registered")
)

// ModelOptions configures one model's serving policy. The zero value is
// usable: pool of 1, batcher defaults, no SLO budget.
type ModelOptions struct {
	// Pool is the number of compiled engine instances — the model's
	// maximum concurrently in-flight batches (default 1).
	Pool int
	// MaxBatch is the sample budget per fused forward pass (default 8).
	MaxBatch int
	// MaxWait is an upper bound on how long a batch waits for more
	// samples, a busy engine's time included (default 2ms); an idle
	// engine leaves as soon as the callers it has seen are in.
	MaxWait time.Duration
	// QueueCap bounds the model's admission queue; a full queue fails
	// Submit with batcher.ErrQueueFull (HTTP 429). Default 8*MaxBatch.
	QueueCap int
	// SLOBudget, when positive, arms SLO-aware admission: an arriving
	// request whose predicted queue wait (recent-latency EWMA scaled by
	// the current backlog) exceeds the budget is shed immediately with
	// ErrOverBudget (HTTP 503) instead of queueing to miss its SLO. The
	// estimate is deliberately pessimistic under backlog — shedding early
	// is what holds the admitted requests' p99 under the budget.
	SLOBudget time.Duration
	// Wrap, when set, wraps each of a group's compiled engines before its
	// batcher runs them — a test seam, e.g. to slow every version's
	// forwards down. A group takes its first member's Wrap; per-op counters
	// still come from the unwrapped engines. It runs under the registry's
	// topology lock, so it must not call back into the registry.
	Wrap func(engine.Engine) engine.Engine
	// Prepare runs on every graph loaded from disk (Load and Reload)
	// before engines compile — the place to strip or validate int8
	// annotations. Not applied to graphs handed in directly.
	Prepare func(*graph.Graph) error
	// ShareStem, when positive, opts the model into shared-stem serving:
	// if another share-enabled model's prefix fingerprint chain matches
	// this one's for at least ShareStem stem nodes (weights included —
	// fingerprint.PrefixHashes), the two route through one shared
	// multi-head plan whose batcher coalesces cross-model requests into a
	// single stem batch. 0 keeps the model in a group of one.
	ShareStem int
	// StemMemoCap bounds the shared group's stem-activation memo (LRU
	// entries); the group takes the largest cap among its members. 0
	// disables memoisation for this model's vote.
	StemMemoCap int
}

func (o ModelOptions) withDefaults() ModelOptions {
	if o.Pool <= 0 {
		o.Pool = 1
	}
	return o
}

// deployment is one immutable served version of a model: what it serves
// and the group that serves it. Publishing replaces the whole deployment
// atomically.
type deployment struct {
	member
	group *group
	// tag tells the member's requests apart inside the group's coalesced
	// batches; tasks renames the group plan's task ids back to the
	// member's own (the identity in a group of one).
	tag   int
	tasks map[int]int

	shape graph.Shape
	per   int // elements per sample
	vocab int // token vocabulary for 1-D inputs, 0 for image models
}

// Stats is the registry-level snapshot surfaced through GET /v1/stats:
// fleet counters plus each model's queue depth, so one read shows where
// backlog lives.
type Stats struct {
	ModelsLoaded    int
	SwapsCompleted  int64
	SwapDrainMicros int64
	QueueDepth      map[string]int
}

// Registry holds the fleet. All methods are safe for concurrent use.
type Registry struct {
	// topoMu serializes every topology change — register, swap, close —
	// and with it every publish. Lock order is topoMu -> mu. The request
	// path (Get, Snapshot, Submit) never takes it, and no batcher drains
	// while it is held.
	topoMu sync.Mutex

	mu          sync.RWMutex
	models      map[string]*Model
	order       []string // registration order, for stable listings
	defaultName string
	closed      bool
	abandoned   int // requests Close's drain gave up on

	swaps       atomic.Int64
	swapDrainNS atomic.Int64
}

// New builds an empty registry.
func New() *Registry {
	return &Registry{models: map[string]*Model{}}
}

// Register adds an in-memory graph under name and starts serving it. The
// first registered model becomes the default (the one the v1 API
// aliases). The model's checksum is the identity its checkpoint bytes
// would have on disk.
func (r *Registry) Register(name string, g *graph.Graph, opts ModelOptions) (*Model, error) {
	sum, err := parser.Sum(g)
	if err != nil {
		return nil, fmt.Errorf("registry: checksumming %q: %w", name, err)
	}
	return r.register(name, g, sum, "", opts)
}

// Load reads a checksum-verified checkpoint from path and serves it under
// name. The checkpoint's CRC-32 trailer is validated by the parser and
// recorded as the deployment's identity; Reload later uses it to detect
// changed files.
func (r *Registry) Load(name, path string, opts ModelOptions) (*Model, error) {
	g, sum, err := parser.LoadFileSum(path)
	if err != nil {
		return nil, fmt.Errorf("registry: loading %q: %w", name, err)
	}
	if opts.Prepare != nil {
		if err := opts.Prepare(g); err != nil {
			return nil, fmt.Errorf("registry: preparing %q: %w", name, err)
		}
	}
	return r.register(name, g, sum, path, opts)
}

func validName(name string) error {
	if name == "" {
		return errors.New("registry: empty model name")
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return fmt.Errorf("registry: model name %q: only [A-Za-z0-9._-] allowed", name)
		}
	}
	return nil
}

// register places a new model at version 1 and lists it. A group it joins
// drains its replaced batcher before register returns.
func (r *Registry) register(name string, g *graph.Graph, sum, source string, opts ModelOptions) (*Model, error) {
	if err := validName(name); err != nil {
		return nil, err
	}
	m := &Model{name: name, reg: r, opts: opts.withDefaults(), path: source}
	r.topoMu.Lock()
	stale, err := r.add(m, m.member(g, sum, source, 1))
	r.topoMu.Unlock()
	if err != nil {
		return nil, err
	}
	// The model already serves; a drain that outlives the bound carries on
	// in the background, so there is nothing to report.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, _ = drainBatchers(ctx, stale)
	return m, nil
}

// add is register's part under topoMu.
func (r *Registry) add(m *Model, next member) ([]*batcher.Batcher, error) {
	r.mu.RLock()
	closed, taken := r.closed, r.models[m.name] != nil
	m.seq = len(r.order)
	r.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	if taken {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateModel, m.name)
	}
	stale, err := r.place(m, next)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.models[m.name] = m
	r.order = append(r.order, m.name)
	if r.defaultName == "" {
		r.defaultName = m.name
	}
	return stale, nil
}

// Get returns the model registered under name; the empty name resolves to
// the default model.
func (r *Registry) Get(name string) (*Model, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if name == "" {
		name = r.defaultName
	}
	m, ok := r.models[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	return m, nil
}

// DefaultName reports which model the v1 surface aliases ("" while the
// registry is empty).
func (r *Registry) DefaultName() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.defaultName
}

// SetDefault changes which model the v1 surface aliases.
func (r *Registry) SetDefault(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.models[name]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	r.defaultName = name
	return nil
}

// Models returns the registered models in registration order.
func (r *Registry) Models() []*Model {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*Model, 0, len(r.order))
	for _, name := range r.order {
		out = append(out, r.models[name])
	}
	return out
}

// Names returns the registered model names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := append([]string(nil), r.order...)
	sort.Strings(out)
	return out
}

// Stats snapshots the fleet counters and every model's queue depth.
func (r *Registry) Stats() Stats {
	st := Stats{
		SwapsCompleted:  r.swaps.Load(),
		SwapDrainMicros: r.swapDrainNS.Load() / 1e3,
		QueueDepth:      map[string]int{},
	}
	for _, m := range r.Models() {
		st.ModelsLoaded++
		if d := m.cur.Load(); d != nil {
			st.QueueDepth[m.name] = d.group.bat.QueueDepth()
		}
	}
	return st
}

// Close drains every group's batcher and refuses further registration.
// Queued requests still complete (or are abandoned when ctx ends first,
// like batcher.Stop).
func (r *Registry) Close(ctx context.Context) error {
	r.topoMu.Lock()
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	var bats []*batcher.Batcher
	for _, m := range r.Models() {
		if d := m.cur.Swap(nil); d != nil {
			bats = append(bats, d.group.bat)
		}
	}
	r.topoMu.Unlock()
	abandoned, err := drainBatchers(ctx, bats)
	r.mu.Lock()
	r.abandoned = abandoned
	r.mu.Unlock()
	return err
}

// Pending sums the admitted-but-unanswered requests across the fleet, a
// group's batcher counted once. Once the registry is closed it reports
// how many requests Close's drain abandoned (0 after a clean close).
func (r *Registry) Pending() int {
	r.mu.RLock()
	closed, abandoned := r.closed, r.abandoned
	r.mu.RUnlock()
	if closed {
		return abandoned
	}
	total := 0
	seen := map[*batcher.Batcher]bool{}
	for _, m := range r.Models() {
		d := m.cur.Load()
		if d == nil || seen[d.group.bat] {
			continue
		}
		seen[d.group.bat] = true
		total += d.group.bat.Pending()
	}
	return total
}
