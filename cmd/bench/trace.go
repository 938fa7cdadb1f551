package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer started; Parent is -1 for a root; spans of one request
// (or one search) share Req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer collects spans in memory. The benchmark records them around its
// own calls into each layer; nothing inside the program is instrumented. A
// nil tracer (the untraced run) records nothing.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span

	// cur is the Fuse call in flight (and its Req), the parent of the
	// evaluator spans evalTransport records.
	cur    atomic.Int64
	curReq atomic.Int64
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.cur.Store(-1)
	t.curReq.Store(-1)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id, -1 on a nil tracer.
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	return t.add(name, parent, req, t.now(), 0)
}

// add records a span with explicit times (End 0 means still open).
func (t *tracer) add(name string, parent int, req int64, start, end int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// reparent moves every span named child that starts inside one of the given
// parent spans under it. OnRound reports a search round only when it ends,
// after the evaluator spans it contains were already recorded.
func (t *tracer) reparent(child string, parents []int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name != child {
			continue
		}
		for _, p := range parents {
			if ps := t.spans[p]; s.Start >= ps.Start && s.Start < ps.End {
				s.Parent = p
				break
			}
		}
	}
}

// spanHeader carries "parent:req" from a traced caller to the handler span.
const spanHeader = "X-Bench-Span"

// wrap records one span per request around h, the boundary of the layer
// behind it. The parent comes from spanHeader; a request without one is a
// root.
func (t *tracer) wrap(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, req := -1, int64(0)
		if hdr := r.Header.Get(spanHeader); hdr != "" {
			fmt.Sscanf(hdr, "%d:%d", &parent, &req)
		}
		id := t.begin(name, parent, req)
		h.ServeHTTP(w, r)
		t.end(id)
	})
}

// spanTransport stamps spanHeader on requests whose context carries a span,
// so a traced api.Client call reaches the handler span as its child.
type spanTransport struct{ base http.RoundTripper }

type spanKey struct{}

func (s spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if hdr, ok := r.Context().Value(spanKey{}).(string); ok {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, hdr)
	}
	return s.base.RoundTrip(r)
}

// evalTransport records an estimator.evaluate span around every /eval call
// the search coordinator makes, on the coordinator's side: from the request
// going out until the reply has been read and its body closed. The wire
// (HTTP hop, JSON and base64 of the checkpoints on the worker's side and the
// reply's decode) therefore counts as evaluator time, not as the search's
// own. The coordinator's client uses http.DefaultTransport, which a traced
// search replaces with this for as long as its fixture lives.
type evalTransport struct {
	base http.RoundTripper
	tr   *tracer
}

func (e evalTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !strings.HasSuffix(r.URL.Path, "/eval") {
		return e.base.RoundTrip(r)
	}
	id := e.tr.begin("estimator.evaluate", int(e.tr.cur.Load()), e.tr.curReq.Load())
	resp, err := e.base.RoundTrip(r)
	if err != nil {
		e.tr.end(id)
		return nil, err
	}
	resp.Body = spanBody{resp.Body, e.tr, id}
	return resp, nil
}

// spanBody ends a span when the response body it wraps is closed.
type spanBody struct {
	io.ReadCloser
	tr *tracer
	id int
}

func (b spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.tr.end(b.id)
	return err
}

// selfTimes returns, per span id, the span's duration minus the part of it
// its children cover. Children may overlap each other and may overrun the
// parent; only the union inside the parent is subtracted.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered returns the length of the union of the spans' intervals clipped
// to [lo, hi).
func covered(lo, hi int64, spans []span) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total int64
	edge := lo
	for _, c := range spans {
		start, end := max(c.Start, edge), min(c.End, hi)
		if end > start {
			total += end - start
			edge = end
		}
	}
	return total
}

// traceFile is the span file a -trace run writes when it ends.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     uint64             `json:"seed"`
	Machine  map[string]string  `json:"machine"`
	Metrics  map[string]float64 `json:"per_layer"`
	// SelfNS sums span self time by span name: where the traced run's wall
	// time went, layer by layer.
	SelfNS map[string]int64 `json:"self_ns_by_name"`
	Spans  []span           `json:"spans"`
}

func writeTrace(path string, f traceFile) error {
	f.SelfNS = map[string]int64{}
	self := selfTimes(f.Spans)
	for _, s := range f.Spans {
		f.SelfNS[s.Name] += self[s.ID]
	}
	raw, err := json.Marshal(f)
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
