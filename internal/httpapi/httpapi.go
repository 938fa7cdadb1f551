// Package httpapi exposes a registry of trained (fused) multi-task models
// over HTTP, realizing the paper's model-serving scenario (Discussion,
// Section 7) at fleet scale: one process serves many fused models, each
// behind its registry group's dynamic batcher and admission queue.
//
// Endpoints (wire types are exported from repro/api):
//
//	POST /v2/models/{model}/infer  input body       -> per-task outputs
//	GET  /v2/models                                 -> fleet listing
//	GET  /v2/models/{model}                         -> model metadata
//	GET  /v2/models/{model}/stats                   -> counters + swaps
//
//	POST /v1/infer    GET /v1/model    GET /v1/stats
//
// An infer body is either binary — Content-Type api.BinaryContentType,
// the flat row-major input as little-endian float32 — or JSON,
// {"input": [...]}, under any other Content-Type or none. Both are read
// whole before they are decoded, so any body over MaxInferBytes gets 413,
// a JSON one whose value ends before the cap included. JSON bodies go
// through a one-pass decoder without reflection that accepts and rejects
// what encoding/json would decode into an api.InferRequest and yields the
// same float32 bits (decodeInferJSON; FuzzInferJSON holds it to
// encoding/json). Both encodings pass one validation: a whole, non-zero
// number of samples, every value finite, and for token-id models every
// value an id in [0, vocab). Replies are JSON.
//
// The /v1/* routes are permanent aliases for the registry's default
// model, so clients written against the single-model surface keep
// working unchanged; /v1/stats additionally carries the fleet-level
// registry section.
//
// Concurrent requests to one model are coalesced by its batcher (up to
// MaxBatch samples per fused pass); a full queue sheds load with 429, an
// SLO-admission shed or missed deadline fails with 503 — all verdicts
// per model, so a bursty tenant cannot starve the rest. Shutdown drains
// every model's queue before returning.
package httpapi

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/api"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/serve/batcher"
	"repro/internal/serve/registry"
	"repro/internal/tensor"
)

// DefaultModelName is the registry name a server with one unnamed model
// serves it under.
const DefaultModelName = "default"

// MaxInferBytes caps an infer request body in either encoding: 4 Mi
// float32 values as binary, about 5 samples of 3x224x224 as JSON.
const MaxInferBytes = 16 << 20

// Server serves a model registry. It is safe for concurrent use.
type Server struct {
	reg *registry.Registry
	// deadline is the per-request time budget applied to every model.
	deadline time.Duration

	mux  *http.ServeMux
	once sync.Once
}

// NewRegistry builds a server over an existing registry (models already
// loaded and configured there). deadline, when positive, bounds every
// request's total time budget, queueing included.
func NewRegistry(reg *registry.Registry, deadline time.Duration) *Server {
	return &Server{reg: reg, deadline: deadline}
}

// Registry exposes the served registry (for swap endpoints and tests).
func (s *Server) Registry() *registry.Registry { return s.reg }

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler {
	s.once.Do(func() {
		s.mux = http.NewServeMux()
		// v2: model-scoped surface.
		s.mux.HandleFunc("POST /v2/models/{model}/infer", s.withModel(s.handleInfer))
		s.mux.HandleFunc("GET /v2/models", s.handleModels)
		s.mux.HandleFunc("GET /v2/models/{model}", s.withModel(s.handleModelInfo))
		s.mux.HandleFunc("GET /v2/models/{model}/stats", s.withModel(s.handleModelStats))
		// v1: permanent aliases for the default model. The infer route
		// keeps its original manual method check so the 405 body is
		// byte-compatible with the pre-registry server.
		s.mux.HandleFunc("/v1/infer", func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				http.Error(w, "POST required", http.StatusMethodNotAllowed)
				return
			}
			s.onDefault(s.handleInfer, w, r)
		})
		s.mux.HandleFunc("GET /v1/model", func(w http.ResponseWriter, r *http.Request) {
			s.onDefault(s.handleModelInfo, w, r)
		})
		s.mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
			s.onDefault(s.handleGlobalStats, w, r)
		})
	})
	return s.mux
}

type modelHandler func(w http.ResponseWriter, r *http.Request, m *registry.Model)

// withModel resolves the {model} path segment to a registry handle.
func (s *Server) withModel(h modelHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		m, err := s.reg.Get(r.PathValue("model"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		h(w, r, m)
	}
}

// onDefault routes a v1 alias to the registry's default model.
func (s *Server) onDefault(h modelHandler, w http.ResponseWriter, r *http.Request) {
	m, err := s.reg.Get("")
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	h(w, r, m)
}

// Shutdown drains every model's batch queue gracefully: queued requests
// still run, new ones are refused, and Shutdown returns when all
// in-flight batches finish or ctx ends.
func (s *Server) Shutdown(ctx context.Context) error {
	return s.reg.Close(ctx)
}

// Pending reports how many admitted requests are still unanswered across
// the fleet. After a Shutdown whose context expired, this is the number
// of in-flight requests the drain abandoned.
func (s *Server) Pending() int { return s.reg.Pending() }

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request, m *registry.Model) {
	t0 := time.Now()
	snap, err := m.Snapshot()
	if err != nil {
		http.Error(w, "model is shutting down", http.StatusServiceUnavailable)
		return
	}
	per := snap.SampleSize
	input, err := readInput(w, r)
	if err == nil {
		err = checkInput(input, per, snap.Vocab)
	}
	if err != nil {
		m.RecordFailure()
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("request body over %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	batch := len(input) / per
	x := tensor.FromSlice(input, append([]int{batch}, snap.InputShape...)...)

	// Honor the client's context so an abandoned request stops occupying
	// a batch slot, and bound the total time budget when configured.
	ctx := r.Context()
	if s.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.deadline)
		defer cancel()
	}
	outs, err := m.Submit(ctx, x)
	if err != nil {
		switch {
		case errors.Is(err, batcher.ErrQueueFull):
			http.Error(w, "queue full, retry later", http.StatusTooManyRequests)
		case errors.Is(err, registry.ErrOverBudget):
			http.Error(w, "over SLO budget, retry later", http.StatusServiceUnavailable)
		case errors.Is(err, context.DeadlineExceeded),
			errors.Is(err, batcher.ErrStopped),
			errors.Is(err, registry.ErrClosed):
			http.Error(w, "request deadline exceeded", http.StatusServiceUnavailable)
		case errors.Is(err, context.Canceled):
			// Client went away; nothing useful to write.
		default:
			m.RecordFailure()
			http.Error(w, err.Error(), http.StatusBadRequest)
		}
		return
	}

	resp := api.InferResponse{
		Batch:   batch,
		Outputs: make(map[string][][]float32, len(outs)),
		Micros:  time.Since(t0).Microseconds(),
	}
	for id, o := range outs {
		k := o.Size() / batch
		rows := make([][]float32, batch)
		for b := 0; b < batch; b++ {
			rows[b] = append([]float32(nil), o.Data()[b*k:(b+1)*k]...)
		}
		resp.Outputs[taskName(snap.Graph, id)] = rows
	}
	writeJSON(w, resp)
}

// readInput reads a whole infer body, capped at MaxInferBytes, and
// decodes it: binary under api.BinaryContentType, JSON otherwise. An
// over-cap body fails with an *http.MaxBytesError. The body is read as it
// arrives, so a declared length costs nothing until its bytes come. The
// input is never leased from an arena: a request whose client went away
// can still sit in the batch queue.
func readInput(w http.ResponseWriter, r *http.Request) ([]float32, error) {
	if r.ContentLength > MaxInferBytes {
		return nil, &http.MaxBytesError{Limit: MaxInferBytes}
	}
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxInferBytes))
	if err != nil {
		if errors.As(err, new(*http.MaxBytesError)) {
			return nil, err
		}
		return nil, fmt.Errorf("reading body: %w", err)
	}
	if mediaType(r) == api.BinaryContentType {
		return decodeBinary(raw)
	}
	in, err := decodeInferJSON(raw)
	if err != nil {
		return nil, fmt.Errorf("bad JSON: %w", err)
	}
	return in, nil
}

// mediaType is the request's Content-Type without parameters, lower-cased.
func mediaType(r *http.Request) string {
	t, _, _ := strings.Cut(r.Header.Get("Content-Type"), ";")
	return strings.ToLower(strings.TrimSpace(t))
}

// decodeBinary decodes a little-endian float32 body.
func decodeBinary(raw []byte) ([]float32, error) {
	if len(raw)%4 != 0 {
		return nil, fmt.Errorf("binary body of %d bytes is not a whole number of float32 values", len(raw))
	}
	in := make([]float32, len(raw)/4)
	for i := range in {
		in[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	return in, nil
}

// checkInput validates a decoded input in one pass: a whole, non-zero
// number of samples, every value finite, and for token-id models every
// value an id in [0, vocab) — the embedding lookup must never see an
// out-of-vocabulary or fractional id, and no NaN may share a batch or the
// stem memo's key space.
func checkInput(in []float32, per, vocab int) error {
	if per == 0 || len(in) == 0 || len(in)%per != 0 {
		return fmt.Errorf("input length %d is not a multiple of the sample size %d", len(in), per)
	}
	for i, v := range in {
		if v-v != 0 { // NaN or ±Inf
			return fmt.Errorf("input[%d] = %g is not finite", i, v)
		}
		if vocab > 0 && (v != float32(int(v)) || v < 0 || int(v) >= vocab) {
			return fmt.Errorf("input[%d] = %g is not a token id in [0, %d)", i, v, vocab)
		}
	}
	return nil
}

func taskName(g *graph.Graph, id int) string {
	if name := g.TaskNames[id]; name != "" {
		return name
	}
	return fmt.Sprintf("task-%d", id)
}

func (s *Server) handleModelInfo(w http.ResponseWriter, r *http.Request, m *registry.Model) {
	snap, err := m.Snapshot()
	if err != nil {
		http.Error(w, "model is shutting down", http.StatusServiceUnavailable)
		return
	}
	info := api.ModelInfo{
		Name:       snap.Name,
		Version:    snap.Version,
		Checksum:   snap.Checksum,
		InputShape: append([]int(nil), snap.InputShape...),
		Tasks:      map[string]int{},
		Blocks:     snap.Graph.NodeCount(),
		FLOPs:      snap.Graph.FLOPs(),
		Vocab:      snap.Vocab,
	}
	for _, p := range snap.Graph.Params() {
		info.Params += int64(p.Value.Size())
	}
	for _, id := range snap.Graph.Tasks() {
		head := snap.Graph.Heads[id]
		out := graph.OutShapeOf(head)
		classes := 1
		for _, d := range out {
			classes *= d
		}
		info.Tasks[taskName(snap.Graph, id)] = classes
	}
	if snap.Shared != nil {
		// The group's counters live in the model's stats, not its snapshot.
		info.SharedStem = m.Stats().Shared
	}
	writeJSON(w, info)
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	list := api.ModelList{Default: s.reg.DefaultName()}
	for _, m := range s.reg.Models() {
		snap, err := m.Snapshot()
		if err != nil {
			continue // closing; drop from the listing
		}
		st := m.Stats()
		row := api.ModelSummary{
			Name:       snap.Name,
			Version:    snap.Version,
			Checksum:   snap.Checksum,
			Default:    snap.Name == list.Default,
			Source:     snap.Source,
			InputShape: append([]int(nil), snap.InputShape...),
			PlanOps:    snap.PlanOps,
			QueueDepth: st.Batcher.QueueDepth,
			Requests:   st.Batcher.Requests,
		}
		for _, id := range snap.Graph.Tasks() {
			row.Tasks = append(row.Tasks, taskName(snap.Graph, id))
		}
		list.Models = append(list.Models, row)
	}
	writeJSON(w, list)
}

// statsFor converts one model's registry counters into the wire Stats.
func statsFor(m *registry.Model) api.Stats {
	st := m.Stats()
	out := api.Stats{
		Requests:   st.Batcher.Requests,
		Failures:   st.Failures,
		Rejected:   st.Rejected,
		SLOShed:    st.Shed,
		Expired:    st.Batcher.Expired,
		Canceled:   st.Batcher.Canceled,
		MeanMicros: st.Batcher.MeanMicros,
		P50Micros:  st.Batcher.P50Micros,
		P95Micros:  st.Batcher.P95Micros,
		P99Micros:  st.Batcher.P99Micros,
		QueueDepth: st.Batcher.QueueDepth,
		Batches:    st.Batcher.Batches,
		MeanBatch:  st.Batcher.MeanBatch,
		BatchHist:  st.Batcher.BatchHist,
		Plan:       planStats(m.OpStats()),
	}
	return out
}

func (s *Server) handleModelStats(w http.ResponseWriter, r *http.Request, m *registry.Model) {
	st := m.Stats()
	resp := api.ModelStats{
		Name:       st.Name,
		Version:    st.Version,
		Checksum:   st.Checksum,
		Pending:    st.Pending,
		Stats:      statsFor(m),
		Swaps:      st.Swaps,
		SharedStem: st.Shared,
	}
	writeJSON(w, resp)
}

// handleGlobalStats is GET /v1/stats: the default model's counters plus
// the fleet-level registry section.
func (s *Server) handleGlobalStats(w http.ResponseWriter, r *http.Request, m *registry.Model) {
	out := statsFor(m)
	rst := s.reg.Stats()
	out.Registry = &api.RegistryStats{
		ModelsLoaded:    rst.ModelsLoaded,
		SwapsCompleted:  rst.SwapsCompleted,
		SwapDrainMicros: rst.SwapDrainMicros,
		QueueDepth:      rst.QueueDepth,
	}
	writeJSON(w, out)
}

// planStats converts a model's compiled plan and its pool-aggregated
// per-op counters (registry.Model.OpStats) into the wire PlanStats.
func planStats(p *plan.Plan, ops []plan.OpStat) *api.PlanStats {
	if p == nil {
		return nil
	}
	r := p.Report()
	ps := &api.PlanStats{
		Waves: len(r.Waves), Slabs: r.Slabs,
		PeakBytes: r.PeakBytes, NaiveBytes: r.NaiveBytes,
		Ops: make([]api.PlanOpStat, len(ops)),
	}
	for i, o := range ops {
		ps.Ops[i] = api.PlanOpStat{Name: o.Name, Kind: o.Kind, Wave: o.Wave, Calls: o.Calls, Micros: o.Nanos / 1e3}
	}
	return ps
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
