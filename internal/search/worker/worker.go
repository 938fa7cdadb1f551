// Package worker implements the worker side of the distributed fusion
// search: a stateless HTTP server that fine-tunes and measures candidate
// graphs on request. All search state (the candidate queue, the memo, the
// filters, elites) lives on the coordinator; a worker only needs the same
// world — dataset, teacher outputs, accuracy targets — as the coordinator,
// verified by the world checksum in /info.
package worker

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/core"
	"repro/internal/fingerprint"
	"repro/internal/parser"
	"repro/internal/search/coord"
)

// MaxEvalBytes bounds an /eval request body; a larger one gets 413 and is
// never decoded. The largest paper-width candidate, B2's unfused
// 3xVGG-16 (44.2M parameters), encodes to 225 MiB, so the bound holds it
// twice over.
const MaxEvalBytes = 512 << 20

// Server serves POST /eval and GET /info over a core.LocalEvaluator. The
// evaluator owns the slot pool, so concurrent HTTP requests share one
// global concurrency bound.
type Server struct {
	eval  *core.LocalEvaluator
	info  coord.Info
	mu    sync.Mutex
	evals int
	perFp map[uint64]int
}

// NewServer builds a worker server. worldSum is the parser checksum of the
// worker's original multi-DNN graph and tasks its head count; both are
// advertised on /info so the coordinator can refuse a mismatched worker.
func NewServer(eval *core.LocalEvaluator, worldSum string, tasks int) *Server {
	return &Server{
		eval:  eval,
		info:  coord.Info{World: worldSum, Tasks: tasks, Slots: eval.Slots()},
		perFp: make(map[uint64]int),
	}
}

// Handler returns the worker's HTTP handler.
func (s *Server) Handler() http.Handler { return s.handler(MaxEvalBytes) }

// handler is Handler with /eval bodies bounded at maxEval bytes.
func (s *Server) handler(maxEval int64) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/info", s.handleInfo)
	mux.HandleFunc("/eval", func(w http.ResponseWriter, r *http.Request) { s.handleEval(w, r, maxEval) })
	return mux
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.info)
}

func (s *Server) handleEval(w http.ResponseWriter, r *http.Request, maxEval int64) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	tooBig := fmt.Sprintf("request body over %d bytes", maxEval)
	if r.ContentLength > maxEval {
		http.Error(w, tooBig, http.StatusRequestEntityTooLarge)
		return
	}
	var req coord.EvalRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxEval)).Decode(&req); err != nil {
		if errors.As(err, new(*http.MaxBytesError)) {
			http.Error(w, tooBig, http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, fmt.Sprintf("decode request: %v", err), http.StatusBadRequest)
		return
	}
	reply := s.evalOne(&req)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(reply)
}

func (s *Server) evalOne(req *coord.EvalRequest) *coord.EvalReply {
	g, err := parser.LoadBase64(req.Graph)
	if err != nil {
		return &coord.EvalReply{Error: err.Error()}
	}
	s.record(fingerprint.Hash(g))
	outs := s.eval.EvaluateBatch([]core.EvalJob{{Cand: g, Seed: req.Seed, Warm: req.Warm}})
	out := outs[0]
	if out.Err != nil {
		return &coord.EvalReply{Error: out.Err.Error()}
	}
	reply := &coord.EvalReply{Met: out.Met, Report: out.Report}
	if out.Met && out.Trained != nil {
		enc, err := parser.SaveBase64(out.Trained)
		if err != nil {
			return &coord.EvalReply{Error: fmt.Sprintf("encode trained graph: %v", err)}
		}
		reply.Trained = enc
	}
	return reply
}

func (s *Server) record(fp uint64) {
	s.mu.Lock()
	s.evals++
	s.perFp[fp]++
	s.mu.Unlock()
}

// Evals returns the total number of evaluations this worker has run.
func (s *Server) Evals() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evals
}

// EvalsByFingerprint returns a copy of the per-candidate-structure
// evaluation counts. In a correctly sharded search every fingerprint
// appears at most once across all workers — the memo and in-batch aliasing
// guarantee zero duplicate measurements (asserted by the distributed search
// test).
func (s *Server) EvalsByFingerprint() map[uint64]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := make(map[uint64]int, len(s.perFp))
	for fp, n := range s.perFp {
		m[fp] = n
	}
	return m
}
