// Package coord implements the coordinator side of the distributed fusion
// search: the wire protocol between the optimizer (which owns the candidate
// queue, the memo, the filters, and all search state) and stateless
// evaluation workers, plus a Pool that implements core.BatchEvaluator by
// fanning a round's jobs across workers over HTTP+JSON.
//
// Because fine-tune seeds are pure functions of the search seed and the
// candidate's structural fingerprint, and graphs round-trip losslessly
// through the parser wire format, a remote evaluation is bit-identical to a
// local one — sharding changes wall-clock, never the search trajectory.
package coord

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/distill"
)

// EvalRequest is one fine-tune/measure job posted to a worker's /eval.
type EvalRequest struct {
	// Graph is the candidate in parser wire format, base64-encoded. The
	// default (lossless float32) encoding is required: the trained weights
	// come back over the same format and must be bit-identical to a local
	// fine-tune.
	Graph string `json:"graph"`
	// Seed drives fine-tuning (memoSeed(searchSeed, fingerprint)).
	Seed uint64 `json:"seed"`
	// Warm shrinks the epoch budget (candidate inherits elite weights,
	// which travel inside Graph).
	Warm bool `json:"warm"`
}

// WireReport is distill.Report flattened for JSON (map keys become strings,
// durations become nanoseconds, the error becomes a string).
type WireReport struct {
	Met          bool               `json:"met"`
	Terminated   bool               `json:"terminated"`
	Diverged     bool               `json:"diverged"`
	EpochsRun    int                `json:"epochs_run"`
	Final        map[string]float64 `json:"final,omitempty"`
	TrainNS      int64              `json:"train_ns"`
	FinalLoss    float64            `json:"final_loss"`
	WarmStarted  bool               `json:"warm_started"`
	WarmFellBack bool               `json:"warm_fell_back"`
	Err          string             `json:"err,omitempty"`
}

// EvalReply is a worker's answer to one EvalRequest.
type EvalReply struct {
	Met    bool        `json:"met"`
	Report *WireReport `json:"report,omitempty"`
	// Trained is the fine-tuned graph (parser wire format, base64), only
	// present when Met.
	Trained string `json:"trained,omitempty"`
	// Error reports a worker-side failure (decode error, eval panic).
	Error string `json:"error,omitempty"`
}

// Info describes a worker (GET /info). The coordinator refuses workers
// whose World checksum differs from its own: a worker fine-tuning against
// different teachers or data would silently corrupt the search.
type Info struct {
	// World is the parser checksum of the worker's original multi-DNN
	// graph ("crc32:%08x").
	World string `json:"world"`
	// Tasks is the number of task heads in the worker's world.
	Tasks int `json:"tasks"`
	// Slots is the worker's evaluation concurrency.
	Slots int `json:"slots"`
}

// ToWire flattens a distill.Report.
func ToWire(r *distill.Report) *WireReport {
	if r == nil {
		return nil
	}
	w := &WireReport{
		Met: r.Met, Terminated: r.Terminated, Diverged: r.Diverged,
		EpochsRun: r.EpochsRun, TrainNS: int64(r.TrainTime),
		FinalLoss: r.FinalLoss, WarmStarted: r.WarmStarted, WarmFellBack: r.WarmFellBack,
	}
	if len(r.Final) > 0 {
		w.Final = make(map[string]float64, len(r.Final))
		for id, v := range r.Final {
			w.Final[strconv.Itoa(id)] = v
		}
	}
	if r.Err != nil {
		w.Err = r.Err.Error()
	}
	return w
}

// FromWire rebuilds a distill.Report.
func FromWire(w *WireReport) *distill.Report {
	if w == nil {
		return nil
	}
	r := &distill.Report{
		Met: w.Met, Terminated: w.Terminated, Diverged: w.Diverged,
		EpochsRun: w.EpochsRun, TrainTime: time.Duration(w.TrainNS),
		FinalLoss: w.FinalLoss, WarmStarted: w.WarmStarted, WarmFellBack: w.WarmFellBack,
	}
	if len(w.Final) > 0 {
		r.Final = make(map[int]float64, len(w.Final))
		for k, v := range w.Final {
			id, err := strconv.Atoi(k)
			if err != nil {
				continue
			}
			r.Final[id] = v
		}
	}
	if w.Err != "" {
		r.Err = fmt.Errorf("%s", w.Err)
	}
	return r
}
