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

import "repro/internal/distill"

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

// EvalReply is a worker's answer to one EvalRequest.
type EvalReply struct {
	Met    bool            `json:"met"`
	Report *distill.Report `json:"report,omitempty"`
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
