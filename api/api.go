// Package api defines the stable wire types of the model server's HTTP
// surface and a small typed client. The server side lives in
// internal/httpapi; everything a consumer needs to talk to it is exported
// here so external tools never hand-roll the JSON.
//
// The v2 surface is model-scoped — one process serves a fleet:
//
//	POST /v2/models/{name}/infer    -> per-task outputs for one model
//	GET  /v2/models                 -> fleet listing (version, checksum,
//	                                   plan coverage, queue depth)
//	GET  /v2/models/{name}          -> one model's metadata
//	GET  /v2/models/{name}/stats    -> one model's counters + swap history
//
// The v1 surface (POST /v1/infer, GET /v1/model, GET /v1/stats) is kept
// as a permanent alias for the server's default model, so single-model
// clients written against v1 keep working unchanged.
//
// Both infer routes accept the input in one of two encodings, chosen by
// the request's Content-Type:
//
//	application/octet-stream   the flat row-major input as little-endian
//	(BinaryContentType)        IEEE-754 float32, 4 bytes per value, no
//	                           header: N samples are N*SampleSize*4 bytes
//	anything else, or none     JSON, an InferRequest: {"input": [...]}
//
// Client sends the binary body; JSON stays for curl and hand-written
// callers. Responses are always JSON. Bodies over the server's size cap
// get 413; a NaN or ±Inf value gets 400.
package api

// BinaryContentType is the media type of the binary infer body: the flat
// row-major input as little-endian float32, 4 bytes per value.
const BinaryContentType = "application/octet-stream"

// InferRequest is the JSON infer body, sent to POST /v1/infer and
// POST /v2/models/{name}/infer with any Content-Type but
// BinaryContentType. Its binary twin is Input alone, each value as 4
// little-endian bytes.
type InferRequest struct {
	// Input is a flat row-major float32 array: one sample of the model's
	// input shape, or N samples concatenated. Every value must be finite.
	Input []float32 `json:"input"`
}

// InferResponse maps task name (or "task-<id>") to per-sample output rows.
type InferResponse struct {
	// Batch is the number of samples recognized in the request.
	Batch int `json:"batch"`
	// Outputs holds, per task, one output row per input sample.
	Outputs map[string][][]float32 `json:"outputs"`
	// Micros is the server-side request latency in microseconds, queueing
	// included.
	Micros int64 `json:"latency_us"`
}

// ModelInfo is the GET /v1/model and GET /v2/models/{name} response.
type ModelInfo struct {
	// Name is the registry name the model serves under; Version counts its
	// deploy generations (hot swaps increment it); Checksum is the
	// checkpoint's content identity ("crc32:xxxxxxxx").
	Name       string         `json:"name,omitempty"`
	Version    int            `json:"version,omitempty"`
	Checksum   string         `json:"checksum,omitempty"`
	InputShape []int          `json:"input_shape"`
	Tasks      map[string]int `json:"tasks"` // task name -> output size
	Blocks     int            `json:"blocks"`
	FLOPs      int64          `json:"flops_per_sample"`
	Params     int64          `json:"parameters"`
	// Vocab is the token vocabulary for 1-D (token-id) input models;
	// inputs must be integer ids in [0, Vocab). Zero for image models.
	Vocab int `json:"vocab,omitempty"`
	// SharedStem describes the model's shared-stem group, absent while it
	// serves solo.
	SharedStem *SharedStem `json:"shared_stem,omitempty"`
}

// Stats is the GET /v1/stats response: the default model's request
// counters, latency distribution, and scheduler state, plus the
// registry-level fleet section. Per-model views of the same counters are
// served by GET /v2/models/{name}/stats.
type Stats struct {
	// Requests counts completed inferences; Failures counts malformed
	// requests (4xx other than backpressure).
	Requests int64 `json:"requests"`
	Failures int64 `json:"failures"`
	// Rejected counts requests refused with 429 because the model's batch
	// queue was full; SLOShed counts requests refused with 503 because the
	// model's SLO-aware admission predicted they would queue past their
	// latency budget; Expired counts requests failed with 503 because
	// their deadline elapsed before completion; Canceled counts requests
	// whose client went away while they waited.
	Rejected int64 `json:"rejected"`
	SLOShed  int64 `json:"slo_shed"`
	Expired  int64 `json:"expired"`
	Canceled int64 `json:"canceled"`

	// Latency percentiles and mean over recent completed requests,
	// measured enqueue-to-scatter, in microseconds.
	MeanMicros float64 `json:"mean_latency_us"`
	P50Micros  float64 `json:"p50_latency_us"`
	P95Micros  float64 `json:"p95_latency_us"`
	P99Micros  float64 `json:"p99_latency_us"`

	// QueueDepth is the number of requests waiting to be batched at
	// snapshot time.
	QueueDepth int `json:"queue_depth"`
	// Batches counts fused forward passes; MeanBatch is the mean number
	// of samples per pass; BatchHist maps batch size -> pass count.
	Batches   int64         `json:"batches"`
	MeanBatch float64       `json:"mean_batch"`
	BatchHist map[int]int64 `json:"batch_hist,omitempty"`

	// Plan describes the compiled execution plan the engine pool runs,
	// with cumulative per-op timings. Absent when the server was built
	// around engines that do not execute plans.
	Plan *PlanStats `json:"plan,omitempty"`

	// Registry is the fleet-level section: counters that belong to the
	// whole process rather than any one model, and every model's queue
	// depth (the v1 QueueDepth field above covers only the model the
	// stats are scoped to). Absent in per-model stats responses.
	Registry *RegistryStats `json:"registry,omitempty"`
}

// RegistryStats is the fleet-level section of GET /v1/stats.
type RegistryStats struct {
	// ModelsLoaded is the number of registered models; SwapsCompleted
	// counts hot swaps across the fleet; SwapDrainMicros is the cumulative
	// time old deployments spent draining during those swaps.
	ModelsLoaded    int   `json:"models_loaded"`
	SwapsCompleted  int64 `json:"swaps_completed"`
	SwapDrainMicros int64 `json:"swap_drain_us"`
	// QueueDepth maps model name to its admission-queue depth at snapshot
	// time.
	QueueDepth map[string]int `json:"queue_depth"`
}

// ModelSummary is one row of the GET /v2/models listing.
type ModelSummary struct {
	Name     string `json:"name"`
	Version  int    `json:"version"`
	Checksum string `json:"checksum"`
	// Default marks the model the /v1/* surface aliases.
	Default bool `json:"default,omitempty"`
	// Source is the checkpoint path the model was loaded from, empty for
	// models registered from memory.
	Source     string   `json:"source,omitempty"`
	InputShape []int    `json:"input_shape"`
	Tasks      []string `json:"tasks"`
	// PlanOps is the number of compiled ops the model's plan runs.
	PlanOps int `json:"plan_ops"`
	// QueueDepth and Requests give the listing a live serving pulse.
	QueueDepth int   `json:"queue_depth"`
	Requests   int64 `json:"requests"`
}

// ModelList is the GET /v2/models response.
type ModelList struct {
	Models []ModelSummary `json:"models"`
	// Default names the model the /v1/* surface aliases.
	Default string `json:"default"`
}

// SharedStem describes a model's shared-stem serving group: several
// registered models whose prefix fingerprint chains match are compiled
// into one multi-head plan whose stem runs once per coalesced batch.
// Counters are group-wide — every member reports the same numbers.
type SharedStem struct {
	// Members lists the group's model names in membership order.
	Members []string `json:"members"`
	// Depth is the number of stem blocks compiled once for the group.
	Depth int `json:"depth"`
	// Fingerprint is the stem's cumulative prefix hash, hex-encoded.
	Fingerprint string `json:"fingerprint"`
	// MemoHits/MemoMisses/MemoEvictions/MemoEntries describe the
	// stem-activation memo (all zero when memoisation is disabled);
	// MemoFiltered counts rows the admission doorkeeper held out on
	// their first sighting.
	MemoHits      int64 `json:"memo_hits"`
	MemoMisses    int64 `json:"memo_misses"`
	MemoEvictions int64 `json:"memo_evictions"`
	MemoFiltered  int64 `json:"memo_filtered"`
	MemoEntries   int   `json:"memo_entries"`
	// MixedBatches counts fused batches that coalesced requests from more
	// than one member.
	MixedBatches int64 `json:"mixed_batches"`
	// StemBatchHist histograms the stem batch sizes actually computed;
	// bucket 0 counts batches served entirely from the memo.
	StemBatchHist map[int]int64 `json:"stem_batch_hist,omitempty"`
}

// SwapRecord is one completed hot swap in a model's history, as the
// registry records it and the stats endpoint serves it.
type SwapRecord struct {
	// FromVersion/ToVersion are the registry-assigned deploy generations.
	FromVersion int `json:"from_version"`
	ToVersion   int `json:"to_version"`
	// FromChecksum/ToChecksum are the checkpoint content identities.
	FromChecksum string `json:"from_checksum"`
	ToChecksum   string `json:"to_checksum"`
	// DrainMicros is how long the old deployment took to answer its
	// admitted requests after the new version was published.
	DrainMicros int64 `json:"drain_us"`
	// Abandoned counts in-flight requests the drain gave up on because its
	// context expired — zero on every clean swap.
	Abandoned int `json:"abandoned"`
	// UnixMicros timestamps the swap's completion.
	UnixMicros int64 `json:"unix_us"`
}

// ModelStats is the GET /v2/models/{name}/stats response: the same
// counters as Stats scoped to one model, plus deploy identity and swap
// history.
type ModelStats struct {
	Name     string `json:"name"`
	Version  int    `json:"version"`
	Checksum string `json:"checksum"`
	// Pending counts admitted requests not yet answered.
	Pending int `json:"pending"`
	Stats
	// Swaps is the model's completed hot-swap history, oldest first.
	Swaps []SwapRecord `json:"swaps,omitempty"`
	// SharedStem describes the model's shared-stem group, absent while it
	// serves solo.
	SharedStem *SharedStem `json:"shared_stem,omitempty"`
}

// PlanOpStat is one compiled-plan op's cumulative execution record,
// aggregated across the server's engine pool.
type PlanOpStat struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Wave is the parallel stage the op executes in.
	Wave   int   `json:"wave"`
	Calls  int64 `json:"calls"`
	Micros int64 `json:"micros"`
}

// PlanStats is the GET /v1/stats view of the compiled execution plan.
type PlanStats struct {
	Ops   []PlanOpStat `json:"ops"`
	Waves int          `json:"waves"`
	// Slabs is the number of reusable buffers the plan's liveness analysis
	// assigned; PeakBytes is their per-sample footprint, NaiveBytes what
	// per-op allocation would have used.
	Slabs      int   `json:"slabs"`
	PeakBytes  int64 `json:"peak_bytes_per_sample"`
	NaiveBytes int64 `json:"naive_bytes_per_sample"`
}
