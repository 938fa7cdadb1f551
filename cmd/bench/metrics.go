package main

import (
	"math"
	"sort"
)

// metricDef is one metric as BENCHMARK.json declares it. Bound is the share
// of the parent's median an end-to-end metric may worsen by; per-layer
// metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the stack sees. Every workload reports all
// three; the README maps them onto the per-workload names (fuse_s, infer_ms,
// infer_int8_ms, serve_p50_ms, serve_rps). latency_ms is the median over the
// whole window and ops_per_s the window's successes over its wall time. The
// bounds are the ones two sets of ten runs held on a shared two-core VM
// (spreads up to 9%, medians within 7% of each other, set-up 16% and 7%);
// see the README.
var endToEnd = []metricDef{
	{Name: "latency_ms", Unit: "ms", Better: "lower", Bound: 0.20},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// layerMetric is a per-layer metric and the package it is read from.
type layerMetric struct {
	Layer string
	metricDef
	// Exact marks counters that must repeat exactly between two runs of the
	// same code on the same seed.
	Exact bool
}

func lm(layer, name, unit, better string) layerMetric {
	return layerMetric{Layer: layer, metricDef: metricDef{Name: name, Unit: unit, Better: better}}
}

func exact(m layerMetric) layerMetric { m.Exact = true; return m }

// perLayer is the -trace run's output, in README order. A workload sets the
// metrics of the layers it exercises; see resultOf for the rest.
var perLayer = []layerMetric{
	lm("bench", "traced_latency_ms", "ms", "lower"),
	lm("bench", "traced_ops_per_s", "1/s", "higher"),
	lm("bench", "tail_ms", "ms", "lower"),
	lm("bench", "tail_pct", "%", "higher"),

	lm("tensor", "gemm_peak_gflops", "gflop/s", "higher"),
	lm("tensor", "conv_gflops", "gflop/s", "higher"),
	lm("tensor", "linear_gflops", "gflop/s", "higher"),
	lm("tensor", "attn_gflops", "gflop/s", "higher"),
	lm("tensor", "peak_frac", "ratio", "higher"),
	lm("tensor", "parallel_eff", "ratio", "higher"),
	lm("tensor", "conv_linear_share", "ratio", "higher"),
	lm("tensor", "attn_share", "ratio", "lower"),
	lm("tensor", "layernorm_share", "ratio", "lower"),

	lm("plan", "compile_ms", "ms", "lower"),
	exact(lm("plan", "ops", "count", "lower")),
	lm("plan", "waves", "count", "lower"),
	lm("plan", "peak_bytes", "bytes", "lower"),
	exact(lm("plan", "allocs_per_forward", "count", "lower")),
	lm("plan", "plan_overhead_us", "us", "lower"),

	lm("engine", "orig_ms", "ms", "lower"),
	lm("engine", "eager_ms", "ms", "lower"),
	lm("engine", "fusion_speedup", "ratio", "higher"),
	lm("engine", "plan_vs_eager", "ratio", "higher"),

	lm("quant", "int8_ops", "count", "higher"),
	lm("quant", "accuracy_drop", "ratio", "lower"),
	lm("quant", "int8_vs_f32", "ratio", "higher"),

	lm("httpapi", "handler_us", "us", "lower"),
	lm("httpapi", "transport_us", "us", "lower"),
	lm("httpapi", "json_decode_us", "us", "lower"),
	lm("httpapi", "json_encode_us", "us", "lower"),
	lm("httpapi", "handler_self_us", "us", "lower"),
	lm("httpapi", "httpapi_share", "ratio", "lower"),

	lm("batcher", "queue_wait_us", "us", "lower"),
	lm("batcher", "mean_batch", "count", "higher"),
	lm("batcher", "max_batch", "count", "higher"),
	lm("batcher", "rejected", "count", "lower"),
	lm("batcher", "expired", "count", "lower"),

	lm("registry", "stem_memo_hit_ratio", "ratio", "higher"),
	lm("registry", "memo_filtered", "count", "lower"),
	lm("registry", "mixed_batch_ratio", "ratio", "higher"),
	lm("registry", "stem_busy_share", "ratio", "lower"),
	lm("registry", "heads_busy_share", "ratio", "lower"),
	lm("registry", "slo_shed", "count", "lower"),

	exact(lm("core", "evaluated", "count", "lower")),
	lm("core", "cache_hit_ratio", "ratio", "higher"),
	exact(lm("core", "rule_skipped", "count", "higher")),
	exact(lm("core", "early_terminated", "count", "higher")),
	lm("core", "search_overhead_s", "s", "lower"),

	exact(lm("estimator", "fine_tuned", "count", "lower")),
	exact(lm("estimator", "total_epochs", "count", "lower")),
	lm("estimator", "eval_busy_s", "s", "lower"),
	lm("estimator", "epoch_ms", "ms", "lower"),
	lm("estimator", "eval_share", "ratio", "higher"),

	lm("diskmemo", "memo_load_ms", "ms", "lower"),
	lm("diskmemo", "memo_save_ms", "ms", "lower"),
	lm("diskmemo", "memo_bytes", "bytes", "lower"),
	lm("diskmemo", "fingerprint_us", "us", "lower"),
}

// tailCandidates are the percentiles a tail may be reported at, each with
// the share of samples beyond it written as one in every.
var tailCandidates = []struct {
	pct   float64
	every int
}{{50, 2}, {75, 4}, {90, 10}, {95, 20}, {99, 100}, {99.9, 1000}}

// tailPercentile returns the highest candidate percentile that still has at
// least ten of n samples beyond it, or 0 when even the median has fewer.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, c := range tailCandidates {
		if n/c.every >= 10 {
			best = c.pct
		}
	}
	return best
}

// percentile returns the p-th percentile of sorted samples (nearest rank).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median returns the middle of the samples (mean of the middle two for an
// even count), 0 for none. It does not modify its argument.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// summary is how a timing is reported: median, sample count, and the tail
// at the highest percentile the sample supports (the maximum, at TailPct 0,
// when it supports none).
type summary struct {
	N       int
	Median  float64
	Tail    float64
	TailPct float64
}

func summarize(samples []float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	out := summary{N: len(s), Median: median(s), TailPct: tailPercentile(len(s))}
	switch {
	case len(s) == 0:
	case out.TailPct == 0:
		out.Tail = s[len(s)-1]
	default:
		out.Tail = percentile(s, out.TailPct)
	}
	return out
}
