package bench

import (
	"context"
	"fmt"
	"time"

	"repro/internal/serve"
)

// ServingRow compares serving throughput of original vs fused models for
// one benchmark (the Discussion's model-serving scenario).
type ServingRow struct {
	Bench string
	// Found reports whether a fused model within the drop was found.
	Found bool
	// OriginalQPS and FusedQPS are closed-loop throughputs.
	OriginalQPS, FusedQPS float64
	// Gain is FusedQPS / OriginalQPS.
	Gain float64
	// P99Original and P99Fused are tail latencies.
	P99Original, P99Fused time.Duration
}

// RunServing searches each benchmark within the drop threshold and then
// measures closed-loop serving throughput of the original multi-DNNs and
// the fused model, each served through its compiled plan (serve.Compare),
// the engine cmd/serve deploys.
func RunServing(benchIDs []string, drop float64, sc Scale) ([]ServingRow, error) {
	var rows []ServingRow
	opts := serve.Options{Clients: 1, Batch: 2, Duration: 400 * time.Millisecond}
	ctx := context.Background()
	for _, id := range benchIDs {
		spec, err := SpecByID(id)
		if err != nil {
			return nil, err
		}
		w, err := Build(spec, sc)
		if err != nil {
			return nil, err
		}
		res := w.Search(drop, VariantPlain, sc.Rounds, sc.Seed^0x5E)
		row := ServingRow{Bench: id}
		best := w.Teacher
		if res.Best != nil {
			row.Found = true
			best = res.Best.Graph
		}
		// Token-id inputs are filled within the workload's vocabulary so
		// text benchmarks exercise real embedding lookups.
		opts.Vocab = w.Vocab
		orig, fused, gain := serve.Compare(ctx, w.Teacher, best, opts)
		row.OriginalQPS, row.FusedQPS, row.Gain = orig.QPS, fused.QPS, gain
		row.P99Original, row.P99Fused = orig.P99, fused.P99
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatServing renders serving rows.
func FormatServing(rows []ServingRow) string {
	s := fmt.Sprintf("%-5s %12s %12s %8s %12s %12s\n",
		"Bench", "Orig QPS", "Fused QPS", "Gain", "Orig p99", "Fused p99")
	for _, r := range rows {
		note := ""
		if !r.Found {
			note = "  [no fused model found]"
		}
		s += fmt.Sprintf("%-5s %12.1f %12.1f %7.2fx %12v %12v%s\n",
			r.Bench, r.OriginalQPS, r.FusedQPS, r.Gain, r.P99Original, r.P99Fused, note)
	}
	return s
}

// BestModelDOT searches one benchmark and returns DOT renderings of the
// original and best fused architectures (the paper's Figure 9 analogue).
func BestModelDOT(id string, drop float64, sc Scale) (original, fused string, err error) {
	spec, err := SpecByID(id)
	if err != nil {
		return "", "", err
	}
	w, err := Build(spec, sc)
	if err != nil {
		return "", "", err
	}
	res := w.Search(drop, VariantPlain, sc.Rounds, sc.Seed^0xF9)
	original = w.Teacher.ToDOT(fmt.Sprintf("%s original multi-DNNs", id))
	best := w.Teacher
	if res.Best != nil {
		best = res.Best.Graph
	}
	fused = best.ToDOT(fmt.Sprintf("%s fused (drop < %.0f%%)", id, drop*100))
	return original, fused, nil
}
