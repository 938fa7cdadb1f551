// Command bench is the repository's benchmark: one program that builds its
// inputs from a seed, drives fuse -> infer -> serve through the public
// functions of the existing packages, checks every output, and prints each
// metric by name with its unit. See README.md beside this file.
//
//	bash cmd/bench/run.sh --workload infer.cnn --seed 1 --seconds 10 --trace 0
//	bash cmd/bench/run.sh --seed 1 --trace 1          (every workload, traced)
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics of
// BENCHMARK.json with --trace 0, the per-layer metrics with --trace 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/fingerprint"
	"repro/internal/tensor"
)

// options is one run's configuration.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// smoke shrinks every workload to tiny counts so a test can run them
	// all in about a second each; its numbers mean nothing.
	smoke bool
	// scratch is the directory memo files and span files go to.
	scratch string
	// out is the span file of a traced run ("" picks one under scratch).
	out string
	// probe makes the process a serial-forward probe (see probeSerial).
	probe bool
}

// workload is one named input set.
type workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(o options, tr *tracer) (*report, error)
}

var workloads = []workload{
	{Name: "search.cold", run: runSearchCold,
		Why: "Fuse on B1 with a fresh memo: ~80% is the evaluator (distill/nn forward-backward on tensor training kernels), the rest Fuse's set-up, merge and memo save; write side of DiskMemo"},
	{Name: "search.replay", run: runSearchReplay,
		Why: "the same Fuse over a populated memo: zero fine-tunes, so core sample/filter/merge, fingerprint, DiskMemo load and parser decode are all that is left"},
	{Name: "infer.cnn", run: runInferCNN,
		Why: "fused B2 (3xVGG-16) at paper width, batch 1, f32: conv/linear GEMM is >90% of the forward, so tensor kernels own it and plan overhead is invisible"},
	{Name: "infer.cnn.int8", run: runInferCNNInt8,
		Why: "the infer.cnn graph after quant.Apply, same plan through the int8 kernels: a win for one precision that costs the other shows"},
	{Name: "infer.bert", run: runInferBERT,
		Why: "B7 (BERT-Large + BERT-Base) at paper width, seq 64: packed-QKV and FFN linears, attention and residual+LayerNorm ops own it; a conv or im2col change must not move it"},
	{Name: "serve.solo", run: runServeSolo,
		Why: "one sim-width fused B1 model over loopback HTTP, nproc api.Client callers, distinct frames: the whole request path; forward+queue ~3/4, JSON and the HTTP hop ~1/4, batches stay <= nproc"},
	{Name: "serve.shared", run: runServeShared,
		Why: "two models sharing a stem, 8 in-process callers, half the frames from a 64-frame hot set: batcher coalescing, mixed batches and the stem memo at ~0.5 hits"},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// report is what a workload hands back.
type report struct {
	// attempted counts timed operations plus output checks; failed counts
	// the ones that errored or produced a wrong output.
	attempted, failed int
	// samples holds the latency, in ms, of every successful timed operation,
	// and window the wall time, in seconds, they were made in.
	samples []float64
	window  float64
	// setup holds one duration per set-up repetition, in seconds.
	setup []float64
	// layer holds the traced run's per-layer metrics.
	layer map[string]float64
	// problems describes every failed check.
	problems []string
	// notes are extra lines for the human-readable output.
	notes []string
}

// opsPerS is the window's successful operations per second of wall time.
func (r *report) opsPerS() float64 {
	if r.window <= 0 {
		return 0
	}
	return float64(len(r.samples)) / r.window
}

// fail records failed operations or checks.
func (r *report) fail(n int, format string, args ...any) {
	r.failed += n
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// check counts one output check and records it as failed unless ok.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(1, format, args...)
	}
}

// expect notes whether the traced run shows a layer doing what the
// workload's why says. It informs; only output checks fail a run.
func (r *report) expect(ok bool, what string) {
	verdict := "as expected"
	if !ok {
		verdict = "NOT as expected"
	}
	r.notes = append(r.notes, fmt.Sprintf("%s: %s", what, verdict))
}

// value is one metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// resultOf converts a report into the result line: end-to-end metrics for
// an untraced run, per-layer metrics for a traced one. The benchmark's
// contract wants every per-layer metric on that line whatever the workload,
// so one the workload did not set reads 0 there; the printed report and the
// span file hold only the ones it set.
func resultOf(rep *report, traced bool) result {
	res := result{
		Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed,
		Metrics: map[string]value{},
	}
	if traced {
		for _, m := range perLayer {
			res.Metrics[m.Name] = value{rep.layer[m.Name], m.Unit}
		}
		return res
	}
	e2e := map[string]float64{
		"setup_s": median(rep.setup), "latency_ms": median(rep.samples), "ops_per_s": rep.opsPerS(),
	}
	for _, m := range endToEnd {
		res.Metrics[m.Name] = value{e2e[m.Name], m.Unit}
	}
	return res
}

// machine is the signature recorded with every run.
func machine() map[string]string {
	rev := "unknown"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
	}
	return map[string]string{
		"machine":    fingerprint.Machine(),
		"vec":        tensor.VecKind(),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"rev":        rev,
	}
}

// runOne runs a workload and prints its metrics; the caller prints the
// result line.
func runOne(w workload, o options, out io.Writer) (result, error) {
	o.workload = w.Name
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	fmt.Fprintf(out, "workload %s seed=%d seconds=%g trace=%v\n  why: %s\n", w.Name, o.seed, o.seconds, o.trace, w.Why)
	rep, err := w.run(o, tr)
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", w.Name, err)
	}
	if rep.layer == nil {
		rep.layer = map[string]float64{}
	}
	lat := summarize(rep.samples)
	if o.trace {
		rep.layer["traced_latency_ms"], rep.layer["traced_ops_per_s"] = lat.Median, rep.opsPerS()
		rep.layer["tail_ms"], rep.layer["tail_pct"] = lat.Tail, lat.TailPct
	}
	res := resultOf(rep, o.trace)
	printReport(out, rep, res, lat, o.trace)
	if o.trace {
		path := o.out
		if path == "" {
			path = filepath.Join(o.scratch, "trace", fmt.Sprintf("%s-seed%d.json", w.Name, o.seed))
		}
		err := writeTrace(path, traceFile{
			Workload: w.Name, Seed: o.seed, Machine: machine(),
			Metrics: rep.layer, Spans: tr.snapshot(),
		})
		if err != nil {
			return result{}, err
		}
		fmt.Fprintf(out, "  spans: %s\n", path)
	}
	return res, nil
}

func printReport(out io.Writer, rep *report, res result, lat summary, traced bool) {
	tail := fmt.Sprintf("max=%.4g ms", lat.Tail)
	if lat.TailPct > 0 {
		tail = fmt.Sprintf("p%g=%.4g ms", lat.TailPct, lat.Tail)
	}
	if traced {
		fmt.Fprintf(out, "  traced run (n=%d, %s): traced_latency_ms against the --trace 0 run's latency_ms is the tracing overhead\n", lat.N, tail)
		// Only what this workload set: a 0 printed here was measured.
		layer := ""
		for _, m := range perLayer {
			v, set := rep.layer[m.Name]
			if !set {
				continue
			}
			if m.Layer != layer {
				layer = m.Layer
				fmt.Fprintf(out, "  [%s]\n", layer)
			}
			mark := ""
			if m.Exact {
				mark = "  (exact: repeats between runs of one seed)"
			}
			fmt.Fprintf(out, "    %-22s %14.6g %s%s\n", m.Name, v, m.Unit, mark)
		}
	} else {
		for _, m := range endToEnd {
			v := res.Metrics[m.Name]
			extra := ""
			switch m.Name {
			case "latency_ms":
				extra = fmt.Sprintf("  (median of n=%d, %s)", lat.N, tail)
			case "setup_s":
				extra = fmt.Sprintf("  (median of %d set-ups)", len(rep.setup))
			}
			fmt.Fprintf(out, "  %-12s %12.4f %s%s\n", m.Name, v.Value, v.Unit, extra)
		}
	}
	fmt.Fprintf(out, "  failed_ratio %12.4f  (%d failed / %d attempted)\n",
		float64(rep.failed)/float64(max(rep.attempted, 1)), rep.failed, rep.attempted)
	for _, n := range rep.notes {
		fmt.Fprintf(out, "  note: %s\n", n)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(out, "  FAILED: %s\n", p)
	}
}

// run executes the selected workloads and prints the result line: the
// workload's own when one is selected, otherwise the totals with every
// metric keyed "workload/metric".
func run(o options, out io.Writer) (result, error) {
	if o.seconds <= 0 {
		return result{}, errors.New("-seconds must be positive")
	}
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return result{}, err
	}
	sig, _ := json.Marshal(machine()) // a map of strings always encodes
	fmt.Fprintf(out, "machine %s\n", sig)

	if o.workload != "" && o.workload != "all" {
		w, ok := findWorkload(o.workload)
		if !ok {
			return result{}, fmt.Errorf("unknown workload %q", o.workload)
		}
		return runOne(w, o, out)
	}
	// One span file per workload: -out names a single run's file only.
	o.out = ""
	total := result{Correct: true, Metrics: map[string]value{}}
	for _, w := range workloads {
		res, err := runOne(w, o, out)
		if err != nil {
			return result{}, err
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for name, v := range res.Metrics {
			total.Metrics[w.Name+"/"+name] = v
		}
	}
	return total, nil
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	flag.Uint64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny counts, every workload in about a second")
	flag.StringVar(&o.scratch, "scratch", ".bench_build", "directory for memo files and span files")
	flag.StringVar(&o.out, "out", "", "span file of a traced single-workload run (default under -scratch)")
	flag.BoolVar(&o.probe, "probe-serial", false, "internal: print one workload's serial forward timing")
	flag.Parse()
	o.trace = *trace != 0

	if o.probe {
		if err := probeSerial(o, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		return
	}
	start := time.Now()
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	fmt.Printf("total wall %.1fs\n", time.Since(start).Seconds())
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
