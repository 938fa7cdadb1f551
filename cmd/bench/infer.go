package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"time"

	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/mtl"
	"repro/internal/plan"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/timing"
)

// Models are fixtures built from fixtureSeed; the seed of a run draws only
// the inputs they are given. A forward's time does not depend on the weight
// values, but which ops quant.Apply's accuracy guard leaves at int8 does.
const fixtureSeed = 61

// inferFixture is a fused multi-task model compiled for inference.
type inferFixture struct {
	// orig is the unfused multi-DNN graph, fused the one under test.
	orig, fused *graph.Graph
	eng         *engine.Fused
	inShape     graph.Shape
	vocab       int // > 0 for token-id inputs
	compileMS   float64
	// quant is quant.Apply's report when fused carries int8 annotations.
	quant *quant.Report
}

// quantBudget is quant.Config's default AccuracyDrop, which buildCNN uses.
const quantBudget = 0.01

// zooGraph builds an unfused multi-DNN graph from the model zoo.
func zooGraph(in graph.Shape, cfg models.Config, archs []string, names []string, classes []int) (*graph.Graph, error) {
	rng := tensor.NewRNG(fixtureSeed)
	g := graph.New(in, graph.DomainRaw)
	for i, arch := range archs {
		g.TaskNames[i] = names[i]
		if _, err := models.AddBranch(g, rng, cfg, arch, i, classes[i]); err != nil {
			return nil, err
		}
	}
	g.RefreshCapacities()
	return g, g.Validate()
}

// shareTrunk fuses same-architecture branches deterministically, with no
// search in the loop: mtl.ShareAt shares all but the last three blocks, the
// shape a GMorph search converges to when tasks are related.
func shareTrunk(orig *graph.Graph) (*graph.Graph, error) {
	return mtl.ShareAt(orig, mtl.CommonPrefixLen(orig)-3)
}

// buildCNN builds B2 (3xVGG-16 over 3x32x32 faces) at paper width, fused by
// shareTrunk. With int8 the fused graph is quantized under quant.Apply's
// default 1% budget first.
func buildCNN(o options, int8 bool) (*inferFixture, error) {
	cfg := models.Config{WidthScale: 1, WidthMul: 8}
	samples := 16
	if o.smoke {
		cfg.WidthMul, samples = 1, 8
	}
	tasks := []string{"emotion", "age", "gender"}
	ds := data.NewFace(data.FaceConfig{
		Train: samples, Test: samples, Size: 32, Noise: 0.08, Seed: fixtureSeed, Tasks: tasks,
	})
	classes := make([]int, len(tasks))
	for i := range tasks {
		classes[i] = ds.Tasks[i].Classes
	}
	orig, err := zooGraph(graph.Shape{3, 32, 32}, cfg,
		[]string{models.VGG16, models.VGG16, models.VGG16}, tasks, classes)
	if err != nil {
		return nil, err
	}
	fused, err := shareTrunk(orig)
	if err != nil {
		return nil, err
	}
	fx := &inferFixture{orig: orig, fused: fused, inShape: orig.Root.InputShape}
	if int8 {
		qc := quant.Config{CalibSamples: samples, Batch: samples}
		if fx.quant, err = quant.Apply(fused, ds, qc); err != nil {
			return nil, err
		}
	}
	fx.compile()
	return fx, nil
}

// buildBERT builds B7 (BERT-Large + BERT-Base over token ids) at paper
// width, shared at the deepest depth mtl.ShareAt accepts for the pair. At
// 64 tokens a forward is bound by the kernels; at 16 it only streams the
// weights once, and its time follows the neighbours' memory traffic.
func buildBERT(o options) (*inferFixture, error) {
	cfg := models.Config{WidthMul: 8, Vocab: 40}
	if o.smoke {
		cfg.WidthMul = 1
	}
	orig, err := zooGraph(graph.Shape{64}, cfg,
		[]string{models.BERTLarge, models.BERTBase}, []string{"cola", "sst"}, []int{2, 2})
	if err != nil {
		return nil, err
	}
	fused, err := mtl.ShareAt(orig, mtl.CommonPrefixLen(orig))
	if err != nil {
		return nil, err
	}
	fx := &inferFixture{orig: orig, fused: fused, inShape: orig.Root.InputShape, vocab: cfg.Vocab}
	fx.compile()
	return fx, nil
}

func (fx *inferFixture) compile() {
	t0 := time.Now()
	fx.eng = engine.Compile(fx.fused)
	fx.compileMS = float64(time.Since(t0)) / 1e6
}

// inputs draws n seeded batch-1 inputs for the fixture.
func (fx *inferFixture) inputs(seed uint64, n int) []*tensor.Tensor {
	if fx.vocab > 0 {
		return tokenInputs(seed, n, fx.inShape[0], fx.vocab)
	}
	return faceInputs(seed, n, fx.inShape[1])
}

func runInferCNN(o options, tr *tracer) (*report, error) {
	return runInfer(o, tr, func() (*inferFixture, error) { return buildCNN(o, false) })
}

func runInferCNNInt8(o options, tr *tracer) (*report, error) {
	return runInfer(o, tr, func() (*inferFixture, error) { return buildCNN(o, true) })
}

func runInferBERT(o options, tr *tracer) (*report, error) {
	return runInfer(o, tr, func() (*inferFixture, error) { return buildBERT(o) })
}

// inferInputs is how many distinct inputs a run cycles through.
const inferInputs = 32

func runInfer(o options, tr *tracer, build func() (*inferFixture, error)) (*report, error) {
	rep := &report{}
	fx, err := setupN(rep, o, build, func(*inferFixture) {})
	if err != nil {
		return nil, err
	}
	xs := fx.inputs(o.seed, inferInputs)
	// One warm-up forward binds the plan's buffers.
	fx.eng.Forward(xs[0])
	before := fx.eng.OpStats()

	outs := make([]map[int]*tensor.Tensor, len(xs))
	timedLoop(rep, o.seconds, 5, func(i int) error {
		id := tr.begin("engine.Forward", -1, int64(i))
		out := fx.eng.Forward(xs[i%len(xs)])
		tr.end(id)
		outs[i%len(xs)] = out
		return nil
	})
	after := fx.eng.OpStats()

	// Output checks, outside the timed path: a sample of the forwards
	// against the eager engine on the same input.
	ref := engine.NewReference(fx.fused)
	tol := 1e-3
	if fx.quant != nil {
		// The eager engine runs f32; int8 outputs are held to the
		// quantization error a paper-width VGG shows, not to f32 parity.
		tol = 0.25
		rep.check(fx.quant.Drop <= quantBudget+1e-9 && fx.quant.QuantizedOps > 0,
			"quant: drop %.4f over budget %.2f, or nothing quantized (%d int8 ops)",
			fx.quant.Drop, quantBudget, fx.quant.QuantizedOps)
	}
	worst := 0.0
	for i := 0; i < len(xs); i += len(xs) / 4 {
		if outs[i] == nil {
			continue
		}
		err := outputsErr(outs[i], ref.Forward(xs[i]))
		worst = max(worst, err)
		rep.check(err <= tol, "forward %d: outputs differ from the eager engine by %.3g, over %g", i, err, tol)
	}
	rep.notes = append(rep.notes, fmt.Sprintf("worst relative error against the eager engine: %.3g (limit %g)", worst, tol))

	if tr != nil {
		inferLayerMetrics(rep, o, fx, xs, before, after, ref)
	}
	return rep, nil
}

// opFLOPs computes an op's floating-point operations per sample from the
// shapes in its f32 plan; 0 for ops that are not GEMM-shaped.
func opFLOPs(p *plan.Plan, o *plan.Op) float64 {
	elems := func(id int) float64 { return float64(p.Values[id].Elems()) }
	out := p.Values[o.Out].Shape
	switch o.Kind {
	case "conv":
		// The im2col scratch is [outPixels, Cin*k*k]; each row meets every
		// output channel. A pooled output has fewer pixels than the GEMM.
		cols := p.Values[o.Scratch[0]].Shape
		return 2 * float64(cols[0]) * float64(cols[1]) * float64(out[0])
	case "linear", "qkv", "patch":
		// [rows, in] @ [in, out], rows being 1 for a flat input: every
		// input element meets every output column.
		return 2 * elems(o.In) * float64(out[len(out)-1])
	case "attn":
		// QK^T and PV over [T, D] tokens: 2*T*T*D each.
		if len(out) != 2 {
			return 0
		}
		return 4 * float64(out[0]) * float64(out[0]) * float64(out[1])
	}
	return 0
}

// kindClass groups plan op kinds into the rows the tensor layer reports.
func kindClass(kind string) string {
	switch kind {
	case "conv", "qconv":
		return "conv"
	case "linear", "qlinear", "qkv", "qqkv", "patch":
		return "linear"
	case "attn":
		return "attn"
	case "ln", "addln":
		return "layernorm"
	}
	return "other"
}

// inferLayerMetrics fills the tensor, plan, engine and quant rows from the
// counters the engine exports and a few standalone timings.
func inferLayerMetrics(rep *report, o options, fx *inferFixture, xs []*tensor.Tensor,
	before, after []plan.OpStat, ref *engine.Reference) {
	m := map[string]float64{}
	p := fx.eng.Plan()
	r := p.Report()
	inferMS := median(rep.samples)

	// tensor: achieved GFLOP/s per op class from op nanos over the window.
	// FLOPs are computed from plan shapes, not counted by the hardware.
	// The int8 plan has the f32 plan's ops one for one (same plan, other
	// kernels), so the f32 twin supplies the shapes for both.
	f32g := fx.fused
	if fx.quant != nil {
		f32g = fx.fused.Clone()
		quant.Strip(f32g)
	}
	f32 := engine.Compile(f32g)
	shapes := f32.Plan()
	peak := gemmPeakGFLOPs()
	m["gemm_peak_gflops"] = peak
	nanos, flops := map[string]float64{}, map[string]float64{}
	var total float64
	for i, st := range after {
		dn := float64(st.Nanos - before[i].Nanos)
		calls := float64(st.Calls - before[i].Calls)
		class := kindClass(st.Kind)
		nanos[class] += dn
		if len(shapes.Ops) == len(after) {
			flops[class] += calls * opFLOPs(shapes, shapes.Ops[i])
		}
		total += dn
	}
	var gemmFLOPs, gemmNanos float64
	for _, class := range []string{"conv", "linear", "attn"} {
		if nanos[class] > 0 {
			m[class+"_gflops"] = flops[class] / nanos[class]
		}
		gemmFLOPs += flops[class]
		gemmNanos += nanos[class]
	}
	if gemmNanos > 0 && peak > 0 {
		m["peak_frac"] = gemmFLOPs / gemmNanos / peak
	}
	if total > 0 {
		m["conv_linear_share"] = (nanos["conv"] + nanos["linear"]) / total
		m["attn_share"] = nanos["attn"] / total
		m["layernorm_share"] = nanos["layernorm"] / total
	}

	// plan: schedule and memory economics.
	m["compile_ms"] = fx.compileMS
	m["ops"], m["waves"], m["peak_bytes"] = float64(len(r.Ops)), float64(len(r.Waves)), float64(r.PeakBytes)
	// A second process with GOMAXPROCS=1 runs the same forwards serially:
	// there ops cannot overlap, so forward = sum of op nanos + overhead, and
	// there the plan's zero-allocation guarantee is defined (the pool's
	// cross-worker joins allocate now and then).
	if probe, err := runSerialProbe(o); err != nil {
		rep.notes = append(rep.notes, "serial probe skipped: "+err.Error())
	} else {
		m["plan_overhead_us"] = probe.overheadUS()
		m["parallel_eff"] = probe.ForwardUS / 1e3 / inferMS / float64(runtime.GOMAXPROCS(0))
		rep.check(probe.overheadUS() >= 0 && probe.overheadUS() <= 0.05*probe.MeanUS,
			"serial forward %.0f us is not op nanos %.0f us + <=5%% overhead", probe.MeanUS, probe.OpSumUS)
		m["allocs_per_forward"] = probe.Allocs
		rep.check(probe.Allocs == 0, "plan allocates %v times per forward", probe.Allocs)
	}

	// engine: the paper's Figure 7 quantity, informational.
	orig := engine.Compile(fx.orig)
	orig.Forward(xs[0])
	n := 0
	m["orig_ms"] = timeMedian(7, func() { orig.Forward(xs[n%len(xs)]); n++ })
	m["eager_ms"] = timeMedian(5, func() { ref.Forward(xs[n%len(xs)]); n++ })
	m["fusion_speedup"] = m["orig_ms"] / inferMS
	m["plan_vs_eager"] = m["eager_ms"] / inferMS

	if fx.vocab == 0 {
		rep.expect(m["conv_linear_share"] >= 0.9, fmt.Sprintf("conv+linear are %.1f%% of the forward's op time (>= 90%%)", 100*m["conv_linear_share"]))
	}
	if fx.quant != nil {
		m["int8_ops"] = float64(fx.quant.QuantizedOps)
		m["accuracy_drop"] = fx.quant.Drop
		f32.Forward(xs[0])
		m["int8_vs_f32"] = timeMedian(7, func() { f32.Forward(xs[n%len(xs)]); n++ }) / inferMS
	}
	rep.layer = m
}

// gemmPeakGFLOPs measures the machine's f32 GEMM rate once: the best of a
// few 512^3 MatMuls through the same kernels the plan ops use.
func gemmPeakGFLOPs() float64 {
	const n = 512
	a, b, dst := tensor.New(n, n), tensor.New(n, n), tensor.New(n, n)
	rng := tensor.NewRNG(1)
	rng.FillNormal(a, 0, 1)
	rng.FillNormal(b, 0, 1)
	best := timing.MinOfRuns(1, 5, func() { tensor.MatMulInto(dst, a, b) })
	return 2 * n * n * n / float64(best)
}

// serialProbe is what the -probe-serial child prints.
type serialProbe struct {
	// ForwardUS is the median forward; MeanUS and OpSumUS are the mean
	// forward and the mean op nanos per forward over the same forwards.
	ForwardUS float64 `json:"forward_us"`
	MeanUS    float64 `json:"mean_us"`
	OpSumUS   float64 `json:"op_sum_us"`
	// Allocs is the heap allocations per plan.Instance.Execute (the engine
	// wrapper clones the head outputs; the plan itself must not allocate).
	Allocs float64 `json:"allocs_per_forward"`
}

// overheadUS is the part of a serial forward no op accounts for.
func (p serialProbe) overheadUS() float64 { return p.MeanUS - p.OpSumUS }

// probeFixture builds the graph a workload's serial probe runs.
func probeFixture(o options) (*inferFixture, error) {
	switch o.workload {
	case "infer.cnn":
		return buildCNN(o, false)
	case "infer.cnn.int8":
		return buildCNN(o, true)
	case "infer.bert":
		return buildBERT(o)
	case "serve.solo":
		g, err := soloGraph(o)
		if err != nil {
			return nil, err
		}
		fx := &inferFixture{fused: g, inShape: g.Root.InputShape}
		fx.compile()
		return fx, nil
	}
	return nil, fmt.Errorf("no serial probe for workload %q", o.workload)
}

// probeSerial is the child's body: about a second of batch-1 forwards of
// the workload's graph, printing the median forward and the op nanos per
// forward. The parent starts it with GOMAXPROCS=1, where the kernel pool
// has one worker and a plan's waves run their ops one after another.
func probeSerial(o options, out io.Writer) error {
	fx, err := probeFixture(o)
	if err != nil {
		return err
	}
	xs := fx.inputs(o.seed, 8)
	fx.eng.Forward(xs[0])
	before := fx.eng.OpStats()
	var lat []float64
	for start := time.Now(); len(lat) < 5 || time.Since(start) < time.Second; {
		t0 := time.Now()
		fx.eng.Forward(xs[len(lat)%len(xs)])
		lat = append(lat, float64(time.Since(t0))/1e3)
	}
	var ops, total float64
	for i, st := range fx.eng.OpStats() {
		ops += float64(st.Nanos-before[i].Nanos) / 1e3
	}
	for _, l := range lat {
		total += l
	}
	n := float64(len(lat))

	inst := plan.Compile(fx.fused).NewInstance()
	inst.Execute(xs[0])
	var ms0, ms1 runtime.MemStats
	const allocRuns = 10
	runtime.ReadMemStats(&ms0)
	for i := 0; i < allocRuns; i++ {
		inst.Execute(xs[i%len(xs)])
	}
	runtime.ReadMemStats(&ms1)
	return json.NewEncoder(out).Encode(serialProbe{
		ForwardUS: median(lat), MeanUS: total / n, OpSumUS: ops / n,
		Allocs: float64(ms1.Mallocs-ms0.Mallocs) / allocRuns,
	})
}

// runSerialProbe re-runs this binary as the GOMAXPROCS=1 probe and waits
// for it. The smoke run skips it: a test binary is not this program.
func runSerialProbe(o options) (serialProbe, error) {
	var p serialProbe
	if o.smoke {
		return p, fmt.Errorf("smoke run")
	}
	exe, err := os.Executable()
	if err != nil {
		return p, err
	}
	cmd := exec.Command(exe, "-probe-serial", "-workload", o.workload, "-seed", fmt.Sprint(o.seed), "-scratch", o.scratch)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return p, fmt.Errorf("serial probe: %w", err)
	}
	if err := json.Unmarshal(raw, &p); err != nil {
		return p, fmt.Errorf("serial probe output: %w", err)
	}
	return p, nil
}
