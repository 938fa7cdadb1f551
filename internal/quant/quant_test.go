package quant_test

import (
	"math"
	"testing"

	"repro/internal/bench"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

func TestApplyQuantizesWithinBudget(t *testing.T) {
	ds := testutil.TinyFace(31, 96, 64)
	g := testutil.TinyMultiDNN(32, ds)
	testutil.PretrainTeachers(g, ds, 4, 1e-2, 33)

	cfg := quant.Config{AccuracyDrop: 0.02}
	rep, err := quant.Apply(g, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.QuantizedOps == 0 {
		t.Fatal("no ops quantized")
	}
	if rep.Drop > cfg.AccuracyDrop {
		t.Fatalf("final drop %.4f exceeds budget %.4f", rep.Drop, cfg.AccuracyDrop)
	}
	if g.Quant == nil || g.Quant.Budget != cfg.AccuracyDrop {
		t.Fatalf("graph quant note not recorded: %+v", g.Quant)
	}
	for id, b := range rep.Baseline {
		if q, ok := rep.Quantized[id]; !ok || b-q > cfg.AccuracyDrop+1e-9 {
			t.Fatalf("task %d: baseline %.4f quantized %.4f", id, b, q)
		}
	}

	// The annotated graph must now lower onto the int8 kernels.
	p := plan.Compile(g)
	quantKinds := 0
	for _, o := range p.Report().Ops {
		if o.Precision == "int8" {
			quantKinds++
		}
	}
	if quantKinds != rep.QuantizedOps {
		t.Fatalf("plan lowered %d int8 ops, report says %d", quantKinds, rep.QuantizedOps)
	}
	// Head linears must stay f32.
	for _, d := range rep.Ops {
		if d.Reason == "head output" && d.Precision != "f32" {
			t.Fatalf("head op %q quantized", d.Name)
		}
	}
}

// TestGuardDequantizesUnderTightBudget stresses the accuracy guard:
// calibrating on training inputs scaled down 20x sets activation scales that
// saturate at test time, hard enough to break accuracy, and a near-zero
// budget forces the guard to walk ops back to f32 until the model recovers.
func TestGuardDequantizesUnderTightBudget(t *testing.T) {
	ds := testutil.TinyFace(41, 96, 64)
	g := testutil.TinyMultiDNN(42, ds)
	testutil.PretrainTeachers(g, ds, 4, 1e-2, 43)

	calib := *ds
	calib.Train = &data.Split{X: ds.Train.X.Clone(), Labels: ds.Train.Labels}
	calib.Train.X.Scale(0.05)
	cfg := quant.Config{AccuracyDrop: 1e-6}
	rep, err := quant.Apply(g, &calib, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.DequantizedOps == 0 {
		t.Fatalf("guard removed no ops (drop %.4f, %d quantized)", rep.Drop, rep.QuantizedOps)
	}
	if rep.Drop > cfg.AccuracyDrop && rep.QuantizedOps > 0 {
		t.Fatalf("guard stopped early: drop %.4f with %d ops still int8", rep.Drop, rep.QuantizedOps)
	}
	// Guard removals must carry their reason.
	found := false
	for _, d := range rep.Ops {
		if d.Precision == "f32" && d.InScale != 0 {
			found = true
			if d.Reason == "quantized" {
				t.Fatalf("de-quantized op %q kept reason %q", d.Name, d.Reason)
			}
		}
	}
	if !found {
		t.Fatal("no decision records a guard removal")
	}
}

// TestApplyIdempotent re-applies quantization to an already annotated
// graph: stale annotations must be stripped, not double-counted.
func TestApplyIdempotent(t *testing.T) {
	ds := testutil.TinyFace(51, 64, 48)
	g := testutil.TinyMultiDNN(52, ds)
	testutil.PretrainTeachers(g, ds, 3, 1e-2, 53)

	cfg := quant.Config{AccuracyDrop: 0.05}
	r1, err := quant.Apply(g, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := quant.Apply(g, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.QuantizedOps != r2.QuantizedOps || len(r1.Ops) != len(r2.Ops) {
		t.Fatalf("re-apply changed the decision set: %d/%d ops vs %d/%d",
			r1.QuantizedOps, len(r1.Ops), r2.QuantizedOps, len(r2.Ops))
	}
	// Baselines must agree: the second run's baseline is measured after
	// stripping the first run's annotations.
	for id, b := range r1.Baseline {
		if math.Abs(b-r2.Baseline[id]) > 1e-9 {
			t.Fatalf("task %d baseline moved %.6f -> %.6f after re-apply", id, b, r2.Baseline[id])
		}
	}
}

// TestCloneCarriesAnnotations verifies quantization survives graph cloning
// (the serving layer clones models into engine pools).
func TestCloneCarriesAnnotations(t *testing.T) {
	ds := testutil.TinyFace(61, 64, 48)
	g := testutil.TinyMultiDNN(62, ds)
	testutil.PretrainTeachers(g, ds, 3, 1e-2, 63)
	rep, err := quant.Apply(g, ds, quant.Config{AccuracyDrop: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	c := g.Clone()
	if c.Quant == nil || c.Quant.Budget != g.Quant.Budget {
		t.Fatal("clone lost the quant note")
	}
	p := plan.Compile(c)
	got := 0
	for _, o := range p.Report().Ops {
		if o.Precision == "int8" {
			got++
		}
	}
	if got != rep.QuantizedOps {
		t.Fatalf("clone lowered %d int8 ops, want %d", got, rep.QuantizedOps)
	}
}

// BenchmarkQuantVsF32 runs one paper-width teacher through the plan
// executor at int8 and at f32: the same weights and plan structure, only
// the conv/linear kernels differ. B4 is conv-heavy (ResNet), B6 and B7 are
// the transformers, whose packed QKV, attention-output and FFN linears fall
// under the budget. B2's int8 convs are timed by cmd/bench's infer.cnn.int8
// workload. The int8 GEMM's win is memory traffic, so it needs real channel
// counts; pre-training is setup, not measurement, so one epoch suffices.
// The int8 op count and the measured accuracy drop are custom metrics.
func BenchmarkQuantVsF32(b *testing.B) {
	sc := bench.Tiny()
	sc.WidthScale, sc.WidthMul = 1, 8
	sc.Train, sc.Test = 32, 32
	sc.PretrainEpochs = 1
	for _, id := range []string{"B4", "B6", "B7"} {
		spec, err := bench.SpecByID(id)
		if err != nil {
			b.Fatal(err)
		}
		w, err := bench.Build(spec, sc)
		if err != nil {
			b.Fatal(err)
		}
		int8g := w.Teacher
		rep, err := quant.Apply(int8g, w.Dataset, quant.Config{})
		if err != nil {
			b.Fatal(err)
		}
		f32g := int8g.Clone()
		quant.Strip(f32g)

		var x *tensor.Tensor
		if spec.Family == "text" {
			x = tensor.New(4, sc.SeqLen)
			for i := range x.Data() {
				x.Data()[i] = float32((i*7 + 3) % w.Vocab)
			}
		} else {
			x = tensor.New(4, 3, sc.ImgSize, sc.ImgSize)
			tensor.NewRNG(7).FillNormal(x, 0, 1)
		}
		for _, leg := range []struct {
			name string
			g    *graph.Graph
		}{{"f32", f32g}, {"int8", int8g}} {
			b.Run(id+"/"+leg.name, func(b *testing.B) {
				eng := engine.Compile(leg.g)
				eng.Forward(x) // bind buffers outside the measurement
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.Forward(x)
				}
				b.ReportMetric(float64(rep.QuantizedOps), "int8-ops")
				b.ReportMetric(rep.Drop, "accuracy-drop")
			})
		}
	}
}
