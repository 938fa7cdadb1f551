package gmorph_test

// Benchmark harness: one testing.B benchmark per figure/table of the
// paper's evaluation, each running the corresponding experiment at reduced
// scale and reporting the headline quantity as a custom metric. Run the
// full paper-shaped sweep with `go run ./cmd/experiments -scale full`.
//
// Mapping (see DESIGN.md "Benchmarks and experiments" and EXPERIMENTS.md):
//
//	BenchmarkFigure1  — random-fusion speedup/accuracy scatter (Section 2.1)
//	BenchmarkFigure2  — fine-tune time of elite-derived vs original-derived
//	BenchmarkFigure3  — init sensitivity of fixed architectures
//	BenchmarkFigure7  — headline speedups per benchmark/threshold/variant
//	BenchmarkFigure8  — search convergence incl. random sampling baseline
//	BenchmarkTable3   — reference vs fused engine on original vs GMorph
//	BenchmarkTable4   — MTL baselines vs GMorph
//	BenchmarkTable5   — search-time savings from predictive filtering
//
// Plus microbenchmarks of the substrate hot paths.

import (
	"path/filepath"
	"testing"

	gmorph "repro"
	"repro/internal/bench"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// benchScale is the miniature scale used inside testing.B; each benchmark
// does meaningful work in seconds, not hours.
func benchScale() bench.Scale {
	sc := bench.Tiny()
	sc.Rounds = 4
	sc.Epochs = 4
	sc.PretrainEpochs = 4
	sc.Train, sc.Test = 48, 24
	return sc
}

func BenchmarkFigure1(b *testing.B) {
	sc := benchScale()
	sc.Epochs = 2
	spec, err := bench.SpecByID("B4")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		points, err := bench.RunFigure1(spec, sc, 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(points) == 0 {
			b.Fatal("no points")
		}
		var bestSimilar float64
		for _, p := range points {
			if p.Similar && p.Speedup > bestSimilar {
				bestSimilar = p.Speedup
			}
		}
		b.ReportMetric(bestSimilar, "best-similar-speedup-x")
	}
}

func BenchmarkFigure2(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		points, err := bench.RunFigure2(sc, 0.05)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(points)), "accepted-candidates")
	}
}

func BenchmarkFigure3(b *testing.B) {
	sc := benchScale()
	sc.Epochs = 3
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFigure3(sc, 3)
		if err != nil {
			b.Fatal(err)
		}
		// Spread of accuracy drops across initializations (the figure's
		// point: same architecture, different outcomes).
		lo, hi := res.Drops[0][0], res.Drops[0][0]
		for _, ds := range res.Drops {
			for _, d := range ds {
				if d < lo {
					lo = d
				}
				if d > hi {
					hi = d
				}
			}
		}
		b.ReportMetric(hi-lo, "drop-spread")
	}
}

func BenchmarkFigure7(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunFigure7([]string{"B1"}, []float64{0.05},
			[]string{bench.VariantPlain, bench.VariantPR}, sc)
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range rows[0].Outcomes {
			if o.Variant == bench.VariantPlain {
				b.ReportMetric(o.Speedup, "speedup-x")
			}
		}
	}
}

func BenchmarkFigure8(b *testing.B) {
	sc := benchScale()
	sc.Rounds = 3
	for i := 0; i < b.N; i++ {
		curves, err := bench.RunFigure8(sc, 0.05)
		if err != nil {
			b.Fatal(err)
		}
		if len(curves) != 4 {
			b.Fatalf("curves = %d, want 4 variants", len(curves))
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunTable3([]string{"B1"}, 0.05, sc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].FusedSpeedup, "fused-engine-speedup-x")
	}
}

func BenchmarkTable4(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunTable4([]string{"B1"}, 0.05, sc)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].GMorphSpeedup, "gmorph-speedup-x")
		b.ReportMetric(rows[0].AllSharedSpeedup, "allshared-speedup-x")
	}
}

func BenchmarkTable5(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunFigure7([]string{"B1"}, []float64{0.05},
			[]string{bench.VariantPlain, bench.VariantP, bench.VariantPR}, sc)
		if err != nil {
			b.Fatal(err)
		}
		t5 := bench.Table5FromFig7(rows)
		b.ReportMetric(t5[0].Savings[bench.VariantPR], "pr-time-saving-frac")
	}
}

// --- substrate microbenchmarks ---------------------------------------------

func BenchmarkInferenceOriginalB1(b *testing.B) {
	sc := benchScale()
	spec, _ := bench.SpecByID("B1")
	w, err := bench.Build(spec, sc)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.New(4, 3, sc.ImgSize, sc.ImgSize)
	tensor.NewRNG(1).FillNormal(x, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Teacher.Forward(x, false)
	}
}

func BenchmarkFusedEngineB1(b *testing.B) {
	sc := benchScale()
	spec, _ := bench.SpecByID("B1")
	w, err := bench.Build(spec, sc)
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.Compile(w.Teacher)
	x := tensor.New(4, 3, sc.ImgSize, sc.ImgSize)
	tensor.NewRNG(1).FillNormal(x, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Forward(x)
	}
}

func benchmarkMatMulSize(b *testing.B, n int) {
	rng := tensor.NewRNG(1)
	x := tensor.New(n, n)
	y := tensor.New(n, n)
	out := tensor.New(n, n)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(y, 0, 1)
	b.SetBytes(int64(n * n * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulInto(out, x, y)
	}
}

// BenchmarkFuseSearchMemo measures the end-to-end Fuse wall-clock of a
// duplicate-dominated search with and without the fingerprint memo cache
// (BENCH_PR4.json records the comparison). MaxPairsPerPass=1 with the random
// policy keeps the candidate space to single-pair mutations of the original
// graph, so a 24-round search revisits structures heavily — the regime the
// cache targets. The hit rate is reported as a custom metric.
func BenchmarkFuseSearchMemo(b *testing.B) {
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"memo", false}, {"nomemo", true}} {
		b.Run(mode.name, func(b *testing.B) {
			ds := testutil.TinyFace(141, 64, 32)
			teachers := testutil.TinyMultiDNN(142, ds)
			testutil.PretrainTeachers(teachers, ds, 6, 0.004, 143)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := gmorph.Fuse(teachers, ds, gmorph.Config{
					AccuracyDrop:       0.10,
					Rounds:             24,
					MaxPairsPerPass:    1,
					FineTuneEpochs:     8,
					LearningRate:       0.003,
					EvalEvery:          2,
					RandomPolicy:       true,
					Seed:               17,
					DisableSearchCache: mode.disable,
				})
				if err != nil {
					b.Fatal(err)
				}
				total := res.Stats.CacheHits + res.Stats.CacheMisses
				if total > 0 {
					b.ReportMetric(float64(res.Stats.CacheHits)/float64(total), "cache-hit-rate")
				}
				b.ReportMetric(float64(res.Stats.TotalEpochs), "fine-tune-epochs")
			}
		})
	}
}

func BenchmarkMatMul128(b *testing.B) { benchmarkMatMulSize(b, 128) }

func BenchmarkMatMul256(b *testing.B) { benchmarkMatMulSize(b, 256) }

func BenchmarkMatMul512(b *testing.B) { benchmarkMatMulSize(b, 512) }

func BenchmarkConvForward(b *testing.B) {
	rng := gmorph.NewRNG(1)
	m := gmorph.NewModel(gmorph.Shape{3, 32, 32})
	if err := gmorph.AddBranch(m, rng, gmorph.ZooConfig{WidthScale: 2}, gmorph.VGG11, "t", 0, 4); err != nil {
		b.Fatal(err)
	}
	x := tensor.New(4, 3, 32, 32)
	tensor.NewRNG(2).FillNormal(x, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x, false)
	}
}

func BenchmarkLatency(b *testing.B) {
	sc := benchScale()
	spec, _ := bench.SpecByID("B1")
	w, err := bench.Build(spec, sc)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.Latency(w.Teacher)
	}
}

// --- ablation benches (design choices from DESIGN.md) ------------------------

func BenchmarkAblationPairsPerPass(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		points, err := bench.RunAblationPairsPerPass(sc, 0.05, []int{1, 3})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range points {
			if p.Found {
				b.ReportMetric(p.Speedup, p.Setting+"-speedup-x")
			}
		}
	}
}

func BenchmarkAblationEliteCapacity(b *testing.B) {
	sc := benchScale()
	for i := 0; i < b.N; i++ {
		points, err := bench.RunAblationEliteCapacity(sc, 0.05, []int{1, 16})
		if err != nil {
			b.Fatal(err)
		}
		if len(points) != 2 {
			b.Fatal("expected 2 ablation points")
		}
	}
}

// transformerBenchGraph builds a paper-width (WidthMul 8) two-task
// transformer graph shaped like benchmark B6 (ViT-Large + ViT-Base over
// images) or B7 (BERT-Large + BERT-Base over token ids), plus a matching
// input batch. Weights are random: these graphs feed latency benchmarks,
// where pre-training is pure setup cost.
func transformerBenchGraph(b *testing.B, family string) (*graph.Graph, *tensor.Tensor) {
	b.Helper()
	rng := tensor.NewRNG(61)
	cfg := models.Config{WidthMul: 8, Vocab: 40}
	add := func(g *graph.Graph, arch string, task, classes int) {
		if _, err := models.AddBranch(g, rng, cfg, arch, task, classes); err != nil {
			b.Fatal(err)
		}
	}
	switch family {
	case "vit":
		g := graph.New(graph.Shape{3, 64, 64}, graph.DomainRaw) // 64 tokens/branch
		g.TaskNames[0], g.TaskNames[1] = "object", "salient"
		add(g, models.ViTLarge, 0, 6)
		add(g, models.ViTBase, 1, 2)
		g.RefreshCapacities()
		x := tensor.New(4, 3, 64, 64)
		tensor.NewRNG(62).FillNormal(x, 0, 1)
		return g, x
	case "bert":
		g := graph.New(graph.Shape{64}, graph.DomainRaw)
		g.TaskNames[0], g.TaskNames[1] = "cola", "sst"
		add(g, models.BERTLarge, 0, 2)
		add(g, models.BERTBase, 1, 2)
		g.RefreshCapacities()
		x := tensor.New(4, 64)
		for i := range x.Data() {
			x.Data()[i] = float32((i*7 + 3) % 40)
		}
		return g, x
	}
	b.Fatalf("unknown transformer bench family %q", family)
	return nil, nil
}

// BenchmarkPlanTransformerVsEager contrasts the compiled-plan executor's
// fused transformer ops (packed QKV GEMM, tiled flash-style attention,
// LayerNorm+residual epilogues, static buffer plan) against the eager
// Reference engine, which runs each layer's Forward — three separate Q/K/V
// GEMMs and a fully materialized S×S score matrix per head, with fresh
// output tensors at every layer. Paper-width profiles so the fusions act on
// real GEMM shapes (BENCH_PR6.json records the comparison).
func BenchmarkPlanTransformerVsEager(b *testing.B) {
	for _, family := range []string{"vit", "bert"} {
		g, x := transformerBenchGraph(b, family)
		b.Run(family+"/plan", func(b *testing.B) {
			eng := engine.Compile(g)
			eng.Forward(x) // bind buffers outside the measurement
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Forward(x)
			}
		})
		b.Run(family+"/eager", func(b *testing.B) {
			eng := engine.NewReference(g)
			eng.Forward(x)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Forward(x)
			}
		})
	}
}

// BenchmarkQuantTransformer is BenchmarkPlanQuantVsF32 for the transformer
// benchmarks: B6 (ViT) and B7 (BERT) teachers are pre-trained at paper
// width, quantized under the default accuracy budget — which now covers the
// packed QKV projection alongside the attention-output and FFN linears —
// and executed through the plan engine with and without annotations.
func BenchmarkQuantTransformer(b *testing.B) {
	sc := benchScale()
	sc.WidthScale = 1
	sc.WidthMul = 8
	sc.Train, sc.Test = 32, 32
	sc.PretrainEpochs = 1
	for _, id := range []string{"B6", "B7"} {
		spec, err := bench.SpecByID(id)
		if err != nil {
			b.Fatal(err)
		}
		w, err := bench.Build(spec, sc)
		if err != nil {
			b.Fatal(err)
		}
		quantized := w.Teacher
		rep, err := gmorph.Quantize(quantized, w.Dataset, gmorph.QuantConfig{})
		if err != nil {
			b.Fatal(err)
		}
		f32g := quantized.Clone()
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
		run := func(name string, g *graph.Graph) {
			b.Run(id+"/"+name, func(b *testing.B) {
				eng := engine.Compile(g)
				eng.Forward(x) // bind buffers outside the measurement
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.Forward(x)
				}
				b.ReportMetric(float64(rep.QuantizedOps), "int8-ops")
				b.ReportMetric(rep.Drop, "accuracy-drop")
			})
		}
		run("f32", f32g)
		run("int8", quantized)
	}
}

// BenchmarkPlanQuantVsF32 contrasts the plan executor at int8 versus f32 on
// conv-heavy sim profiles (BENCH_PR5.json records the comparison). Each
// profile's teacher is pre-trained, quantized by quant.Apply under the
// default 1% accuracy budget, and then executed through engine.Compile with
// and without its annotations — same weights, same plan structure, only the
// conv/linear kernels differ. The measured accuracy drop and the number of
// ops left at int8 are reported as custom metrics.
func BenchmarkPlanQuantVsF32(b *testing.B) {
	sc := benchScale()
	// Paper-width profiles: the int8 GEMM's win is memory traffic, so it
	// needs real channel counts (VGG/ResNet 64..512) — at the sim profiles'
	// 8x-reduced widths every GEMM is cache-resident and f32 ties. Width
	// makes pre-training expensive; it is setup, not measurement, so one
	// epoch suffices (the guard's behavior under pressure has its own test).
	sc.WidthScale = 1
	sc.WidthMul = 8
	sc.Train, sc.Test = 32, 32
	sc.PretrainEpochs = 1
	for _, id := range []string{"B2", "B4"} {
		spec, err := bench.SpecByID(id)
		if err != nil {
			b.Fatal(err)
		}
		w, err := bench.Build(spec, sc)
		if err != nil {
			b.Fatal(err)
		}
		quantized := w.Teacher
		rep, err := gmorph.Quantize(quantized, w.Dataset, gmorph.QuantConfig{})
		if err != nil {
			b.Fatal(err)
		}
		f32g := quantized.Clone()
		quant.Strip(f32g)

		x := tensor.New(4, 3, sc.ImgSize, sc.ImgSize)
		tensor.NewRNG(7).FillNormal(x, 0, 1)
		run := func(name string, g *graph.Graph) {
			b.Run(id+"/"+name, func(b *testing.B) {
				eng := engine.Compile(g)
				eng.Forward(x) // bind buffers outside the measurement
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					eng.Forward(x)
				}
				b.ReportMetric(float64(rep.QuantizedOps), "int8-ops")
				b.ReportMetric(rep.Drop, "accuracy-drop")
			})
		}
		run("f32", f32g)
		run("int8", quantized)
	}
}

// BenchmarkFuseSearchDist measures the distributed-search subsystem's two
// wall-clock levers on the PR4 duplicate-heavy fixture (BENCH_PR10.json
// records the comparison against BENCH_PR4):
//
//   - paper-baseline re-runs the PR4 memo configuration unchanged (the
//     reference wall-clock);
//   - memo-warm runs the identical search over a pre-populated persistent
//     memo: every outcome and latency replays, zero fine-tuning runs, and
//     the elites are asserted fingerprint-identical to the baseline's.
func BenchmarkFuseSearchDist(b *testing.B) {
	pr4 := func(seed uint64) gmorph.Config {
		return gmorph.Config{
			AccuracyDrop:    0.10,
			Rounds:          24,
			MaxPairsPerPass: 1,
			FineTuneEpochs:  8,
			LearningRate:    0.003,
			EvalEvery:       2,
			RandomPolicy:    true,
			Seed:            seed,
		}
	}
	world := func(b *testing.B) (*gmorph.Model, *gmorph.Dataset) {
		ds := testutil.TinyFace(141, 64, 32)
		teachers := testutil.TinyMultiDNN(142, ds)
		testutil.PretrainTeachers(teachers, ds, 6, 0.004, 143)
		return teachers, ds
	}
	eliteFps := func(res *gmorph.Result) []string {
		fps := make([]string, len(res.Elites))
		for i, e := range res.Elites {
			fps[i] = gmorph.Fingerprint(e.Graph)
		}
		return fps
	}

	var baselineFps []string
	b.Run("paper-baseline", func(b *testing.B) {
		teachers, ds := world(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := gmorph.Fuse(teachers, ds, pr4(17))
			if err != nil {
				b.Fatal(err)
			}
			baselineFps = eliteFps(res)
			b.ReportMetric(float64(res.Stats.FineTuned), "measured-candidates")
			b.ReportMetric(float64(res.Stats.TotalEpochs), "fine-tune-epochs")
		}
	})

	b.Run("memo-warm", func(b *testing.B) {
		teachers, ds := world(b)
		memoPath := filepath.Join(b.TempDir(), "memo.json")
		warm := pr4(17)
		warm.MemoPath = memoPath
		if _, err := gmorph.Fuse(teachers, ds, warm); err != nil {
			b.Fatal(err) // untimed populating run
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := gmorph.Fuse(teachers, ds, warm)
			if err != nil {
				b.Fatal(err)
			}
			if res.Stats.FineTuned != 0 {
				b.Fatalf("warm replay fine-tuned %d candidates", res.Stats.FineTuned)
			}
			if len(baselineFps) > 0 {
				fps := eliteFps(res)
				if len(fps) != len(baselineFps) {
					b.Fatalf("elite count drifted: %d vs %d", len(fps), len(baselineFps))
				}
				for j := range fps {
					if fps[j] != baselineFps[j] {
						b.Fatalf("elite %d fingerprint drifted", j)
					}
				}
			}
			b.ReportMetric(float64(res.Stats.FineTuned), "measured-candidates")
		}
	})
}
