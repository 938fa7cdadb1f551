package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/distill"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/mtl"
	"repro/internal/mutation"
	"repro/internal/tensor"
)

// GMorph variant names used across experiments.
const (
	VariantPlain  = "GMorph"
	VariantP      = "GMorph w P"
	VariantPR     = "GMorph w P+R"
	VariantRandom = "Random Sampling"
)

// accOptions translates a variant name into accuracy-estimator options.
func (w *Workload) accOptions(variant string) core.AccuracyOptions {
	opts := core.AccuracyOptions{FineTune: w.FineTuneConfig(), Slack: 0.04}
	switch variant {
	case VariantP:
		opts.UseEarlyTermination = true
	case VariantPR:
		opts.UseEarlyTermination = true
		opts.UseRuleFilter = true
	}
	return opts
}

// Search runs one GMorph search over the workload with the given accuracy
// drop threshold and variant; the result carries the original graph's
// measured latency (OriginalLatency).
func (w *Workload) Search(drop float64, variant string, rounds int, seed uint64) *core.Result {
	var policy core.Policy = core.NewSAPolicy()
	if variant == VariantRandom {
		policy = core.RandomPolicy{}
	}
	return w.search(drop, variant, core.Config{Rounds: rounds, Policy: policy, Seed: seed})
}

// search runs the optimizer (Algorithm 1: one candidate per round, one
// in-process evaluator slot).
func (w *Workload) search(drop float64, variant string, cfg core.Config) *core.Result {
	return core.NewOptimizer(w.Teacher, w.Dataset, w.Targets(drop), w.Outputs,
		w.Dataset.Train.X, w.accOptions(variant), cfg).Run()
}

// --- Figure 1 ---------------------------------------------------------------

// Fig1Point is one randomly fused multi-task model: its inference speedup
// over the original models and the maximum per-task accuracy drop after
// fine-tuning. Similar records whether the sharing pair had compatible
// input shapes (red points) or completely different shapes (blue points).
type Fig1Point struct {
	Speedup float64
	Drop    float64
	Similar bool
}

// differentShapePairs enumerates node pairs in the same domain whose input
// shapes share no dimension — the "completely different input shape"
// condition of Figure 1's blue points.
func differentShapePairs(g *graph.Graph) []graph.Pair {
	nodes := g.Nodes()
	var pairs []graph.Pair
	for _, host := range nodes {
		if host.Domain == graph.DomainRaw || host.IsRescale() {
			continue
		}
		for _, guest := range nodes {
			if guest == host || guest.Domain != host.Domain || guest.IsRescale() {
				continue
			}
			if host.InputShape.Similar(guest.InputShape) {
				continue
			}
			if guest.Parent == host.Parent || guest.Parent == nil {
				continue
			}
			pairs = append(pairs, graph.Pair{Host: host, Guest: guest})
		}
	}
	return pairs
}

// RunFigure1 reproduces the motivation study: it samples `samples` random
// fusions per shape condition on the given benchmark, fine-tunes each, and
// reports speedup vs accuracy drop. With three-task benchmarks two sharing
// actions are applied, as in the paper.
func RunFigure1(spec Spec, sc Scale, samples int) ([]Fig1Point, error) {
	w, err := Build(spec, sc)
	if err != nil {
		return nil, err
	}
	origLat := engine.Latency(w.Teacher)
	rng := tensor.NewRNG(sc.Seed ^ 0xF16)
	mut := mutation.NewMutator(rng.Split())
	// Impossible targets keep fine-tuning running to the epoch budget so
	// every sample is trained to (approximate) convergence before its
	// accuracy drop is measured.
	eval := &distill.Evaluator{Dataset: w.Dataset, Targets: w.Targets(-10)}
	var points []Fig1Point

	actions := len(spec.Tasks) - 1 // paper: 2 actions for 3 DNNs, 1 for 2
	for _, similar := range []bool{true, false} {
		for s := 0; s < samples; s++ {
			var pool []graph.Pair
			if similar {
				pool = w.Teacher.ShareablePairs()
			} else {
				pool = differentShapePairs(w.Teacher)
			}
			if len(pool) == 0 {
				continue
			}
			chosen := make([]graph.Pair, 0, actions)
			for i := 0; i < actions; i++ {
				chosen = append(chosen, pool[rng.Intn(len(pool))])
			}
			res, err := mut.Apply(w.Teacher, chosen)
			if err != nil {
				continue
			}
			cfg := w.FineTuneConfig()
			cfg.Seed = rng.Uint64()
			rep := distill.FineTune(res.Graph, w.Dataset.Train.X, w.Outputs, eval, cfg, nil)
			lat := engine.Latency(res.Graph)
			drop := maxDrop(w.TeacherAcc, rep.Final)
			points = append(points, Fig1Point{
				Speedup: float64(origLat) / float64(lat),
				Drop:    drop,
				Similar: similar,
			})
		}
	}
	return points, nil
}

// maxDrop is the maximum per-task accuracy drop relative to the teachers.
func maxDrop(teacher, final map[int]float64) float64 {
	var worst float64
	for id, t := range teacher {
		d := t - final[id]
		if d > worst {
			worst = d
		}
	}
	return worst
}

// --- Figure 2 ---------------------------------------------------------------

// Fig2Point is one well-trained multi-task model: its speedup, the
// fine-tuning time it needed, and whether it was mutated from an elite
// candidate ("From another") or the original multi-DNNs ("From original").
type Fig2Point struct {
	Speedup         float64
	FineTuneSeconds float64
	FromElite       bool
}

// RunFigure2 reproduces the fine-tuning cost study on B1-style workloads:
// it runs the SA search and reports, for every candidate that met the drop
// threshold, its fine-tune time and speedup, split by mutation source.
func RunFigure2(sc Scale, drop float64) ([]Fig2Point, error) {
	spec, err := SpecByID("B1")
	if err != nil {
		return nil, err
	}
	w, err := Build(spec, sc)
	if err != nil {
		return nil, err
	}
	res := w.Search(drop, VariantPlain, sc.Rounds, sc.Seed^0xF2)
	var points []Fig2Point
	for _, e := range res.Elites {
		points = append(points, Fig2Point{
			Speedup:         float64(res.OriginalLatency) / float64(e.Latency),
			FineTuneSeconds: e.FineTuneTime.Seconds(),
			FromElite:       e.FromElite,
		})
	}
	return points, nil
}

// --- Figure 3 ---------------------------------------------------------------

// Fig3Result holds the accuracy-drop distribution of two fixed multi-task
// architectures across many weight initializations.
type Fig3Result struct {
	// Drops[arch] lists the accuracy drop of each initialization.
	Drops [2][]float64
}

// RunFigure3 reproduces the initialization study: two fixed mutated
// architectures derived from a 2-task VGG-13 pair are fine-tuned from
// `inits` different weight initializations each; the spread of accuracy
// drops demonstrates why architecture-only accuracy prediction fails.
func RunFigure3(sc Scale, inits int) (*Fig3Result, error) {
	spec := Spec{ID: "B1a", App: "Vision Support", Family: "face", Tasks: []TaskDef{
		{Name: "age", Arch: models.VGG13}, {Name: "gender", Arch: models.VGG13},
	}}
	w, err := Build(spec, sc)
	if err != nil {
		return nil, err
	}
	eval := &distill.Evaluator{Dataset: w.Dataset, Targets: w.Targets(-10)}
	res := &Fig3Result{}
	// Architecture 1: share at a shallow block; architecture 2: deeper.
	pairs := w.Teacher.ShareablePairs()
	var shallow, deep *graph.Pair
	for i := range pairs {
		p := pairs[i]
		if p.Host.TaskID == 0 && p.Guest.TaskID == 1 && p.Host.OpID == p.Guest.OpID {
			if p.Host.OpID == 2 && shallow == nil {
				shallow = &pairs[i]
			}
			if p.Host.OpID >= 5 && deep == nil {
				deep = &pairs[i]
			}
		}
	}
	if shallow == nil || deep == nil {
		return nil, fmt.Errorf("bench: figure 3 fixture pairs not found")
	}
	for ai, pair := range []*graph.Pair{shallow, deep} {
		for s := 0; s < inits; s++ {
			rng := tensor.NewRNG(sc.Seed ^ uint64(ai*1000+s+7))
			mut := mutation.NewMutator(rng)
			mres, err := mut.Apply(w.Teacher, []graph.Pair{*pair})
			if err != nil {
				return nil, err
			}
			// Different initialization: perturb the inherited weights with
			// seed-dependent noise, mimicking inheritance from different
			// base candidates.
			for _, p := range mres.Graph.Params() {
				d := p.Value.Data()
				for i := range d {
					d[i] += 0.02 * float32(rng.NormFloat64())
				}
			}
			cfg := w.FineTuneConfig()
			cfg.Seed = rng.Uint64()
			rep := distill.FineTune(mres.Graph, w.Dataset.Train.X, w.Outputs, eval, cfg, nil)
			res.Drops[ai] = append(res.Drops[ai], maxDrop(w.TeacherAcc, rep.Final))
		}
	}
	return res, nil
}

// --- Figure 7 / Tables 7-9 ---------------------------------------------------

// VariantOutcome summarizes one (benchmark, drop, variant) search.
type VariantOutcome struct {
	Variant string
	// Found reports whether any candidate met the targets.
	Found bool
	// LatencyMS is the best model's latency (the original's when !Found).
	LatencyMS float64
	// Speedup is original/best.
	Speedup float64
	// SearchSeconds is the total search time (Table 5's ST column).
	SearchSeconds float64
	// BestAccuracy is the winning model's per-task metric.
	BestAccuracy map[int]float64
	// Evaluated, Skipped, Terminated count candidate dispositions.
	Evaluated, Skipped, Terminated int
	// Best is the winning model (nil when !Found).
	Best *core.Elite
	// Traces are the per-round records (Figure 8 curves).
	Traces []core.Trace
}

// Fig7Row is one benchmark at one drop threshold across GMorph variants.
type Fig7Row struct {
	Bench      string
	Drop       float64
	OriginalMS float64
	Outcomes   []VariantOutcome
}

// RunFigure7 reproduces the headline speedup grid: for each requested
// benchmark, drop threshold, and variant it runs the search and reports
// normalized latency. Table 5's search times and Tables 7-9's latencies
// fall out of the same rows.
func RunFigure7(benchIDs []string, drops []float64, variants []string, sc Scale) ([]Fig7Row, error) {
	var rows []Fig7Row
	for _, id := range benchIDs {
		spec, err := SpecByID(id)
		if err != nil {
			return nil, err
		}
		w, err := Build(spec, sc)
		if err != nil {
			return nil, err
		}
		origLat := engine.Latency(w.Teacher)
		for _, drop := range drops {
			row := Fig7Row{Bench: id, Drop: drop, OriginalMS: ms(origLat)}
			for _, v := range variants {
				// All variants share one seed so the candidate streams are
				// identical until filtering changes the elite pool.
				res := w.Search(drop, v, sc.Rounds, sc.Seed^0xF7)
				out := VariantOutcome{
					Variant:       v,
					SearchSeconds: res.SearchTime.Seconds(),
					Evaluated:     res.Evaluated,
					Traces:        res.Traces,
				}
				for _, tr := range res.Traces {
					if tr.Skipped() {
						out.Skipped++
					}
					if tr.Terminated {
						out.Terminated++
					}
				}
				if res.Best != nil {
					out.Found = true
					out.LatencyMS = ms(res.Best.Latency)
					out.Speedup = float64(origLat) / float64(res.Best.Latency)
					out.BestAccuracy = res.Best.Accuracy
					out.Best = res.Best
				} else {
					out.LatencyMS = ms(origLat)
					out.Speedup = 1
				}
				row.Outcomes = append(row.Outcomes, out)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// --- Figure 8 ---------------------------------------------------------------

// Fig8Curve is the best-latency-so-far trajectory of one variant.
type Fig8Curve struct {
	Variant string
	// Seconds[i] / LatencyMS[i] sample the trajectory after round i.
	Seconds   []float64
	LatencyMS []float64
}

// RunFigure8 reproduces the search-convergence study on B1: all three
// GMorph variants plus random sampling, at one drop threshold.
func RunFigure8(sc Scale, drop float64) ([]Fig8Curve, error) {
	spec, err := SpecByID("B1")
	if err != nil {
		return nil, err
	}
	w, err := Build(spec, sc)
	if err != nil {
		return nil, err
	}
	origLat := engine.Latency(w.Teacher)
	var curves []Fig8Curve
	for vi, v := range []string{VariantPlain, VariantP, VariantPR, VariantRandom} {
		res := w.Search(drop, v, sc.Rounds, sc.Seed^uint64(0xF8+vi))
		c := Fig8Curve{Variant: v}
		for _, tr := range res.Traces {
			c.Seconds = append(c.Seconds, tr.Elapsed.Seconds())
			best := tr.BestLatency
			if best == 0 {
				best = origLat
			}
			c.LatencyMS = append(c.LatencyMS, ms(best))
		}
		curves = append(curves, c)
	}
	return curves, nil
}

// --- Table 3 -----------------------------------------------------------------

// Table3Row compares the original multi-DNNs and GMorph's best model under
// both execution engines.
type Table3Row struct {
	Bench string
	// Reference engine latencies (the "PyTorch" column).
	RefOriginalMS, RefGMorphMS float64
	// Fused engine latencies (the "TensorRT" column).
	FusedOriginalMS, FusedGMorphMS float64
	// Speedups under each engine.
	RefSpeedup, FusedSpeedup float64
}

// RunTable3 reproduces the compiler-complementarity study: the best model
// found within the drop threshold is compiled with the fused engine and
// compared against the original models under both engines, each timed by
// engine.Measure (batch 1).
func RunTable3(benchIDs []string, drop float64, sc Scale) ([]Table3Row, error) {
	var rows []Table3Row
	for _, id := range benchIDs {
		spec, err := SpecByID(id)
		if err != nil {
			return nil, err
		}
		w, err := Build(spec, sc)
		if err != nil {
			return nil, err
		}
		res := w.Search(drop, VariantPlain, sc.Rounds, sc.Seed^0x73)
		best := w.Teacher
		if res.Best != nil {
			best = res.Best.Graph
		}
		shape := w.Teacher.Root.InputShape
		row := Table3Row{Bench: id}
		row.RefOriginalMS = ms(engine.Measure(engine.NewReference(w.Teacher), shape))
		row.RefGMorphMS = ms(engine.Measure(engine.NewReference(best), shape))
		row.FusedOriginalMS = ms(engine.Measure(engine.Compile(w.Teacher), shape))
		row.FusedGMorphMS = ms(engine.Measure(engine.Compile(best), shape))
		row.RefSpeedup = row.RefOriginalMS / row.RefGMorphMS
		row.FusedSpeedup = row.FusedOriginalMS / row.FusedGMorphMS
		rows = append(rows, row)
	}
	return rows, nil
}

// --- Table 4 -----------------------------------------------------------------

// Table4Row compares MTL baselines against GMorph on one benchmark.
type Table4Row struct {
	Bench string
	// Applicable is false when MTL cannot share anything (entirely
	// different backbones), the "-" cells of the paper's table.
	Applicable                      bool
	AllSharedDrop, AllSharedSpeedup float64
	TreeMTLDrop, TreeMTLSpeedup     float64
	GMorphDrop, GMorphSpeedup       float64
}

// RunTable4 reproduces the MTL comparison: All-shared and TreeMTL models
// are built over the common prefix, trained with the same distillation
// loop, and compared with GMorph's best model at the given drop threshold.
func RunTable4(benchIDs []string, drop float64, sc Scale) ([]Table4Row, error) {
	var rows []Table4Row
	for _, id := range benchIDs {
		spec, err := SpecByID(id)
		if err != nil {
			return nil, err
		}
		w, err := Build(spec, sc)
		if err != nil {
			return nil, err
		}
		origLat := engine.Latency(w.Teacher)
		row := Table4Row{Bench: id}

		prefix := mtl.CommonPrefixLen(w.Teacher)
		row.Applicable = prefix > 0
		trainBaseline := func(g *graph.Graph) (float64, float64) {
			cfg := w.FineTuneConfig()
			cfg.Seed = sc.Seed ^ 0x74
			// Baselines train to convergence (no early stop on target):
			// impossible targets keep the loop running to cfg.Epochs.
			impossible := &distill.Evaluator{Dataset: w.Dataset, Targets: w.Targets(-10)}
			rep := distill.FineTune(g, w.Dataset.Train.X, w.Outputs, impossible, cfg, nil)
			lat := engine.Latency(g)
			return maxDrop(w.TeacherAcc, rep.Final), float64(origLat) / float64(lat)
		}
		if row.Applicable {
			shared, err := mtl.AllShared(w.Teacher)
			if err != nil {
				return nil, err
			}
			row.AllSharedDrop, row.AllSharedSpeedup = trainBaseline(shared)
			recs, err := mtl.TreeMTL(w.Teacher)
			if err != nil {
				return nil, err
			}
			row.TreeMTLDrop, row.TreeMTLSpeedup = trainBaseline(recs[0].Graph)
		}

		res := w.Search(drop, VariantPlain, sc.Rounds, sc.Seed^0x75)
		if res.Best != nil {
			row.GMorphDrop = maxDrop(w.TeacherAcc, res.Best.Accuracy)
			row.GMorphSpeedup = float64(origLat) / float64(res.Best.Latency)
		} else {
			row.GMorphSpeedup = 1
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// --- Table 5 -----------------------------------------------------------------

// Table5Row reports search time and savings of the filtering variants for
// one benchmark at one drop threshold.
type Table5Row struct {
	Bench string
	Drop  float64
	// Seconds maps variant name to search time.
	Seconds map[string]float64
	// Savings maps variant name to fraction saved vs plain GMorph.
	Savings map[string]float64
}

// Table5FromFig7 derives Table 5 from Figure 7 rows (the searches are the
// same; the paper's Table 5 reports their durations).
func Table5FromFig7(rows []Fig7Row) []Table5Row {
	var out []Table5Row
	for _, r := range rows {
		t5 := Table5Row{Bench: r.Bench, Drop: r.Drop,
			Seconds: map[string]float64{}, Savings: map[string]float64{}}
		var plain float64
		for _, o := range r.Outcomes {
			t5.Seconds[o.Variant] = o.SearchSeconds
			if o.Variant == VariantPlain {
				plain = o.SearchSeconds
			}
		}
		for v, s := range t5.Seconds {
			if plain > 0 {
				t5.Savings[v] = 1 - s/plain
			}
		}
		out = append(out, t5)
	}
	return out
}
