// Package quant implements post-training int8 quantization with an
// accuracy guard, the repo's analogue of the low-precision compilation
// step GMorph delegates to TensorRT.
//
// Apply works on a trained graph in four stages:
//
//  1. Calibration streams a sample of training inputs through the compiled
//     f32 plan and records, for every quantizable conv/linear op, the
//     absolute maximum and the mean square of its input activations.
//  2. Quantization attaches an nn.Quant8 annotation to each eligible
//     layer: symmetric per-output-channel int8 weights and a per-tensor
//     activation scale. Task heads and depth-limited ops stay f32.
//  3. Re-measurement evaluates every task's metric on held-out data
//     against the full-precision baseline.
//  4. The guard greedily de-quantizes the op with the largest predicted
//     quantization noise until the worst per-task drop fits
//     Config.AccuracyDrop — the same accuracy-aware filtering discipline
//     GMorph applies to fusion candidates, transplanted to precision.
//
// The result is a per-op precision map (Report) and a graph whose
// annotations the plan compiler lowers onto the int8 GEMM (tensor.QGEMMInto).
package quant

import (
	"fmt"
	"sync"

	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/plan"
	"repro/internal/tensor"
)

// Config tunes Apply.
type Config struct {
	// AccuracyDrop is the largest tolerated per-task metric drop versus
	// the f32 baseline (default 0.01).
	AccuracyDrop float64
	// CalibSamples caps how many training samples feed calibration
	// (default 64).
	CalibSamples int
	// Batch is the calibration and evaluation batch size (default 32).
	Batch int
}

func (c Config) withDefaults() Config {
	if c.AccuracyDrop <= 0 {
		c.AccuracyDrop = 0.01
	}
	if c.CalibSamples <= 0 {
		c.CalibSamples = 64
	}
	if c.Batch <= 0 {
		c.Batch = 32
	}
	return c
}

// OpDecision records the final precision choice for one quantizable op.
type OpDecision struct {
	OpID int
	Name string
	Kind string // "conv" or "linear"
	// Precision is "int8" or "f32".
	Precision string
	// Reason explains the choice: "quantized", "head output", "accuracy
	// guard", or "no calibration data".
	Reason string
	// InScale is the calibrated activation scale (0 when never quantized).
	InScale float32
	// ErrScore is the predicted relative quantization noise power used to
	// order guard removals (input term + weight term).
	ErrScore float64
}

// Report is Apply's outcome.
type Report struct {
	// Ops lists every quantizable op in plan order with its final state.
	Ops []OpDecision
	// Baseline and Quantized map task id to the held-out metric before
	// and after quantization.
	Baseline, Quantized map[int]float64
	// Drop is the worst per-task metric drop of the final configuration.
	Drop float64
	// QuantizedOps counts ops left at int8; DequantizedOps counts ops the
	// guard reverted to f32.
	QuantizedOps, DequantizedOps int
}

// Apply quantizes g in place: it strips any stale annotations, calibrates
// on ds.Train, quantizes every eligible conv/linear, then enforces the
// accuracy budget against ds.Test, recording the outcome in g.Quant and
// the returned report. The graph's weights are never modified — only
// annotations are attached — so de-quantization is exact.
func Apply(g *graph.Graph, ds *data.Dataset, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if ds.Train.Len() == 0 || ds.Test.Len() == 0 {
		return nil, fmt.Errorf("quant: dataset %q has an empty split", ds.Name)
	}

	// Strip stale annotations so calibration and the baseline both run at
	// full precision, then compile the worklist.
	p := plan.Compile(g)
	for _, t := range p.QuantTargets {
		*nn.QuantSlot(t.Layer) = nil
	}
	p = plan.Compile(g)
	inst := p.NewInstance()

	baseline, err := ds.ScoreTest(inst.Execute, cfg.Batch)
	if err != nil {
		return nil, err
	}

	stats := calibrate(inst, p, ds, cfg)

	// Quantize every eligible target and score its expected damage.
	rep := &Report{Baseline: baseline}
	targets := make(map[int]*plan.QuantTarget, len(p.QuantTargets))
	for i := range p.QuantTargets {
		t := &p.QuantTargets[i]
		targets[t.OpID] = t
		d := OpDecision{OpID: t.OpID, Name: t.Name, Kind: t.Kind, Precision: "f32"}
		switch st := stats[t.OpID]; {
		case t.Head:
			d.Reason = "head output"
		case st == nil || st.count == 0:
			d.Reason = "no calibration data"
		default:
			q, score := quantizeTarget(t, st)
			*nn.QuantSlot(t.Layer) = q
			d.Precision, d.Reason = "int8", "quantized"
			d.InScale, d.ErrScore = q.InScale, score
			rep.QuantizedOps++
		}
		rep.Ops = append(rep.Ops, d)
	}

	// Accuracy guard: de-quantize worst predicted offenders until the
	// measured drop fits the budget.
	var acc map[int]float64
	for {
		acc, err = ds.ScoreTest(plan.Compile(g).NewInstance().Execute, cfg.Batch)
		if err != nil {
			return nil, err
		}
		rep.Drop = maxDrop(baseline, acc)
		if rep.Drop <= cfg.AccuracyDrop {
			break
		}
		worst := -1
		for i := range rep.Ops {
			d := &rep.Ops[i]
			if d.Precision == "int8" && (worst < 0 || d.ErrScore > rep.Ops[worst].ErrScore) {
				worst = i
			}
		}
		if worst < 0 {
			break // nothing left to revert; the residual drop is noise
		}
		d := &rep.Ops[worst]
		*nn.QuantSlot(targets[d.OpID].Layer) = nil
		d.Precision = "f32"
		d.Reason = fmt.Sprintf("accuracy guard (drop %.4f > budget %.4f)", rep.Drop, cfg.AccuracyDrop)
		rep.QuantizedOps--
		rep.DequantizedOps++
	}
	rep.Quantized = acc
	g.Quant = &graph.QuantNote{Budget: cfg.AccuracyDrop, Baseline: baseline, Quantized: acc}
	return rep, nil
}

// maxDrop returns the largest per-task metric regression.
func maxDrop(baseline, acc map[int]float64) float64 {
	var m float64
	for id, b := range baseline {
		if d := b - acc[id]; d > m {
			m = d
		}
	}
	return m
}

// calibStat accumulates one op's activation statistics across calibration
// batches. Ops sharing a wave observe concurrently, hence the mutex.
type calibStat struct {
	mu     sync.Mutex
	absMax float32
	sumSq  float64
	count  int64
}

// calibrate streams training samples through the f32 instance with an
// observer recording per-target-op input ranges.
func calibrate(inst *plan.Instance, p *plan.Plan, ds *data.Dataset, cfg Config) map[int]*calibStat {
	stats := make(map[int]*calibStat, len(p.QuantTargets))
	for _, t := range p.QuantTargets {
		if !t.Head {
			stats[t.OpID] = &calibStat{}
		}
	}
	inst.SetObserver(func(opID int, in *tensor.Tensor) {
		st := stats[opID]
		if st == nil {
			return
		}
		var m float32
		var ss float64
		for _, v := range in.Data() {
			if v < 0 {
				v = -v
			}
			if v > m {
				m = v
			}
			ss += float64(v) * float64(v)
		}
		st.mu.Lock()
		if m > st.absMax {
			st.absMax = m
		}
		st.sumSq += ss
		st.count += int64(in.Size())
		st.mu.Unlock()
	})
	n := min(cfg.CalibSamples, ds.Train.Len())
	for lo := 0; lo < n; lo += cfg.Batch {
		inst.Execute(ds.Train.Batch(lo, min(lo+cfg.Batch, n)))
	}
	inst.SetObserver(nil)
	return stats
}

// quantizeTarget builds the int8 annotation for one target and predicts
// its relative quantization noise power. For a GEMM y = x·w, independent
// rounding noise contributes E[Δy²] ≈ k·(σ²_Δx·E[w²] + σ²_Δw·E[x²]);
// normalizing by the signal power k·E[x²]·E[w²] gives
//
//	score = σ²_Δx/E[x²] + σ²_Δw/E[w²]
//
// with σ²_Δx = InScale²/12 (uniform rounding noise) and the weight term
// measured exactly from the round-trip error. The guard uses the score
// only to order removals; accuracy is always re-measured.
func quantizeTarget(t *plan.QuantTarget, st *calibStat) (*nn.Quant8, float64) {
	w := t.W.Data()
	if t.Kind == "linear" {
		// The live linear weight is [K, Rows]; the kernel wants [Rows, K].
		wt := make([]float32, t.Rows*t.K)
		for p := 0; p < t.K; p++ {
			row := w[p*t.Rows : (p+1)*t.Rows]
			for j, v := range row {
				wt[j*t.K+p] = v
			}
		}
		w = wt
	}
	q8, scales := tensor.QuantizeChannelsI8(w, t.Rows, t.K)
	q := &nn.Quant8{
		Rows: t.Rows, K: t.K, W: q8, WScale: scales,
		Bias:    append([]float32(nil), t.Bias...),
		InScale: tensor.QuantScale(st.absMax),
	}
	var wErr, wPow float64
	for i, v := range w {
		back := float64(q8[i]) * float64(scales[i/t.K])
		d := float64(v) - back
		wErr += d * d
		wPow += float64(v) * float64(v)
	}
	score := 0.0
	if wPow > 0 {
		score += wErr / wPow
	}
	if st.count > 0 {
		if xPow := st.sumSq / float64(st.count); xPow > 0 {
			s := float64(q.InScale)
			score += s * s / 12 / xPow
		}
	}
	return q, score
}

// QuantizedOps reports how many ops of g's compiled plan execute at int8 —
// zero for an unquantized (or fully guarded-back) model.
func QuantizedOps(g *graph.Graph) int {
	n := 0
	for _, o := range plan.Compile(g).Ops {
		if o.Precision() == "int8" {
			n++
		}
	}
	return n
}

// Strip removes every int8 annotation from g (and its QuantNote) so the
// next Compile lowers a pure-f32 plan, returning how many annotations were
// removed. Weights are untouched — quantization never modifies them.
func Strip(g *graph.Graph) int {
	n := 0
	for _, t := range plan.Compile(g).QuantTargets {
		if s := nn.QuantSlot(t.Layer); *s != nil {
			*s = nil
			n++
		}
	}
	g.Quant = nil
	return n
}
