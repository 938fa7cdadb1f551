// Package distill implements GMorph's distillation-based fine-tuning
// (Section 5.2): a mutated multi-task model is trained to reproduce the
// output features of the original task-specific DNNs under a weighted
// per-task l1 loss, so no task labels are needed. Fine-tuning stops early
// once the measured test accuracy meets the user's requirement, or when a
// caller-provided hook (predictive early termination) cancels it.
package distill

import (
	"fmt"
	"math"
	"time"

	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TeacherOutputs holds per-task output features of the original DNNs over
// the representative inputs. They are the distillation ground truth and are
// computed once per benchmark, then reused for every candidate.
type TeacherOutputs map[int]*tensor.Tensor

// ComputeTeacherOutputs runs the teacher graph over x in batches and
// returns the concatenated per-task outputs.
func ComputeTeacherOutputs(teacher *graph.Graph, x *tensor.Tensor, batch int) TeacherOutputs {
	n := x.Dim(0)
	if batch <= 0 || batch > n {
		batch = n
	}
	out := make(TeacherOutputs)
	for lo := 0; lo < n; lo += batch {
		hi := lo + batch
		if hi > n {
			hi = n
		}
		xb, handle := sliceBatch(x, lo, hi)
		res := teacher.Forward(xb, false)
		for id, o := range res {
			dst, ok := out[id]
			if !ok {
				shape := append([]int{n}, o.Shape()[1:]...)
				dst = tensor.New(shape...)
				out[id] = dst
			}
			per := o.Size() / o.Dim(0)
			copy(dst.Data()[lo*per:hi*per], o.Data())
		}
		tensor.PutBuf(handle)
	}
	return out
}

// sliceBatch copies rows [lo,hi) of x into a tensor drawn from the arena;
// the handle must be released with tensor.PutBuf once the batch is dead.
func sliceBatch(x *tensor.Tensor, lo, hi int) (*tensor.Tensor, *[]float32) {
	shape := append([]int{hi - lo}, x.Shape()[1:]...)
	per := 1
	for _, d := range x.Shape()[1:] {
		per *= d
	}
	out, handle := tensor.GetTensorDirty(shape...)
	copy(out.Data(), x.Data()[lo*per:hi*per])
	return out, handle
}

// Config controls one fine-tuning run. The defaults mirror the paper's
// optimization parameters scaled to the sim substrate.
type Config struct {
	// LR is the Adam learning rate (the paper reuses the teachers' training
	// rate, taking the minimum across tasks when they differ).
	LR float32
	// Epochs bounds the fine-tuning length.
	Epochs int
	// Batch is the minibatch size.
	Batch int
	// EvalEvery is delta: test accuracy is measured every EvalEvery epochs.
	EvalEvery int
	// Seed shuffles minibatches deterministically.
	Seed uint64
	// WarmEpochs, when in (0, Epochs), marks the run as warm-started: the
	// graph arrives with trained weights inherited from a parent candidate,
	// so the effective epoch budget shrinks to WarmEpochs. A baseline
	// accuracy is measured before training; if the first post-training
	// evaluation falls below that baseline (the mutation destroyed the
	// inherited advantage and a short budget will not recover it), the run
	// falls back to the full Epochs budget. 0 disables warm-start handling.
	WarmEpochs int
}

func (c Config) withDefaults() Config {
	if c.LR == 0 {
		c.LR = 1e-3
	}
	if c.Epochs == 0 {
		c.Epochs = 10
	}
	if c.Batch == 0 {
		c.Batch = 16
	}
	if c.EvalEvery == 0 {
		c.EvalEvery = 1
	}
	return c
}

// Sample is one point of the accuracy learning curve.
type Sample struct {
	Epoch int
	// Accuracy is the per-task test metric.
	Accuracy map[int]float64
	// MinMargin is the minimum over tasks of (accuracy - target); the run
	// meets the requirement when MinMargin >= 0.
	MinMargin float64
}

// Report summarizes a fine-tuning run.
type Report struct {
	// Met reports whether every task reached its target metric.
	Met bool
	// Terminated reports whether the hook cancelled the run early.
	Terminated bool
	// Diverged reports that training produced a non-finite loss and the
	// run was aborted; the candidate counts as failed.
	Diverged bool
	// EpochsRun counts completed epochs.
	EpochsRun int
	// Final holds the last measured per-task accuracy.
	Final map[int]float64
	// Curve is the accuracy trajectory, one sample per evaluation.
	Curve []Sample
	// TrainTime is the wall-clock spent fine-tuning.
	TrainTime time.Duration
	// FinalLoss is the last epoch's mean distillation loss.
	FinalLoss float64
	// WarmStarted reports that the run used a shrunken warm-start budget
	// (Config.WarmEpochs); the Curve then begins with an Epoch-0 baseline.
	WarmStarted bool
	// WarmFellBack reports that the warm-start guard restored the full
	// epoch budget because the first evaluation regressed below baseline.
	WarmFellBack bool
	// Err is set when evaluation failed (e.g. a metric shape mismatch);
	// the run is aborted and the candidate counts as failed.
	Err error
}

// Hook inspects the learning curve after each evaluation and may cancel
// the run (predictive early termination). Returning true stops training.
type Hook func(curve []Sample) bool

// Evaluator measures a graph's per-task test metric. Targets gives the
// metric threshold each task must reach.
type Evaluator struct {
	Dataset *data.Dataset
	// Targets maps task id to the minimum acceptable metric value.
	Targets map[int]float64
	// Batch is the evaluation batch size (defaults to 32).
	Batch int
}

// Measure computes each task's metric on the test split.
func (e *Evaluator) Measure(g *graph.Graph) (map[int]float64, error) {
	batch := e.Batch
	if batch <= 0 {
		batch = 32
	}
	acc, err := e.Dataset.ScoreTest(func(x *tensor.Tensor) map[int]*tensor.Tensor {
		return g.Forward(x, false)
	}, batch)
	if err != nil {
		return nil, fmt.Errorf("distill: %w", err)
	}
	return acc, nil
}

// MinMargin returns the minimum over tasks of (accuracy - target).
func (e *Evaluator) MinMargin(acc map[int]float64) float64 {
	first := true
	var m float64
	for id, target := range e.Targets {
		d := acc[id] - target
		if first || d < m {
			m = d
			first = false
		}
	}
	return m
}

// FineTune trains g against teacher outputs on the representative inputs x
// (the dataset's train split), evaluating the test metric every EvalEvery
// epochs. It stops as soon as every task meets its target (the paper's
// early-stopping condition), when the hook cancels, or after the epoch
// budget: cfg.Epochs normally, or cfg.WarmEpochs for warm-started runs
// (whose inherited weights are expected to need only a short polish — see
// Config.WarmEpochs for the regression fallback).
func FineTune(g *graph.Graph, x *tensor.Tensor, teacher TeacherOutputs, eval *Evaluator, cfg Config, hook Hook) *Report {
	cfg = cfg.withDefaults()
	start := time.Now()
	rng := tensor.NewRNG(cfg.Seed)
	opt := nn.NewAdam(g.Params(), cfg.LR)
	n := x.Dim(0)
	rep := &Report{Final: make(map[int]float64)}

	budget := cfg.Epochs
	var warmBaseline float64
	if cfg.WarmEpochs > 0 && cfg.WarmEpochs < cfg.Epochs {
		// Warm start: measure where the inherited weights already stand.
		// Meeting the targets outright is the paper's direct weight transfer
		// at its best — zero fine-tuning epochs.
		acc, err := eval.Measure(g)
		if err != nil {
			rep.Err = err
			rep.TrainTime = time.Since(start)
			return rep
		}
		warmBaseline = eval.MinMargin(acc)
		rep.WarmStarted = true
		rep.Final = acc
		rep.Curve = append(rep.Curve, Sample{Epoch: 0, Accuracy: acc, MinMargin: warmBaseline})
		if warmBaseline >= 0 {
			rep.Met = true
			rep.TrainTime = time.Since(start)
			return rep
		}
		budget = cfg.WarmEpochs
	}

	warmChecked := false
	for epoch := 1; epoch <= budget; epoch++ {
		perm := rng.Perm(n)
		var epochLoss float64
		var batches int
		for lo := 0; lo < n; lo += cfg.Batch {
			hi := lo + cfg.Batch
			if hi > n {
				hi = n
			}
			xb, xh := gatherRows(x, perm[lo:hi])
			opt.ZeroGrad()
			outs := g.Forward(xb, true)
			grads := make(map[int]*tensor.Tensor, len(outs))
			for id, o := range outs {
				tb, th := gatherRows(teacher[id], perm[lo:hi])
				l, gr := nn.L1Loss(o, tb)
				tensor.PutBuf(th)
				epochLoss += l
				grads[id] = gr
			}
			batches++
			if math.IsNaN(epochLoss) || math.IsInf(epochLoss, 0) {
				// Diverged (e.g. too-high learning rate on an unstable
				// mutation): abort; the candidate is non-promising.
				tensor.PutBuf(xh)
				rep.Diverged = true
				rep.TrainTime = time.Since(start)
				return rep
			}
			g.Backward(grads)
			opt.Step()
			// The layers cached xb for the backward pass, so the buffer can
			// only return to the arena after Backward has consumed it.
			tensor.PutBuf(xh)
		}
		rep.EpochsRun = epoch
		rep.FinalLoss = epochLoss / float64(batches)

		if epoch%cfg.EvalEvery == 0 || epoch == budget {
			acc, err := eval.Measure(g)
			if err != nil {
				rep.Err = err
				rep.TrainTime = time.Since(start)
				return rep
			}
			margin := eval.MinMargin(acc)
			rep.Final = acc
			rep.Curve = append(rep.Curve, Sample{Epoch: epoch, Accuracy: acc, MinMargin: margin})
			if margin >= 0 {
				rep.Met = true
				break
			}
			if rep.WarmStarted && !warmChecked {
				// Guard on the first post-training evaluation: a margin below
				// the pre-training baseline means training is digging out of
				// a hole, not polishing inherited weights — give the run the
				// full budget.
				warmChecked = true
				if margin < warmBaseline {
					rep.WarmFellBack = true
					budget = cfg.Epochs
				}
			}
			if hook != nil && hook(rep.Curve) {
				rep.Terminated = true
				break
			}
		}
	}
	rep.TrainTime = time.Since(start)
	return rep
}

// gatherRows copies the given rows of x into a tensor drawn from the arena.
// Fine-tuning gathers one input and one teacher batch per minibatch per
// epoch — recycled here, those would be the search's dominant allocation
// source. The handle must be released with tensor.PutBuf.
func gatherRows(x *tensor.Tensor, rows []int) (*tensor.Tensor, *[]float32) {
	per := x.Size() / x.Dim(0)
	out, handle := tensor.GetTensorDirty(append([]int{len(rows)}, x.Shape()[1:]...)...)
	for i, r := range rows {
		copy(out.Data()[i*per:(i+1)*per], x.Data()[r*per:(r+1)*per])
	}
	return out, handle
}
