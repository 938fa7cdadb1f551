// Package distill is the one trainer. FineTune is GMorph's
// distillation-based fine-tuning (Section 5.2): a mutated multi-task model
// is trained to reproduce the output features of the original task-specific
// DNNs under a per-task l1 loss, so no task labels are needed. Fine-tuning
// stops early once the measured test accuracy meets the user's requirement,
// or when a caller-provided hook (predictive early termination) cancels it.
// Pretrain trains the teachers themselves on the task labels. Both run the
// same minibatch loop (trainer) and differ only in the loss.
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
	return data.ForwardBatches(x, batch, func(xb *tensor.Tensor) map[int]*tensor.Tensor {
		return teacher.Forward(xb, false)
	})
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

// Report summarizes a fine-tuning run. It is also the report a search
// worker's /eval reply carries: JSON writes Final's task ids as decimal
// strings and TrainTime as nanoseconds.
type Report struct {
	// Met reports whether every task reached its target metric.
	Met bool `json:"met"`
	// Terminated reports whether the hook cancelled the run early.
	Terminated bool `json:"terminated"`
	// Diverged reports that training produced a non-finite loss and the
	// run was aborted; the candidate counts as failed.
	Diverged bool `json:"diverged"`
	// EpochsRun counts completed epochs.
	EpochsRun int `json:"epochs_run"`
	// Final holds the last measured per-task accuracy.
	Final map[int]float64 `json:"final,omitempty"`
	// Curve is the accuracy trajectory, one sample per evaluation. It
	// stays with the process that trained.
	Curve []Sample `json:"-"`
	// TrainTime is the wall-clock spent fine-tuning.
	TrainTime time.Duration `json:"train_ns"`
	// FinalLoss is the last epoch's mean distillation loss.
	FinalLoss float64 `json:"final_loss"`
	// WarmStarted reports that the run used a shrunken warm-start budget
	// (Config.WarmEpochs); the Curve then begins with an Epoch-0 baseline.
	WarmStarted bool `json:"warm_started"`
	// WarmFellBack reports that the warm-start guard restored the full
	// epoch budget because the first evaluation regressed below baseline.
	WarmFellBack bool `json:"warm_fell_back"`
	// Err is set when evaluation failed (e.g. a metric shape mismatch);
	// the run is aborted and the candidate counts as failed.
	Err string `json:"err,omitempty"`
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
	tr := newTrainer(g, x, cfg.Batch, cfg.LR, cfg.Seed, func(id int, out *tensor.Tensor, rows []int) (float64, *tensor.Tensor) {
		tb, th := gatherRows(teacher[id], rows)
		defer tensor.PutBuf(th)
		return nn.L1Loss(out, tb)
	})
	rep := &Report{Final: make(map[int]float64)}

	budget := cfg.Epochs
	var warmBaseline float64
	if cfg.WarmEpochs > 0 && cfg.WarmEpochs < cfg.Epochs {
		// Warm start: measure where the inherited weights already stand.
		// Meeting the targets outright is the paper's direct weight transfer
		// at its best — zero fine-tuning epochs.
		acc, err := eval.Measure(g)
		if err != nil {
			rep.Err = err.Error()
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
		loss, ok := tr.epoch()
		if !ok {
			// Diverged (e.g. too-high learning rate on an unstable
			// mutation): abort; the candidate is non-promising.
			rep.Diverged = true
			rep.TrainTime = time.Since(start)
			return rep
		}
		rep.EpochsRun = epoch
		rep.FinalLoss = loss

		if epoch%cfg.EvalEvery == 0 || epoch == budget {
			acc, err := eval.Measure(g)
			if err != nil {
				rep.Err = err.Error()
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

// Pretrain trains g's branches on ds's task labels for epochs epochs —
// cross entropy, or BCE for multi-label tasks — in minibatches of 16, and
// returns each task's test metric. It stands in for the paper's downloaded
// pre-trained checkpoints. A non-finite loss stops it with an error.
func Pretrain(g *graph.Graph, ds *data.Dataset, epochs int, lr float32, seed uint64) (map[int]float64, error) {
	train := ds.Train
	tr := newTrainer(g, train.X, 16, lr, seed, func(id int, out *tensor.Tensor, rows []int) (float64, *tensor.Tensor) {
		if ds.Tasks[id].Kind == data.MultiLabel {
			multi := make([][]int, len(rows))
			for i, r := range rows {
				multi[i] = train.Multi[id][r]
			}
			return nn.BCEWithLogitsLoss(out, multi)
		}
		labels := make([]int, len(rows))
		for i, r := range rows {
			labels[i] = train.Labels[id][r]
		}
		return nn.CrossEntropyLoss(out, labels)
	})
	for e := 1; e <= epochs; e++ {
		if _, ok := tr.epoch(); !ok {
			return nil, fmt.Errorf("distill: pre-training diverged in epoch %d", e)
		}
	}
	return (&Evaluator{Dataset: ds}).Measure(g)
}

// lossFunc returns task id's loss and its gradient with respect to out,
// the task's output over the minibatch of the given rows of x.
type lossFunc func(id int, out *tensor.Tensor, rows []int) (float64, *tensor.Tensor)

// trainer is the one minibatch training loop, FineTune's and Pretrain's.
type trainer struct {
	g     *graph.Graph
	x     *tensor.Tensor
	batch int
	rng   *tensor.RNG
	opt   *nn.Adam
	loss  lossFunc
}

func newTrainer(g *graph.Graph, x *tensor.Tensor, batch int, lr float32, seed uint64, loss lossFunc) *trainer {
	return &trainer{g: g, x: x, batch: batch, rng: tensor.NewRNG(seed), opt: nn.NewAdam(g.Params(), lr), loss: loss}
}

// epoch shuffles x's rows with one rng.Perm and, for each minibatch of
// batch rows, runs ZeroGrad → Forward(train) → loss per task → Backward →
// Step. It returns the mean over minibatches of the summed task losses,
// or false, before any step on that batch, once the running sum is not
// finite.
func (t *trainer) epoch() (float64, bool) {
	n := t.x.Dim(0)
	perm := t.rng.Perm(n)
	var sum float64
	var batches int
	for lo := 0; lo < n; lo += t.batch {
		rows := perm[lo:min(lo+t.batch, n)]
		xb, xh := gatherRows(t.x, rows)
		t.opt.ZeroGrad()
		outs := t.g.Forward(xb, true)
		grads := make(map[int]*tensor.Tensor, len(outs))
		for id, o := range outs {
			l, gr := t.loss(id, o, rows)
			sum += l
			grads[id] = gr
		}
		batches++
		if math.IsNaN(sum) || math.IsInf(sum, 0) {
			tensor.PutBuf(xh)
			return sum, false
		}
		t.g.Backward(grads)
		t.opt.Step()
		// The layers cached xb for the backward pass, so the buffer can
		// only return to the arena after Backward has consumed it.
		tensor.PutBuf(xh)
	}
	return sum / float64(batches), true
}

// gatherRows copies the given rows of x into a tensor drawn from the arena.
// Training gathers one input and, when distilling, one teacher batch per
// minibatch per epoch — recycled here, those would be the search's
// dominant allocation source. The handle must be released with
// tensor.PutBuf.
func gatherRows(x *tensor.Tensor, rows []int) (*tensor.Tensor, *[]float32) {
	per := x.Size() / x.Dim(0)
	out, handle := tensor.GetTensorDirty(append([]int{len(rows)}, x.Shape()[1:]...)...)
	for i, r := range rows {
		copy(out.Data()[i*per:(i+1)*per], x.Data()[r*per:(r+1)*per])
	}
	return out, handle
}
