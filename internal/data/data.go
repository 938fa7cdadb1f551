// Package data provides deterministic synthetic multi-task datasets that
// stand in for the paper's real datasets (UTKFace, FER2013, Adience,
// VOC2007, SOS, CoLA, SST-2), which are unavailable offline.
//
// Each generator produces one input stream and several task label sets
// derived from latent factors planted into the input at different spatial
// or sequential scales. Tasks therefore share low- and mid-level features
// by construction, which is exactly the structure GMorph exploits: sharing
// shallow features preserves accuracy, while over-sharing deep
// task-specific features destroys it.
package data

import (
	"fmt"

	"repro/internal/tensor"
)

// TaskKind selects how a task's predictions are scored.
type TaskKind int

// Task kinds.
const (
	// Classify scores argmax accuracy over K classes.
	Classify TaskKind = iota
	// MultiLabel scores mean average precision over K binary labels.
	MultiLabel
	// Matthews scores the Matthews correlation coefficient over 2 classes.
	Matthews
)

// String implements fmt.Stringer.
func (k TaskKind) String() string {
	switch k {
	case Classify:
		return "classify"
	case MultiLabel:
		return "multilabel"
	case Matthews:
		return "matthews"
	}
	return "unknown"
}

// TaskSpec describes one prediction task over the shared input stream.
type TaskSpec struct {
	Name    string
	Kind    TaskKind
	Classes int
}

// Split is one partition (train or test) of a dataset: a batch of inputs
// plus per-task labels.
type Split struct {
	// X holds the inputs: [N,C,H,W] images or [N,T] token-id tensors.
	X *tensor.Tensor
	// Labels[t] holds task t's integer labels (Classify, Matthews).
	Labels [][]int
	// Multi[t] holds task t's binary label matrix (MultiLabel), nil
	// otherwise.
	Multi [][][]int
}

// Len returns the number of samples.
func (s *Split) Len() int { return s.X.Dim(0) }

// Batch copies samples [lo,hi) into a fresh input tensor.
func (s *Split) Batch(lo, hi int) *tensor.Tensor {
	shape := append([]int{hi - lo}, s.X.Shape()[1:]...)
	per := 1
	for _, d := range s.X.Shape()[1:] {
		per *= d
	}
	out := tensor.New(shape...)
	copy(out.Data(), s.X.Data()[lo*per:hi*per])
	return out
}

// Dataset is a multi-task dataset with a train/test split.
type Dataset struct {
	Name  string
	Tasks []TaskSpec
	Train *Split
	Test  *Split
}

// Score evaluates task t's metric for predictions over split s.
func (d *Dataset) Score(s *Split, t int, logits *tensor.Tensor) (float64, error) {
	switch d.Tasks[t].Kind {
	case Classify:
		return accuracy(logits, s.Labels[t])
	case MultiLabel:
		return meanAveragePrecision(logits, s.Multi[t])
	case Matthews:
		return matthewsCorrelation(logits, s.Labels[t])
	}
	return 0, fmt.Errorf("data: unknown task kind %v", d.Tasks[t].Kind)
}

// ScoreTest runs forward over the test split in batches of batch samples
// and scores every task it outputs. The logits are gathered over the whole
// split first and scored once: mAP and MCC are not batch-decomposable.
func (d *Dataset) ScoreTest(forward func(*tensor.Tensor) map[int]*tensor.Tensor, batch int) (map[int]float64, error) {
	logits := ForwardBatches(d.Test.X, batch, forward)
	acc := make(map[int]float64, len(logits))
	for id, l := range logits {
		a, err := d.Score(d.Test, id, l)
		if err != nil {
			return nil, fmt.Errorf("data: scoring task %d: %w", id, err)
		}
		acc[id] = a
	}
	return acc, nil
}

// ForwardBatches runs forward over x's rows in batches of batch rows (all
// of them when batch <= 0) and returns each output concatenated over every
// row. A batch is an arena lease, released once its outputs are copied
// out, so forward must not keep its input past the call. ForwardBatches
// holds no state: concurrent calls are safe whenever their forwards are.
func ForwardBatches(x *tensor.Tensor, batch int, forward func(*tensor.Tensor) map[int]*tensor.Tensor) map[int]*tensor.Tensor {
	n := x.Dim(0)
	if batch <= 0 || batch > n {
		batch = n
	}
	per := 1
	for _, d := range x.Shape()[1:] {
		per *= d
	}
	outs := make(map[int]*tensor.Tensor)
	for lo := 0; lo < n; lo += batch {
		hi := min(lo+batch, n)
		xb, handle := tensor.GetTensorDirty(append([]int{hi - lo}, x.Shape()[1:]...)...)
		copy(xb.Data(), x.Data()[lo*per:hi*per])
		for id, o := range forward(xb) {
			dst, ok := outs[id]
			if !ok {
				dst = tensor.New(append([]int{n}, o.Shape()[1:]...)...)
				outs[id] = dst
			}
			op := o.Size() / o.Dim(0)
			copy(dst.Data()[lo*op:hi*op], o.Data())
		}
		tensor.PutBuf(handle)
	}
	return outs
}
