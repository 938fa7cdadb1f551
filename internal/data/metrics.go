package data

// The task-quality scores behind Dataset.Score: classification accuracy
// (B1-B3, SST), mean average precision (B4-B6), and the Matthews
// correlation coefficient (CoLA). Shape mismatches between predictions and
// labels are errors, never panics: these sit on the serving and evaluation
// path of a long-running system, and malformed data must not take it down.

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/tensor"
)

// accuracy returns the fraction of rows of logits [N,K] whose argmax equals
// the label.
func accuracy(logits *tensor.Tensor, labels []int) (float64, error) {
	if logits.Dim(0) != len(labels) {
		return 0, fmt.Errorf("data: %d logit rows vs %d labels", logits.Dim(0), len(labels))
	}
	if len(labels) == 0 {
		return 0, fmt.Errorf("data: no rows to score")
	}
	pred := tensor.ArgMaxRow(logits)
	var correct int
	for i, p := range pred {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels)), nil
}

// meanAveragePrecision computes mAP for multi-label scores [N,K] against
// binary label matrices [N,K] (1 = positive). Average precision is computed
// per class over the ranking of scores and then averaged over classes with
// at least one positive.
func meanAveragePrecision(scores *tensor.Tensor, labels [][]int) (float64, error) {
	n, k := scores.Dim(0), scores.Dim(1)
	if len(labels) != n {
		return 0, fmt.Errorf("data: %d score rows vs %d label rows", n, len(labels))
	}
	for i, row := range labels {
		if len(row) != k {
			return 0, fmt.Errorf("data: label row %d has %d classes, scores have %d", i, len(row), k)
		}
	}
	var sumAP float64
	var classes int
	idx := make([]int, n)
	for c := 0; c < k; c++ {
		var positives int
		for i := 0; i < n; i++ {
			idx[i] = i
			if labels[i][c] == 1 {
				positives++
			}
		}
		if positives == 0 {
			continue
		}
		sort.Slice(idx, func(a, b int) bool {
			return scores.At(idx[a], c) > scores.At(idx[b], c)
		})
		var hits int
		var ap float64
		for rank, i := range idx {
			if labels[i][c] == 1 {
				hits++
				ap += float64(hits) / float64(rank+1)
			}
		}
		sumAP += ap / float64(positives)
		classes++
	}
	if classes == 0 {
		return 0, nil
	}
	return sumAP / float64(classes), nil
}

// matthewsCorrelation computes the MCC of binary predictions derived from
// logits [N,2] against binary labels.
func matthewsCorrelation(logits *tensor.Tensor, labels []int) (float64, error) {
	if logits.Dim(0) != len(labels) {
		return 0, fmt.Errorf("data: %d logit rows vs %d labels", logits.Dim(0), len(labels))
	}
	pred := tensor.ArgMaxRow(logits)
	var tp, tn, fp, fn float64
	for i, p := range pred {
		switch {
		case p == 1 && labels[i] == 1:
			tp++
		case p == 0 && labels[i] == 0:
			tn++
		case p == 1 && labels[i] == 0:
			fp++
		default:
			fn++
		}
	}
	den := math.Sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
	if den == 0 {
		return 0, nil
	}
	return (tp*tn - fp*fn) / den, nil
}
