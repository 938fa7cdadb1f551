package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// L1Loss returns the mean absolute error between pred and target along with
// the gradient with respect to pred. It is the distillation objective:
// GMorph fine-tunes a multi-task model so its per-task output features match
// the teacher DNN's outputs under the l1 distance.
func L1Loss(pred, target *tensor.Tensor) (float64, *tensor.Tensor) {
	if !tensor.SameShape(pred, target) {
		panic(fmt.Sprintf("nn: L1Loss shape mismatch %v vs %v", pred.Shape(), target.Shape()))
	}
	grad := tensor.New(pred.Shape()...)
	pd, td, gd := pred.Data(), target.Data(), grad.Data()
	inv := 1 / float32(len(pd))
	var loss float64
	for i := range pd {
		d := pd[i] - td[i]
		if d >= 0 {
			loss += float64(d)
			gd[i] = inv
		} else {
			loss -= float64(d)
			gd[i] = -inv
		}
	}
	return loss / float64(len(pd)), grad
}

// CrossEntropyLoss computes softmax cross entropy for logits [N, K] against
// integer labels, returning the mean loss and gradient with respect to the
// logits. It is used to pre-train teacher models.
func CrossEntropyLoss(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	if logits.Rank() != 2 || logits.Dim(0) != len(labels) {
		panic(fmt.Sprintf("nn: CrossEntropyLoss logits %v vs %d labels", logits.Shape(), len(labels)))
	}
	n, k := logits.Dim(0), logits.Dim(1)
	grad := tensor.New(n, k)
	ld, gd := logits.Data(), grad.Data()
	var loss float64
	invN := 1 / float32(n)
	for i := 0; i < n; i++ {
		row := ld[i*k : (i+1)*k]
		grow := gd[i*k : (i+1)*k]
		maxv := row[0]
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(float64(v - maxv))
			grow[j] = float32(e)
			sum += e
		}
		y := labels[i]
		if y < 0 || y >= k {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, k))
		}
		loss += math.Log(sum) - float64(row[y]-maxv)
		invSum := float32(1 / sum)
		for j := range grow {
			grow[j] *= invSum * invN
		}
		grow[y] -= invN
	}
	return loss / float64(n), grad
}

// BCEWithLogitsLoss computes the mean binary cross entropy of logits [N,K]
// against 0/1 multi-label targets, returning the loss and gradient with
// respect to the logits. It is used to pre-train multi-label teachers
// (ObjectNet-style tasks scored with mAP).
func BCEWithLogitsLoss(logits *tensor.Tensor, targets [][]int) (float64, *tensor.Tensor) {
	n, k := logits.Dim(0), logits.Dim(1)
	if len(targets) != n {
		panic(fmt.Sprintf("nn: BCEWithLogitsLoss logits %v vs %d target rows", logits.Shape(), len(targets)))
	}
	grad := tensor.New(n, k)
	ld, gd := logits.Data(), grad.Data()
	inv := 1 / float32(n*k)
	var loss float64
	for i := 0; i < n; i++ {
		if len(targets[i]) != k {
			panic(fmt.Sprintf("nn: BCEWithLogitsLoss target row %d has %d entries, want %d", i, len(targets[i]), k))
		}
		for j := 0; j < k; j++ {
			z := float64(ld[i*k+j])
			y := float64(targets[i][j])
			// Numerically stable: max(z,0) - z*y + log(1+exp(-|z|)).
			m := z
			if m < 0 {
				m = 0
			}
			az := z
			if az < 0 {
				az = -az
			}
			loss += m - z*y + math.Log(1+math.Exp(-az))
			sig := 1 / (1 + math.Exp(-z))
			gd[i*k+j] = float32(sig-y) * inv
		}
	}
	return loss / float64(n*k), grad
}
