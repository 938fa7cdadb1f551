package data

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice([]float32{
		2, 1, 0,
		0, 3, 1,
		1, 0, 5,
		4, 0, 0,
	}, 4, 3)
	if got, err := accuracy(logits, []int{0, 1, 2, 0}); err != nil || got != 1 {
		t.Fatalf("accuracy = %v (err %v), want 1", got, err)
	}
	if got, err := accuracy(logits, []int{1, 1, 2, 0}); err != nil || got != 0.75 {
		t.Fatalf("accuracy = %v (err %v), want 0.75", got, err)
	}
}

func TestAccuracyErrorsOnMismatch(t *testing.T) {
	if _, err := accuracy(tensor.New(2, 3), []int{0}); err == nil {
		t.Fatal("expected shape-mismatch error")
	}
	if _, err := accuracy(tensor.New(0, 3), nil); err == nil {
		t.Fatal("expected empty-input error")
	}
}

func TestMeanAveragePrecisionErrorsOnMismatch(t *testing.T) {
	if _, err := meanAveragePrecision(tensor.New(2, 2), [][]int{{1, 0}}); err == nil {
		t.Fatal("expected row-count error")
	}
	if _, err := meanAveragePrecision(tensor.New(2, 2), [][]int{{1}, {0}}); err == nil {
		t.Fatal("expected class-count error")
	}
}

func TestMatthewsCorrelationErrorsOnMismatch(t *testing.T) {
	if _, err := matthewsCorrelation(tensor.New(3, 2), []int{0, 1}); err == nil {
		t.Fatal("expected shape-mismatch error")
	}
}

func TestMeanAveragePrecisionPerfect(t *testing.T) {
	// Scores rank all positives above negatives per class.
	scores := tensor.FromSlice([]float32{
		0.9, 0.1,
		0.8, 0.9,
		0.1, 0.8,
		0.2, 0.2,
	}, 4, 2)
	labels := [][]int{{1, 0}, {1, 1}, {0, 1}, {0, 0}}
	if got, err := meanAveragePrecision(scores, labels); err != nil || math.Abs(got-1) > 1e-9 {
		t.Fatalf("perfect mAP = %v (err %v), want 1", got, err)
	}
}

func TestMeanAveragePrecisionPartial(t *testing.T) {
	// Class 0: positives at rank 1 and 3 -> AP = (1/1 + 2/3)/2 = 5/6.
	scores := tensor.FromSlice([]float32{
		0.9,
		0.8,
		0.7,
	}, 3, 1)
	labels := [][]int{{1}, {0}, {1}}
	want := (1.0 + 2.0/3.0) / 2
	if got, err := meanAveragePrecision(scores, labels); err != nil || math.Abs(got-want) > 1e-9 {
		t.Fatalf("mAP = %v (err %v), want %v", got, err, want)
	}
}

func TestMeanAveragePrecisionSkipsEmptyClasses(t *testing.T) {
	scores := tensor.FromSlice([]float32{0.9, 0.5, 0.1, 0.5}, 2, 2)
	labels := [][]int{{1, 0}, {0, 0}} // class 1 has no positives
	if got, err := meanAveragePrecision(scores, labels); err != nil || math.Abs(got-1) > 1e-9 {
		t.Fatalf("mAP = %v (err %v), want 1 (empty class skipped)", got, err)
	}
}

func TestMatthewsCorrelationPerfectAndInverse(t *testing.T) {
	logits := tensor.FromSlice([]float32{
		1, 0,
		0, 1,
		1, 0,
		0, 1,
	}, 4, 2)
	if got, err := matthewsCorrelation(logits, []int{0, 1, 0, 1}); err != nil || math.Abs(got-1) > 1e-9 {
		t.Fatalf("perfect MCC = %v (err %v), want 1", got, err)
	}
	if got, err := matthewsCorrelation(logits, []int{1, 0, 1, 0}); err != nil || math.Abs(got+1) > 1e-9 {
		t.Fatalf("inverse MCC = %v (err %v), want -1", got, err)
	}
}

func TestMatthewsCorrelationDegenerate(t *testing.T) {
	// All predictions in one class -> denominator zero -> MCC 0.
	logits := tensor.FromSlice([]float32{1, 0, 1, 0}, 2, 2)
	if got, err := matthewsCorrelation(logits, []int{0, 1}); err != nil || got != 0 {
		t.Fatalf("degenerate MCC = %v (err %v), want 0", got, err)
	}
}
