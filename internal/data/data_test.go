package data

import (
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestFaceDatasetShapesAndDeterminism(t *testing.T) {
	cfg := FaceConfig{Train: 20, Test: 10, Size: 16, Noise: 0.1, Seed: 42}
	d := NewFace(cfg)
	if d.Train.Len() != 20 || d.Test.Len() != 10 {
		t.Fatalf("split sizes %d/%d", d.Train.Len(), d.Test.Len())
	}
	if got := d.Train.X.Shape(); got[1] != 3 || got[2] != 16 || got[3] != 16 {
		t.Fatalf("train X shape %v", got)
	}
	if len(d.Tasks) != 4 {
		t.Fatalf("tasks = %d, want 4", len(d.Tasks))
	}
	d2 := NewFace(cfg)
	for i := range d.Train.X.Data() {
		if d.Train.X.Data()[i] != d2.Train.X.Data()[i] {
			t.Fatal("same seed must generate identical data")
		}
	}
	d3 := NewFace(FaceConfig{Train: 20, Test: 10, Size: 16, Noise: 0.1, Seed: 43})
	same := true
	for i := range d.Train.X.Data() {
		if d.Train.X.Data()[i] != d3.Train.X.Data()[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds generated identical data")
	}
}

func TestFaceTaskSubset(t *testing.T) {
	d := NewFace(FaceConfig{Train: 8, Test: 4, Size: 8, Seed: 1, Tasks: []string{"gender", "age"}})
	if len(d.Tasks) != 2 || d.Tasks[0].Name != "gender" || d.Tasks[1].Name != "age" {
		t.Fatalf("tasks = %+v", d.Tasks)
	}
	if d.Tasks[0].Classes != 2 {
		t.Fatalf("gender classes = %d", d.Tasks[0].Classes)
	}
}

func TestFaceLabelsInRange(t *testing.T) {
	d := NewFace(FaceConfig{Train: 50, Test: 20, Size: 8, Seed: 7})
	for ti, spec := range d.Tasks {
		for _, l := range d.Train.Labels[ti] {
			if l < 0 || l >= spec.Classes {
				t.Fatalf("task %s label %d out of range", spec.Name, l)
			}
		}
	}
}

func TestSceneDataset(t *testing.T) {
	d := NewScene(SceneConfig{Train: 30, Test: 10, Size: 16, ObjectClasses: 5, MaxObjects: 3, Noise: 0.05, Seed: 9})
	if d.Tasks[0].Kind != MultiLabel || d.Tasks[1].Kind != Classify {
		t.Fatalf("task kinds %v %v", d.Tasks[0].Kind, d.Tasks[1].Kind)
	}
	for i := 0; i < d.Train.Len(); i++ {
		row := d.Train.Multi[0][i]
		if len(row) != 5 {
			t.Fatalf("multi row len %d", len(row))
		}
		var any int
		for _, v := range row {
			if v != 0 && v != 1 {
				t.Fatalf("multi label %d not binary", v)
			}
			any += v
		}
		if any == 0 {
			t.Fatal("scene with no objects")
		}
		if c := d.Train.Labels[1][i]; c < 0 || c > 3 {
			t.Fatalf("salient count %d out of range", c)
		}
	}
}

func TestTextDataset(t *testing.T) {
	d := NewText(TextConfig{Train: 40, Test: 20, SeqLen: 12, Vocab: 40, Seed: 11})
	if d.Tasks[0].Kind != Matthews || d.Tasks[1].Kind != Classify {
		t.Fatalf("task kinds wrong: %v %v", d.Tasks[0].Kind, d.Tasks[1].Kind)
	}
	// Token ids must be valid for an embedding of the configured vocab.
	for _, v := range d.Train.X.Data() {
		id := int(v)
		if id < 0 || id >= 40 || float32(id) != v {
			t.Fatalf("bad token id %v", v)
		}
	}
	// Both label arrays are binary.
	for ti := 0; ti < 2; ti++ {
		for _, l := range d.Train.Labels[ti] {
			if l != 0 && l != 1 {
				t.Fatalf("task %d label %d not binary", ti, l)
			}
		}
	}
}

func TestBatchCopies(t *testing.T) {
	d := NewFace(FaceConfig{Train: 6, Test: 2, Size: 8, Seed: 3})
	b := d.Train.Batch(2, 5)
	if b.Dim(0) != 3 {
		t.Fatalf("batch size %d", b.Dim(0))
	}
	per := 3 * 8 * 8
	for i := 0; i < per; i++ {
		if b.Data()[i] != d.Train.X.Data()[2*per+i] {
			t.Fatal("batch contents wrong")
		}
	}
	b.Data()[0] += 5
	if d.Train.X.Data()[2*per] == b.Data()[0] {
		t.Fatal("Batch must copy, not alias")
	}
}

func TestScoreDispatch(t *testing.T) {
	d := NewText(TextConfig{Train: 4, Test: 4, SeqLen: 6, Vocab: 40, Seed: 5})
	// Perfect logits for sst on the test split.
	logits := tensor.New(4, 2)
	for i, l := range d.Test.Labels[1] {
		logits.Set(1, i, l)
	}
	if got, err := d.Score(d.Test, 1, logits); err != nil || got != 1 {
		t.Fatalf("perfect sst score = %v (err %v)", got, err)
	}
	// Matthews of perfect cola predictions is 1 (if both classes present).
	logits2 := tensor.New(4, 2)
	for i, l := range d.Test.Labels[0] {
		logits2.Set(1, i, l)
	}
	got, err := d.Score(d.Test, 0, logits2)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 && got != 0 { // 0 when the tiny split is single-class
		t.Fatalf("perfect cola score = %v", got)
	}
	// Shape mismatches surface as errors, not panics.
	if _, err := d.Score(d.Test, 1, tensor.New(2, 2)); err == nil {
		t.Fatal("expected shape-mismatch error")
	}
}

// Property: generators never emit NaN/Inf inputs.
func TestGeneratorsFiniteProperty(t *testing.T) {
	f := func(seed uint64) bool {
		face := NewFace(FaceConfig{Train: 4, Test: 2, Size: 8, Noise: 0.2, Seed: seed})
		scene := NewScene(SceneConfig{Train: 4, Test: 2, Size: 12, Seed: seed})
		for _, x := range [][]float32{face.Train.X.Data(), scene.Train.X.Data()} {
			for _, v := range x {
				if v != v || v > 1e6 || v < -1e6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
