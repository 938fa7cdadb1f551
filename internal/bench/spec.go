// Package bench defines the seven GMorph benchmarks (Table 2) over the
// synthetic dataset substrates and implements one runner per figure and
// table of the paper's evaluation (Section 6 and appendices). Every runner
// takes a Scale so the same harness serves fast `go test -bench` smoke runs
// and full paper-scale sweeps from cmd/experiments.
package bench

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/distill"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/tensor"
)

// Scale sizes an experiment run.
type Scale struct {
	// Train/Test are dataset split sizes.
	Train, Test int
	// ImgSize is the square image side for vision benchmarks.
	ImgSize int
	// SeqLen is the token length for text benchmarks.
	SeqLen int
	// WidthScale divides model widths (see models.Config).
	WidthScale int
	// WidthMul multiplies model widths back up (see models.Config.WidthMul);
	// 8 restores paper-width channels. The default (0) means 1.
	WidthMul int
	// PretrainEpochs trains the teachers.
	PretrainEpochs int
	// Rounds is the search iteration count.
	Rounds int
	// Epochs bounds candidate fine-tuning.
	Epochs int
	// EvalEvery is the accuracy measurement interval (delta).
	EvalEvery int
	// Batch is the minibatch size.
	Batch int
	// LR is the fine-tuning learning rate.
	LR float32
	// Seed drives all randomness.
	Seed uint64
}

// Tiny returns the smallest useful scale, used by unit tests and
// `go test -bench` smoke runs.
func Tiny() Scale {
	return Scale{
		Train: 64, Test: 32, ImgSize: 32, SeqLen: 12, WidthScale: 4,
		PretrainEpochs: 6, Rounds: 6, Epochs: 12, EvalEvery: 1,
		Batch: 16, LR: 0.003, Seed: 1,
	}
}

// Small returns a scale that exercises the full model zoo in minutes.
func Small() Scale {
	return Scale{
		Train: 128, Test: 64, ImgSize: 32, SeqLen: 16, WidthScale: 2,
		PretrainEpochs: 10, Rounds: 20, Epochs: 18, EvalEvery: 2,
		Batch: 16, LR: 0.002, Seed: 1,
	}
}

// Full returns the paper-shaped scale (still reduced relative to GPU-scale
// absolute sizes, but with 200 search rounds and the widest sim profiles).
func Full() Scale {
	return Scale{
		Train: 512, Test: 256, ImgSize: 32, SeqLen: 16, WidthScale: 1,
		PretrainEpochs: 20, Rounds: 200, Epochs: 20, EvalEvery: 2,
		Batch: 32, LR: 0.002, Seed: 1,
	}
}

// TaskDef binds one task of a benchmark to its architecture.
type TaskDef struct {
	// Name matches the dataset task name.
	Name string
	// Arch is the model zoo architecture for this task's teacher.
	Arch string
}

// Spec declares one benchmark.
type Spec struct {
	// ID is the benchmark identifier ("B1".."B7").
	ID string
	// App is the application the benchmark comes from.
	App string
	// Tasks lists the task/architecture pairs (dataset task order).
	Tasks []TaskDef
	// Family selects the dataset generator: "face", "scene", or "text".
	Family string
}

// Benchmarks is the paper's Table 2.
var Benchmarks = []Spec{
	{ID: "B1", App: "Vision Support", Family: "face", Tasks: []TaskDef{
		{Name: "age", Arch: models.VGG13}, {Name: "gender", Arch: models.VGG13}, {Name: "ethnicity", Arch: models.VGG13},
	}},
	{ID: "B2", App: "Vision Support", Family: "face", Tasks: []TaskDef{
		{Name: "emotion", Arch: models.VGG16}, {Name: "age", Arch: models.VGG16}, {Name: "gender", Arch: models.VGG16},
	}},
	{ID: "B3", App: "Vision Support", Family: "face", Tasks: []TaskDef{
		{Name: "emotion", Arch: models.VGG13}, {Name: "age", Arch: models.VGG16}, {Name: "gender", Arch: models.VGG11},
	}},
	{ID: "B4", App: "Lifelogging", Family: "scene", Tasks: []TaskDef{
		{Name: "object", Arch: models.ResNet34}, {Name: "salient", Arch: models.ResNet18},
	}},
	{ID: "B5", App: "Lifelogging", Family: "scene", Tasks: []TaskDef{
		{Name: "object", Arch: models.ResNet34}, {Name: "salient", Arch: models.VGG16},
	}},
	{ID: "B6", App: "Lifelogging", Family: "scene", Tasks: []TaskDef{
		{Name: "object", Arch: models.ViTLarge}, {Name: "salient", Arch: models.ViTBase},
	}},
	{ID: "B7", App: "General Language Understanding", Family: "text", Tasks: []TaskDef{
		{Name: "cola", Arch: models.BERTLarge}, {Name: "sst", Arch: models.BERTBase},
	}},
}

// SpecByID looks up a benchmark.
func SpecByID(id string) (Spec, error) {
	for _, s := range Benchmarks {
		if s.ID == id {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("bench: unknown benchmark %q", id)
}

// Workload is a fully materialized benchmark: dataset, pre-trained teacher
// multi-DNN graph and teacher accuracies.
type Workload struct {
	Spec    Spec
	Scale   Scale
	Dataset *data.Dataset
	// Teacher is the original multi-DNN graph with pre-trained weights.
	Teacher *graph.Graph
	// TeacherAcc is each task's test metric after pre-training.
	TeacherAcc map[int]float64
	// Vocab used for text benchmarks.
	Vocab int
}

// dataset builds the benchmark's dataset at the given scale. For vision
// benchmarks the image side comes from the scale; the face generator emits
// only the tasks the benchmark uses.
func (s Spec) dataset(sc Scale) *data.Dataset {
	switch s.Family {
	case "face":
		names := make([]string, len(s.Tasks))
		for i, t := range s.Tasks {
			names[i] = t.Name
		}
		return data.NewFace(data.FaceConfig{
			Train: sc.Train, Test: sc.Test, Size: sc.ImgSize,
			Noise: 0.08, Seed: sc.Seed, Tasks: names,
		})
	case "scene":
		return data.NewScene(data.SceneConfig{
			Train: sc.Train, Test: sc.Test, Size: sc.ImgSize,
			ObjectClasses: 6, MaxObjects: 3, Noise: 0.05, Seed: sc.Seed,
		})
	case "text":
		return data.NewText(data.TextConfig{
			Train: sc.Train, Test: sc.Test, SeqLen: sc.SeqLen, Vocab: 40, Seed: sc.Seed,
		})
	}
	panic("bench: unknown family " + s.Family)
}

// inputShape returns the benchmark's graph input shape.
func (s Spec) inputShape(sc Scale) graph.Shape {
	if s.Family == "text" {
		return graph.Shape{sc.SeqLen}
	}
	return graph.Shape{3, sc.ImgSize, sc.ImgSize}
}

// Build materializes the benchmark: generates the dataset, constructs one
// teacher branch per task and pre-trains the teachers on the task labels.
// Runners that distill outside a search compute the teacher outputs
// themselves; the search's evaluator computes its own when it first
// fine-tunes.
func Build(spec Spec, sc Scale) (*Workload, error) {
	ds := spec.dataset(sc)
	rng := tensor.NewRNG(sc.Seed ^ 0xBEEF)
	cfg := models.Config{WidthScale: sc.WidthScale, WidthMul: sc.WidthMul, Vocab: 40}
	g := graph.New(spec.inputShape(sc), graph.DomainRaw)
	for i, t := range spec.Tasks {
		g.TaskNames[i] = t.Name
		if _, err := models.AddBranch(g, rng, cfg, t.Arch, i, ds.Tasks[i].Classes); err != nil {
			return nil, fmt.Errorf("bench %s: %w", spec.ID, err)
		}
	}
	g.RefreshCapacities()
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("bench %s: teacher graph invalid: %w", spec.ID, err)
	}

	acc, err := distill.Pretrain(g, ds, sc.PretrainEpochs, sc.LR, sc.Seed^0xFACE)
	if err != nil {
		return nil, fmt.Errorf("bench %s: pre-training teachers: %w", spec.ID, err)
	}
	return &Workload{
		Spec: spec, Scale: sc, Dataset: ds, Teacher: g,
		TeacherAcc: acc, Vocab: 40,
	}, nil
}

// Targets derives per-task accuracy targets from the teacher metrics and an
// allowed drop (0, 0.01, 0.02 in the paper).
func (w *Workload) Targets(drop float64) map[int]float64 {
	t := make(map[int]float64, len(w.TeacherAcc))
	for id, a := range w.TeacherAcc {
		t[id] = a - drop
	}
	return t
}

// FineTuneConfig returns the distillation settings for this workload.
func (w *Workload) FineTuneConfig() distill.Config {
	return distill.Config{
		LR: w.Scale.LR, Epochs: w.Scale.Epochs, Batch: w.Scale.Batch,
		EvalEvery: w.Scale.EvalEvery, Seed: w.Scale.Seed ^ 0xF17E,
	}
}
