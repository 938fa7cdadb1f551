// Package gmorph is a pure-Go reproduction of "GMorph: Accelerating
// Multi-DNN Inference via Model Fusion" (Yang et al., EuroSys 2024).
//
// GMorph fuses multiple separately pre-trained, possibly heterogeneous
// task-specific DNNs that consume the same input stream into one efficient
// multi-task model, preserving each task's accuracy. It works by mutating
// an abstract graph of the models — re-routing computation blocks so tasks
// share intermediate features — and searching the mutation space with a
// simulated-annealing policy, filtering non-promising candidates before
// and during distillation-based fine-tuning.
//
// The package exposes the end-to-end flow:
//
//	ds := gmorph.NewFaceDataset(...)            // or your own Dataset
//	teachers := gmorph.NewModel(inputShape)     // build + pretrain branches
//	...
//	result, err := gmorph.Fuse(teachers, ds, gmorph.Config{
//	    AccuracyDrop: 0.01,
//	    Rounds:       50,
//	})
//	fused := result.Model                        // trained multi-task model
//
// Everything — tensors, autodiff layers, the model zoo, the search, the
// execution engines — is implemented in this repository with only the Go
// standard library.
package gmorph

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/distill"
	"repro/internal/engine"
	"repro/internal/fingerprint"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/mtl"
	"repro/internal/parser"
	"repro/internal/quant"
	"repro/internal/search/coord"
	"repro/internal/search/explain"
	"repro/internal/search/worker"
	"repro/internal/tensor"
)

// Re-exported building blocks. Aliases keep the public API surface small
// while the implementation lives in internal packages.
type (
	// Model is a (multi-task) model represented as an abstract graph.
	Model = graph.Graph
	// Node is one computation block of a Model.
	Node = graph.Node
	// Shape is a per-sample feature shape.
	Shape = graph.Shape
	// Dataset is a multi-task dataset over one input stream.
	Dataset = data.Dataset
	// Tensor is a dense float32 tensor.
	Tensor = tensor.Tensor
	// RNG is the deterministic random generator used across the library.
	RNG = tensor.RNG
	// Elite is a trained fusion candidate that met the accuracy targets.
	Elite = core.Elite
	// Trace is the search's record of one sampled candidate: what was
	// mutated, which filter acted, the measured scores, the outcome, and
	// where the search stood when it was merged.
	Trace = core.Trace
	// SearchStats aggregates a search's filtering, memoization, and
	// warm-start counters.
	SearchStats = core.SearchStats
	// SearchWorker is a stateless evaluation worker for the distributed
	// search (serve its Handler, point Config.Workers at it).
	SearchWorker = worker.Server
	// Engine runs inference for a Model.
	Engine = engine.Engine
)

// Model zoo architecture names.
const (
	VGG11     = models.VGG11
	VGG13     = models.VGG13
	VGG16     = models.VGG16
	ResNet18  = models.ResNet18
	ResNet34  = models.ResNet34
	ViTBase   = models.ViTBase
	ViTLarge  = models.ViTLarge
	BERTBase  = models.BERTBase
	BERTLarge = models.BERTLarge
)

// NewRNG returns a deterministic random generator.
func NewRNG(seed uint64) *RNG { return tensor.NewRNG(seed) }

// NewModel creates an empty model whose branches share an input of the
// given per-sample shape (e.g. Shape{3, 32, 32} for RGB images or
// Shape{16} for token ids).
func NewModel(inputShape Shape) *Model {
	return graph.New(inputShape, graph.DomainRaw)
}

// ZooConfig scales the built-in model zoo.
type ZooConfig struct {
	// WidthScale divides reference channel widths (1 = widest).
	WidthScale int
	// Vocab sizes BERT embeddings (default 40).
	Vocab int
	// OpGranularity traces each basic operator (Conv2d, BatchNorm, ReLU,
	// MaxPool) as its own graph node instead of one node per block,
	// enlarging the mutation search space (VGG family only).
	OpGranularity bool
}

// AddBranch appends a task branch with the named zoo architecture to the
// model and names the task.
func AddBranch(m *Model, rng *RNG, zoo ZooConfig, arch, taskName string, taskID, classes int) error {
	cfg := models.Config{WidthScale: zoo.WidthScale, Vocab: zoo.Vocab}
	if zoo.OpGranularity {
		cfg.Granularity = models.GranularityOp
	}
	if _, err := models.AddBranch(m, rng, cfg, arch, taskID, classes); err != nil {
		return err
	}
	m.TaskNames[taskID] = taskName
	m.RefreshCapacities()
	return nil
}

// NewFaceDataset generates the synthetic face stream (age / gender /
// ethnicity / emotion tasks). See data.FaceConfig for semantics.
func NewFaceDataset(train, test, size int, seed uint64, tasks ...string) *Dataset {
	if len(tasks) == 0 {
		tasks = nil
	}
	return data.NewFace(data.FaceConfig{
		Train: train, Test: test, Size: size, Noise: 0.08, Seed: seed, Tasks: tasks,
	})
}

// NewSceneDataset generates the synthetic scene stream (multi-label object
// presence + salient-object counting).
func NewSceneDataset(train, test, size int, seed uint64) *Dataset {
	return data.NewScene(data.SceneConfig{
		Train: train, Test: test, Size: size,
		ObjectClasses: 6, MaxObjects: 3, Noise: 0.05, Seed: seed,
	})
}

// NewTextDataset generates the synthetic token stream (CoLA-style
// grammaticality + SST-style sentiment).
func NewTextDataset(train, test, seqLen int, seed uint64) *Dataset {
	return data.NewText(data.TextConfig{Train: train, Test: test, SeqLen: seqLen, Vocab: 40, Seed: seed})
}

// Pretrain trains the model's branches on the dataset's task labels,
// standing in for loading pre-trained checkpoints. It returns each task's
// test metric.
func Pretrain(m *Model, ds *Dataset, epochs int, lr float32, seed uint64) (map[int]float64, error) {
	return distill.Pretrain(m, ds, epochs, lr, seed)
}

// Config controls a fusion search, mirroring the paper's configuration
// file: optimization metric, accuracy threshold, fine-tuning
// hyperparameters, and search budget.
type Config struct {
	// AccuracyDrop is the tolerated per-task metric drop (0, 0.01, ...).
	AccuracyDrop float64
	// Rounds is the number of graph mutation iterations (default 50).
	Rounds int
	// MaxPairsPerPass bounds how many node pairs one mutation pass applies
	// (the paper uses 1-2; default 2).
	MaxPairsPerPass int
	// FineTuneEpochs bounds each candidate's fine-tuning (default 10).
	FineTuneEpochs int
	// LearningRate for distillation fine-tuning (default 1e-3).
	LearningRate float32
	// BatchSize for fine-tuning minibatches (default 16).
	BatchSize int
	// EvalEvery epochs between test metric measurements (default 1).
	EvalEvery int
	// OptimizeFLOPs switches the objective from latency to FLOPs.
	OptimizeFLOPs bool
	// EarlyTermination enables learning-curve-based cancellation (the
	// paper's "GMorph w P").
	EarlyTermination bool
	// RuleFilter additionally enables capacity-rule skipping ("w P+R").
	RuleFilter bool
	// RandomPolicy replaces simulated annealing with the random-sampling
	// baseline.
	RandomPolicy bool
	// Seed drives all randomness (default 1).
	Seed uint64
	// TimeBudget optionally bounds the search wall-clock.
	TimeBudget time.Duration
	// Targets optionally overrides the per-task accuracy targets; when nil
	// they are measured from the input model (the teachers) before
	// searching.
	Targets map[int]float64
	// OnRound observes each search round.
	OnRound func(Trace)
	// Workers lists worker endpoints ("host:port" or full URLs) for a
	// distributed search: the coordinator keeps all search state and fans
	// fine-tune/measure jobs across the workers (see NewSearchWorker). The
	// result is bit-identical to a local search with the same Seed.
	Workers []string
	// SearchBatch is the number of candidates sampled per search round;
	// elites, filter history and the sampling policy update between rounds.
	// 1 is the paper's Algorithm 1. Unset means 1 for a local search and 4
	// when Workers is set. The search trajectory depends on Seed and
	// SearchBatch, never on the number of workers.
	SearchBatch int
	// MemoPath persists the search memo (the teachers' Test score,
	// candidate outcomes, trained weights, machine-keyed latency
	// measurements) to a file, a JSON index followed by the trained
	// checkpoints (core.DiskMemo): a re-run of the same search replays it
	// with zero duplicate measurements, the teachers' score included. It
	// is also how a search resumes: re-run with the same Seed, SearchBatch
	// and MemoPath and a larger Rounds, and the first rounds replay without
	// fine-tuning, so the search continues where an uninterrupted run
	// would be. Outcomes replay only under the evaluation context they were
	// measured in — the same teachers, dataset, kernel tier, targets,
	// fine-tune settings and Seed — so a memo from another search behaves
	// like an empty one. A memo file that fails to load is an error
	// returned before the search, and the file is left as it was.
	MemoPath string
}

// Result is the outcome of Fuse.
type Result struct {
	// Model is the best trained multi-task model (the original when no
	// candidate met the targets — check Found).
	Model *Model
	// Found reports whether any candidate met the accuracy targets.
	Found bool
	// Speedup is original latency / fused latency (1 when !Found).
	Speedup float64
	// OriginalLatency and FusedLatency are measured inference times.
	// OriginalLatency is the search's own measurement of the original,
	// memoized like Best's: the number a latency-objective Best had to
	// beat, so a found model reads Speedup > 1.
	OriginalLatency, FusedLatency time.Duration
	// Accuracy is the fused model's per-task test metric.
	Accuracy map[int]float64
	// Targets are the per-task accuracy thresholds used.
	Targets map[int]float64
	// SearchTime is the total search wall-clock.
	SearchTime time.Duration
	// Elites are all accepted candidates.
	Elites []*Elite
	// Traces explain every sampled candidate: mutation tried, filter
	// outcomes, measured scores (see cmd/inspect -fusion).
	Traces []Trace
	// Stats aggregates the search's filtering, memoization, and warm-start
	// counters (cache hit rates, rule skips, epochs spent, ...).
	Stats SearchStats
	// Evaluated counts sampled candidates (including skipped ones).
	Evaluated int
}

// ErrNoTasks reports a model with no task branches.
var ErrNoTasks = errors.New("gmorph: model has no task branches")

// Fuse searches for an efficient multi-task fusion of the model's task
// branches, fine-tuning candidates against the input model's outputs
// (knowledge distillation — no task labels are used beyond measuring the
// test metric against the dataset).
func Fuse(teachers *Model, ds *Dataset, cfg Config) (*Result, error) {
	cfg = cfg.searchDefaults()
	// The search memo. With MemoPath, the teachers' score, candidate
	// outcomes and latency measurements survive across runs, so repeating
	// a search replays instead of re-measuring.
	memo, err := core.NewDiskMemo(cfg.MemoPath)
	if err != nil {
		return nil, fmt.Errorf("gmorph: loading search memo: %w", err)
	}
	setup, err := newSearchSetup(teachers, ds, cfg, memo)
	if err != nil {
		return nil, err
	}
	targets := setup.targets
	// Outcomes replay only under the context they were evaluated in.
	if err := memo.Bind(core.EvalContext(setup.world, targets, setup.accOpts, cfg.Seed)); err != nil {
		return nil, fmt.Errorf("gmorph: loading search memo: %w", err)
	}

	coreCfg := core.Config{
		Rounds:          cfg.Rounds,
		BatchSize:       cfg.SearchBatch,
		MaxPairsPerPass: cfg.MaxPairsPerPass,
		Seed:            cfg.Seed,
		TimeBudget:      cfg.TimeBudget,
		OnRound:         cfg.OnRound,
		Memo:            memo,
	}
	if cfg.OptimizeFLOPs {
		coreCfg.Metric = core.OptimizeFLOPs
	}
	if cfg.RandomPolicy {
		coreCfg.Policy = core.RandomPolicy{}
	}

	if len(cfg.Workers) > 0 {
		pool, err := coord.NewPool(cfg.Workers, setup.sum)
		if err != nil {
			return nil, err
		}
		coreCfg.Evaluator = pool
	}
	res := core.NewOptimizer(teachers, ds, targets, ds.Train.X,
		setup.accOpts, coreCfg).Run()

	if err := memo.Save(); err != nil {
		return nil, fmt.Errorf("gmorph: saving search memo: %w", err)
	}
	out := &Result{
		Model:           teachers,
		Targets:         targets,
		SearchTime:      res.SearchTime,
		Elites:          res.Elites,
		Traces:          res.Traces,
		Stats:           res.Stats,
		Evaluated:       res.Evaluated,
		Speedup:         1,
		OriginalLatency: res.OriginalLatency,
	}
	if res.Best != nil {
		out.Model = res.Best.Graph
		out.Found = true
		out.FusedLatency = res.Best.Latency
		out.Accuracy = res.Best.Accuracy
		out.Speedup = float64(out.OriginalLatency) / float64(res.Best.Latency)
	} else {
		out.FusedLatency = out.OriginalLatency
	}
	return out, nil
}

// searchDefaults fills the Config defaults shared by the coordinator and
// search workers. Workers must see identical values: the fine-tune
// hyperparameters are part of what makes a remote evaluation bit-identical
// to a local one.
func (cfg Config) searchDefaults() Config {
	if cfg.Rounds == 0 {
		cfg.Rounds = 50
	}
	if cfg.FineTuneEpochs == 0 {
		cfg.FineTuneEpochs = 10
	}
	if cfg.LearningRate == 0 {
		cfg.LearningRate = 1e-3
	}
	if cfg.BatchSize == 0 {
		cfg.BatchSize = 16
	}
	if cfg.EvalEvery == 0 {
		cfg.EvalEvery = 1
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return cfg
}

// searchSetup holds the evaluation inputs shared by the local optimizers,
// the coordinator, and search workers. The teacher outputs are not among
// them: the local evaluator computes those when it first fine-tunes, so a
// replayed search, and a coordinator whose workers fine-tune, never do.
type searchSetup struct {
	targets map[int]float64
	accOpts core.AccuracyOptions
	// sum is the teachers' checksum (parser.Sum), the world a coordinator
	// and its workers must agree on, and world the memo's world key
	// (core.WorldKey) built on it.
	sum, world string
}

// newSearchSetup validates the world and derives targets and estimator
// options. Everything here is deterministic in (teachers, ds, cfg), so a
// coordinator and its workers — each calling this on their own copy of the
// same world — agree on every evaluation input. Targets not given in cfg
// sit cfg.AccuracyDrop below the teachers' Test score, which replays from
// the memo's entry for the world key when it has one (core.ScoreTeachers;
// a nil memo always measures).
func newSearchSetup(teachers *Model, ds *Dataset, cfg Config, memo *core.DiskMemo) (*searchSetup, error) {
	if len(teachers.Heads) == 0 {
		return nil, ErrNoTasks
	}
	if err := teachers.Validate(); err != nil {
		return nil, err
	}
	sum, err := parser.Sum(teachers)
	if err != nil {
		return nil, fmt.Errorf("gmorph: checksumming world: %w", err)
	}
	world := core.WorldKey(sum, ds)
	targets := cfg.Targets
	if targets == nil {
		scores, err := core.ScoreTeachers(memo, world, teachers, ds)
		if err != nil {
			return nil, fmt.Errorf("gmorph: measuring teachers: %w", err)
		}
		targets = make(map[int]float64, len(scores))
		for id, a := range scores {
			targets[id] = a - cfg.AccuracyDrop
		}
	}
	return &searchSetup{
		targets: targets, sum: sum, world: world,
		accOpts: core.AccuracyOptions{
			FineTune: distill.Config{
				LR: cfg.LearningRate, Epochs: cfg.FineTuneEpochs,
				Batch: cfg.BatchSize, EvalEvery: cfg.EvalEvery, Seed: cfg.Seed,
			},
			UseEarlyTermination: cfg.EarlyTermination || cfg.RuleFilter,
			UseRuleFilter:       cfg.RuleFilter,
			Slack:               0.02,
		},
	}, nil
}

// NewSearchWorker builds a stateless evaluation worker for the distributed
// search. The worker must be constructed over the same world — teachers,
// dataset, and search Config — as the coordinator; the coordinator verifies
// the world checksum before dispatching. The worker computes the teachers'
// outputs over ds's train split on its first job, so teachers must stay
// unchanged until then. Serve the returned worker's Handler and list its
// address in Config.Workers:
//
//	w, _ := gmorph.NewSearchWorker(teachers, ds, cfg, 2)
//	http.ListenAndServe(":7070", w.Handler())
func NewSearchWorker(teachers *Model, ds *Dataset, cfg Config, slots int) (*SearchWorker, error) {
	cfg = cfg.searchDefaults()
	setup, err := newSearchSetup(teachers, ds, cfg, nil)
	if err != nil {
		return nil, err
	}
	eval := core.NewLocalEvaluator(ds, setup.targets, teachers, ds.Train.X, setup.accOpts, slots)
	return worker.NewServer(eval, setup.sum, len(teachers.Heads)), nil
}

// RenderFusionReport writes a human-readable per-candidate fusion report
// of a search's traces (see also cmd/inspect -fusion over a saved
// decision file).
func RenderFusionReport(w io.Writer, traces []Trace) {
	explain.Render(w, traces)
}

// SaveFusionReport persists a search's traces as the JSON decision file
// cmd/inspect -fusion reads.
func SaveFusionReport(path string, traces []Trace) error {
	return explain.Save(path, traces)
}

// LoadFusionReport reads a decision file written by SaveFusionReport.
func LoadFusionReport(path string) ([]Trace, error) {
	return explain.Load(path)
}

// QuantConfig tunes post-training quantization (see quant.Config).
type QuantConfig = quant.Config

// QuantReport is the outcome of Quantize: the per-op precision map and the
// measured per-task metrics before and after.
type QuantReport = quant.Report

// Quantize post-training-quantizes a trained model in place: it calibrates
// activation ranges on calib's train split, lowers eligible conv/linear
// layers to int8, and greedily de-quantizes the worst offenders until the
// held-out metric drop fits cfg.AccuracyDrop (default 1%). Weights are
// never modified — only annotations are attached — and CompileFused picks
// them up on the next compile. Quantize is a final step before Save/serve;
// further training silently invalidates the annotations.
func Quantize(m *Model, calib *Dataset, cfg QuantConfig) (*QuantReport, error) {
	return quant.Apply(m, calib, cfg)
}

// Evaluate measures a model's per-task test metric on the dataset.
func Evaluate(m *Model, ds *Dataset) (map[int]float64, error) {
	eval := &distill.Evaluator{Dataset: ds}
	return eval.Measure(m)
}

// Latency measures a model's inference latency the way it is served and
// the way the search ranks candidates: its compiled plan on a synthetic
// batch of one, the minimum of 5 timed runs after one warm-up.
func Latency(m *Model) time.Duration { return engine.Latency(m) }

// FLOPs returns a model's analytic per-sample floating point operations.
func FLOPs(m *Model) int64 { return m.FLOPs() }

// Fingerprint returns the model's canonical structural hash — the key the
// search uses to memoize candidate outcomes. It is stable under node-id
// relabeling and sibling reordering but changes under any structural
// mutation (see internal/fingerprint).
func Fingerprint(m *Model) string { return fingerprint.String(m) }

// Save writes a trained model checkpoint to path.
func Save(path string, m *Model) error { return parser.SaveFile(path, m) }

// Load reads a model checkpoint from path.
func Load(path string) (*Model, error) { return parser.LoadFile(path) }

// CompileFused compiles a trained model into the fused inference engine
// (conv+BN folding, fused activations, concurrent branches).
func CompileFused(m *Model) Engine { return engine.Compile(m) }

// ReferenceEngine wraps a model in the eager executor.
func ReferenceEngine(m *Model) Engine { return engine.NewReference(m) }

// MeasureEngine times an engine on a synthetic batch of one sample of the
// given per-sample input shape, returning the minimum of 5 timed runs after
// one warm-up (the measurement Latency takes of a compiled model).
func MeasureEngine(e Engine, inputShape Shape) time.Duration {
	return engine.Measure(e, inputShape)
}

// NewTensor allocates a zero tensor with the given shape.
func NewTensor(shape ...int) *Tensor { return tensor.New(shape...) }

// AllShared builds the all-shared MTL baseline over the model's common
// prefix.
func AllShared(m *Model) (*Model, error) { return mtl.AllShared(m) }

// TreeMTLRecommend returns the TreeMTL recommendation (cheapest
// tree-structured sharing configuration over the common prefix).
func TreeMTLRecommend(m *Model) (*Model, error) {
	recs, err := mtl.TreeMTL(m)
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, errors.New("gmorph: no TreeMTL recommendations")
	}
	return recs[0].Graph, nil
}
