// Command gmorph runs a GMorph model-fusion search from a JSON
// configuration, mirroring the paper's framework input: a set of teacher
// models plus an optimization config (metric, accuracy threshold,
// fine-tuning hyperparameters, search budget).
//
// Usage:
//
//	gmorph -config fusion.json [-out fused.gmck] [-v]
//
// Example configuration:
//
//	{
//	  "benchmark": "B1",          // a built-in benchmark (B1..B7), or
//	  "teachers": "teachers.gmck",// a checkpoint from cmd/modelzoo
//	  "dataset": {"family": "face", "train": 256, "test": 128,
//	              "size": 32, "seqlen": 16, "seed": 1,
//	              "tasks": ["age","gender","ethnicity"]},
//	  "accuracy_drop": 0.01,
//	  "rounds": 50,
//	  "finetune_epochs": 12,
//	  "learning_rate": 0.002,
//	  "batch_size": 16,
//	  "eval_every": 2,
//	  "early_termination": true,
//	  "rule_filter": true,
//	  "width_scale": 2,
//	  "pretrain_epochs": 10,
//	  "seed": 1
//	}
//
// When "benchmark" is set, the teachers are built and pre-trained from the
// built-in benchmark spec; otherwise "teachers" must point at a checkpoint
// and "dataset" describes the stream it was trained on.
//
// Distributed search: start workers over the same config, then point the
// coordinator at them —
//
//	gmorph -config fusion.json -worker :7070          # terminal 1
//	gmorph -config fusion.json -workers 127.0.0.1:7070  # terminal 2
//
// The coordinator owns all search state; workers are stateless evaluators,
// and the result is bit-identical to a single-process run.
//
// Resuming: run with -memo memo.json, then re-run the same config with a
// larger "rounds". The first rounds replay from the memo without
// fine-tuning and the search continues as one uninterrupted run would.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"

	gmorph "repro"
	"repro/internal/bench"
	"repro/internal/data"
	"repro/internal/parser"
)

type datasetConfig struct {
	Family string   `json:"family"`
	Train  int      `json:"train"`
	Test   int      `json:"test"`
	Size   int      `json:"size"`
	SeqLen int      `json:"seqlen"`
	Seed   uint64   `json:"seed"`
	Tasks  []string `json:"tasks"`
}

type fileConfig struct {
	Benchmark        string         `json:"benchmark"`
	Teachers         string         `json:"teachers"`
	Dataset          *datasetConfig `json:"dataset"`
	AccuracyDrop     float64        `json:"accuracy_drop"`
	Rounds           int            `json:"rounds"`
	FineTuneEpochs   int            `json:"finetune_epochs"`
	LearningRate     float32        `json:"learning_rate"`
	BatchSize        int            `json:"batch_size"`
	EvalEvery        int            `json:"eval_every"`
	EarlyTermination bool           `json:"early_termination"`
	RuleFilter       bool           `json:"rule_filter"`
	RandomPolicy     bool           `json:"random_policy"`
	OptimizeFLOPs    bool           `json:"optimize_flops"`
	WidthScale       int            `json:"width_scale"`
	PretrainEpochs   int            `json:"pretrain_epochs"`
	Seed             uint64         `json:"seed"`
	Workers          []string       `json:"workers"`
	SearchBatch      int            `json:"search_batch"`
	Memo             string         `json:"memo"`
}

// readConfig decodes the config file strictly: an unknown key is an error
// that names it, so a mistyped or retired option cannot silently run a
// different search.
func readConfig(path string) (*fileConfig, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var fc fileConfig
	if err := dec.Decode(&fc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("%s: data after the config object", path)
	}
	return &fc, nil
}

func buildDataset(dc *datasetConfig) (*data.Dataset, error) {
	if dc == nil {
		return nil, fmt.Errorf("config: dataset section required")
	}
	switch dc.Family {
	case "face":
		return data.NewFace(data.FaceConfig{
			Train: dc.Train, Test: dc.Test, Size: dc.Size,
			Noise: 0.08, Seed: dc.Seed, Tasks: dc.Tasks,
		}), nil
	case "scene":
		return data.NewScene(data.SceneConfig{
			Train: dc.Train, Test: dc.Test, Size: dc.Size,
			ObjectClasses: 6, MaxObjects: 3, Noise: 0.05, Seed: dc.Seed,
		}), nil
	case "text":
		return data.NewText(data.TextConfig{
			Train: dc.Train, Test: dc.Test, SeqLen: dc.SeqLen, Vocab: 40, Seed: dc.Seed,
		}), nil
	}
	return nil, fmt.Errorf("config: unknown dataset family %q", dc.Family)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("gmorph: ")
	configPath := flag.String("config", "", "path to the JSON fusion config (required)")
	outPath := flag.String("out", "fused.gmck", "where to write the fused model checkpoint")
	workerAddr := flag.String("worker", "", "serve as a stateless evaluation worker on this address (e.g. :7070) instead of searching")
	workerSlots := flag.Int("worker-slots", 1, "evaluation concurrency in -worker mode")
	workersCSV := flag.String("workers", "", "comma-separated worker addresses for a distributed search")
	batch := flag.Int("batch", 0, "candidates sampled per search round (0 = 1, the paper's Algorithm 1, or 4 when -workers is set)")
	memoPath := flag.String("memo", "", "persist the search memo (teacher scores, outcomes, weights, latencies) to this file, a JSON index followed by the trained checkpoints; re-run with more rounds to resume. Outcomes replay only under the same teachers, dataset, kernels, targets, fine-tune settings and seed")
	statsPath := flag.String("stats", "", "write the search stats (core.SearchStats) as JSON to this file, - for stdout")
	decisionsPath := flag.String("decisions", "", "write the per-decision fusion report (for cmd/inspect -fusion) to this file")
	verbose := flag.Bool("v", false, "log every search round")
	flag.Parse()
	if *configPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	fc, err := readConfig(*configPath)
	if err != nil {
		log.Fatalf("reading config: %v", err)
	}

	var teachers *gmorph.Model
	var ds *gmorph.Dataset
	switch {
	case fc.Benchmark != "":
		spec, err := bench.SpecByID(fc.Benchmark)
		if err != nil {
			log.Fatal(err)
		}
		sc := bench.Small()
		if fc.WidthScale > 0 {
			sc.WidthScale = fc.WidthScale
		}
		if fc.PretrainEpochs > 0 {
			sc.PretrainEpochs = fc.PretrainEpochs
		}
		if fc.Seed != 0 {
			sc.Seed = fc.Seed
		}
		if fc.Dataset != nil {
			if fc.Dataset.Train > 0 {
				sc.Train = fc.Dataset.Train
			}
			if fc.Dataset.Test > 0 {
				sc.Test = fc.Dataset.Test
			}
			if fc.Dataset.Size > 0 {
				sc.ImgSize = fc.Dataset.Size
			}
			if fc.Dataset.SeqLen > 0 {
				sc.SeqLen = fc.Dataset.SeqLen
			}
		}
		log.Printf("building benchmark %s (%s) and pre-training teachers...", spec.ID, spec.App)
		w, err := bench.Build(spec, sc)
		if err != nil {
			log.Fatal(err)
		}
		teachers, ds = w.Teacher, w.Dataset
		for id, a := range w.TeacherAcc {
			log.Printf("teacher %-10s metric %.4f", w.Dataset.Tasks[id].Name, a)
		}
	case fc.Teachers != "":
		teachers, err = parser.LoadFile(fc.Teachers)
		if err != nil {
			log.Fatalf("loading teachers: %v", err)
		}
		ds, err = buildDataset(fc.Dataset)
		if err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatal("config: either benchmark or teachers must be set")
	}

	cfg := gmorph.Config{
		AccuracyDrop:     fc.AccuracyDrop,
		Rounds:           fc.Rounds,
		FineTuneEpochs:   fc.FineTuneEpochs,
		LearningRate:     fc.LearningRate,
		BatchSize:        fc.BatchSize,
		EvalEvery:        fc.EvalEvery,
		EarlyTermination: fc.EarlyTermination,
		RuleFilter:       fc.RuleFilter,
		RandomPolicy:     fc.RandomPolicy,
		OptimizeFLOPs:    fc.OptimizeFLOPs,
		Seed:             fc.Seed,
		Workers:          fc.Workers,
		SearchBatch:      fc.SearchBatch,
		MemoPath:         fc.Memo,
	}
	if *workersCSV != "" {
		cfg.Workers = nil
		for _, w := range strings.Split(*workersCSV, ",") {
			if w = strings.TrimSpace(w); w != "" {
				cfg.Workers = append(cfg.Workers, w)
			}
		}
	}
	if *batch > 0 {
		cfg.SearchBatch = *batch
	}
	if *memoPath != "" {
		cfg.MemoPath = *memoPath
	}

	if *workerAddr != "" {
		w, err := gmorph.NewSearchWorker(teachers, ds, cfg, *workerSlots)
		if err != nil {
			log.Fatalf("building worker: %v", err)
		}
		log.Printf("worker serving on %s (%d slots)", *workerAddr, *workerSlots)
		log.Fatal(http.ListenAndServe(*workerAddr, w.Handler()))
	}
	if *verbose {
		cfg.OnRound = func(tr gmorph.Trace) {
			log.Printf("round %3d: met=%v skipped=%v terminated=%v fromElite=%v best=%v",
				tr.Iteration, tr.Met(), tr.Skipped(), tr.Terminated, tr.FromElite, tr.BestLatency)
		}
	}

	log.Printf("searching (%d rounds, drop <= %.2f%%)...", max(cfg.Rounds, 1), fc.AccuracyDrop*100)
	res, err := gmorph.Fuse(teachers, ds, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if !res.Found {
		log.Printf("no candidate met the accuracy targets; keeping the original models")
	} else {
		log.Printf("fused model: %.2fx speedup (%.3fms -> %.3fms), search %.1fs",
			res.Speedup,
			float64(res.OriginalLatency.Microseconds())/1000,
			float64(res.FusedLatency.Microseconds())/1000,
			res.SearchTime.Seconds())
		for id, a := range res.Accuracy {
			log.Printf("task %-10s metric %.4f (target %.4f)", ds.Tasks[id].Name, a, res.Targets[id])
		}
	}
	if *statsPath != "" {
		payload, err := json.MarshalIndent(res.Stats, "", "  ")
		if err != nil {
			log.Fatalf("encoding stats: %v", err)
		}
		payload = append(payload, '\n')
		if *statsPath == "-" {
			os.Stdout.Write(payload)
		} else if err := os.WriteFile(*statsPath, payload, 0o644); err != nil {
			log.Fatalf("writing stats: %v", err)
		} else {
			log.Printf("wrote search stats to %s", *statsPath)
		}
	}
	if *decisionsPath != "" {
		if err := gmorph.SaveFusionReport(*decisionsPath, res.Traces); err != nil {
			log.Fatalf("writing decisions: %v", err)
		}
		log.Printf("wrote %d fusion decisions to %s (view with inspect -fusion)",
			len(res.Traces), *decisionsPath)
	}
	if err := gmorph.Save(*outPath, res.Model); err != nil {
		log.Fatalf("saving checkpoint: %v", err)
	}
	log.Printf("wrote %s", *outPath)
}
