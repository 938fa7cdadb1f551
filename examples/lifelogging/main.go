// Lifelogging (benchmark B5 from the paper): an object-detection ResNet-34
// and a saliency-counting VGG-16 — two entirely different backbone families
// — watch the same scene stream. MTL cannot share anything between them;
// GMorph fuses across families via Rescale adapters. The example also
// compiles both the original and the fused model with the fused inference
// engine (the TensorRT stand-in), reproducing the Table 3 story.
//
// Run with:
//
//	go run ./examples/lifelogging
package main

import (
	"fmt"
	"log"

	gmorph "repro"
)

func main() {
	log.SetFlags(0)

	ds := gmorph.NewSceneDataset(128, 64, 32, 31)
	rng := gmorph.NewRNG(32)
	teachers := gmorph.NewModel(gmorph.Shape{3, 32, 32})
	zoo := gmorph.ZooConfig{WidthScale: 4}
	must(gmorph.AddBranch(teachers, rng, zoo, gmorph.ResNet34, "object", 0, 6))
	must(gmorph.AddBranch(teachers, rng, zoo, gmorph.VGG16, "salient", 1, 4))

	teacherAcc, err := gmorph.Pretrain(teachers, ds, 10, 0.003, 33)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("teachers: object mAP %.3f, salient acc %.3f\n", teacherAcc[0], teacherAcc[1])

	// Heterogeneous backbones: the MTL common prefix is empty, so
	// All-shared degenerates to the original models.
	shared, err := gmorph.AllShared(teachers)
	must(err)
	fmt.Printf("all-shared baseline FLOPs: %d (original %d) — no sharing possible\n",
		gmorph.FLOPs(shared), gmorph.FLOPs(teachers))

	res, err := gmorph.Fuse(teachers, ds, gmorph.Config{
		AccuracyDrop:   0.05,
		Rounds:         12,
		FineTuneEpochs: 10,
		LearningRate:   0.002,
		EvalEvery:      2,
		Seed:           34,
	})
	must(err)
	if !res.Found {
		fmt.Println("gmorph: no candidate met the targets at this tiny scale")
		return
	}
	fmt.Printf("gmorph fused: object %.3f salient %.3f | %.2fx speedup\n",
		res.Accuracy[0], res.Accuracy[1], res.Speedup)

	// Compiler complementarity: measure both models under both engines.
	shape := gmorph.Shape{3, 32, 32}
	type row struct {
		name string
		m    *gmorph.Model
	}
	for _, r := range []row{{"original", teachers}, {"fused", res.Model}} {
		refLat := gmorph.MeasureEngine(gmorph.ReferenceEngine(r.m), shape)
		compLat := gmorph.MeasureEngine(gmorph.CompileFused(r.m), shape)
		fmt.Printf("%-8s reference %v | compiled %v\n", r.name, refLat, compLat)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
