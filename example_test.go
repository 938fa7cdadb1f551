package gmorph_test

import (
	"fmt"

	gmorph "repro"
)

// ExampleFuse demonstrates the end-to-end fusion flow on two small zoo
// models. (Not executed during tests — fusion timing is machine-dependent;
// see examples/quickstart for a runnable version.)
func ExampleFuse() {
	ds := gmorph.NewFaceDataset(128, 64, 32, 7, "gender", "ethnicity")
	rng := gmorph.NewRNG(42)
	teachers := gmorph.NewModel(gmorph.Shape{3, 32, 32})
	zoo := gmorph.ZooConfig{WidthScale: 4}
	_ = gmorph.AddBranch(teachers, rng, zoo, gmorph.VGG11, "gender", 0, 2)
	_ = gmorph.AddBranch(teachers, rng, zoo, gmorph.VGG11, "ethnicity", 1, 3)
	if _, err := gmorph.Pretrain(teachers, ds, 10, 0.004, 1); err != nil {
		panic(err)
	}

	res, err := gmorph.Fuse(teachers, ds, gmorph.Config{
		AccuracyDrop:   0.05,
		Rounds:         10,
		FineTuneEpochs: 10,
	})
	if err == nil && res.Found {
		fmt.Printf("speedup %.1fx\n", res.Speedup)
	}
}

// ExampleQuantize quantizes a fused model to int8 under a 1% accuracy
// budget and saves it, as the README shows. (Not executed during tests,
// like ExampleFuse.)
func ExampleQuantize() {
	ds := gmorph.NewFaceDataset(128, 64, 32, 7, "gender", "ethnicity")
	rng := gmorph.NewRNG(42)
	teachers := gmorph.NewModel(gmorph.Shape{3, 32, 32})
	zoo := gmorph.ZooConfig{WidthScale: 4}
	_ = gmorph.AddBranch(teachers, rng, zoo, gmorph.VGG11, "gender", 0, 2)
	_ = gmorph.AddBranch(teachers, rng, zoo, gmorph.VGG11, "ethnicity", 1, 3)
	if _, err := gmorph.Pretrain(teachers, ds, 10, 0.004, 1); err != nil {
		panic(err)
	}
	res, err := gmorph.Fuse(teachers, ds, gmorph.Config{AccuracyDrop: 0.05, Rounds: 10, FineTuneEpochs: 10})
	if err != nil {
		panic(err)
	}

	rep, err := gmorph.Quantize(res.Model, ds, gmorph.QuantConfig{
		AccuracyDrop: 0.01, // worst tolerated per-task metric drop
	})
	if err != nil {
		panic(err)
	}
	// rep.QuantizedOps ops run at int8, rep.Drop is the measured drop.
	fmt.Printf("%d ops at int8, drop %.3f\n", rep.QuantizedOps, rep.Drop)
	err = gmorph.Save("fused.gmck", res.Model) // format v4 carries the int8 state
	if err != nil {
		panic(err)
	}
}

// ExampleNewBranch shows how to fuse custom (non-zoo) architectures.
func ExampleNewBranch() {
	m := gmorph.NewModel(gmorph.Shape{3, 16, 16})
	rng := gmorph.NewRNG(1)
	b := gmorph.NewBranch(m, rng, "depth", 0).
		ConvBlock(16, true, true).
		ResidualBlock(32, 2).
		Head(5)
	if err := b.Err(); err != nil {
		fmt.Println(err)
	}
}
