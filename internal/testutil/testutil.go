// Package testutil provides tiny shared fixtures for the GMorph test
// suites: a fast synthetic two-task dataset and matching small CNN teacher
// graphs that fine-tune in milliseconds.
package testutil

import (
	"repro/internal/data"
	"repro/internal/distill"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TinyFace returns a small FaceSynth dataset with gender and ethnicity
// tasks over 16x16 images.
func TinyFace(seed uint64, train, test int) *data.Dataset {
	return data.NewFace(data.FaceConfig{
		Train: train, Test: test, Size: 16, Noise: 0.05, Seed: seed,
		Tasks: []string{"gender", "ethnicity"},
	})
}

// TinyCNNBranch appends a 3-block CNN branch for a task to g (input must be
// [3,16,16]) and returns the head.
func TinyCNNBranch(g *graph.Graph, rng *tensor.RNG, taskID, classes int) *graph.Node {
	in := g.Root.InputShape
	b0 := graph.NewBlockNode(taskID, 0, "ConvBlock", in, graph.DomainRaw,
		nn.NewConvBlock(rng, in[0], 6, true, true)) // 16 -> 8
	s1 := graph.Shape{6, 8, 8}
	b1 := graph.NewBlockNode(taskID, 1, "ConvBlock", s1, graph.DomainSpatial,
		nn.NewConvBlock(rng, 6, 12, true, true)) // 8 -> 4
	s2 := graph.Shape{12, 4, 4}
	b2 := graph.NewBlockNode(taskID, 2, "ConvBlock", s2, graph.DomainSpatial,
		nn.NewConvBlock(rng, 12, 12, true, false))
	head := graph.NewBlockNode(taskID, 3, "Head", s2, graph.DomainSpatial,
		nn.NewSequential("head", nn.NewGlobalAvgPool(), nn.NewLinear(rng, 12, classes)))
	g.AppendChain(g.Root, b0, b1, b2, head)
	return head
}

// TinyMultiDNN builds the original two-branch graph for TinyFace: one CNN
// per task over a shared [3,16,16] input.
func TinyMultiDNN(seed uint64, ds *data.Dataset) *graph.Graph {
	rng := tensor.NewRNG(seed)
	g := graph.New(graph.Shape{3, 16, 16}, graph.DomainRaw)
	for i, spec := range ds.Tasks {
		g.TaskNames[i] = spec.Name
		TinyCNNBranch(g, rng, i, spec.Classes)
	}
	g.RefreshCapacities()
	return g
}

// TinyViT builds a ViT-Base teacher per task of ds over its 16x16 images:
// four tokens of width 32, four transformer blocks a branch.
func TinyViT(seed uint64, ds *data.Dataset) *graph.Graph {
	rng := tensor.NewRNG(seed)
	g := graph.New(graph.Shape{3, 16, 16}, graph.DomainRaw)
	for i, spec := range ds.Tasks {
		g.TaskNames[i] = spec.Name
		if _, err := models.AddBranch(g, rng, models.Config{}, models.ViTBase, i, spec.Classes); err != nil {
			panic(err)
		}
	}
	g.RefreshCapacities()
	return g
}

// PretrainTeachers is distill.Pretrain for fixtures, whose shapes are
// built consistently: an error there is a harness bug, so it panics.
func PretrainTeachers(g *graph.Graph, ds *data.Dataset, epochs int, lr float32, seed uint64) map[int]float64 {
	acc, err := distill.Pretrain(g, ds, epochs, lr, seed)
	if err != nil {
		panic(err)
	}
	return acc
}

// TinySharedStemPair builds two single-task graphs over a bit-identical
// two-block stem (3->6 conv+pool, 6->12 conv+pool on [3,16,16] input) that
// diverge in their third block and head — the shared-stem serving fixture.
// Stem batch-norm statistics are perturbed before cloning so conv+BN
// folding is exercised identically on both sides. The first graph has 2
// classes ("a"), the second 5 ("b").
func TinySharedStemPair(seed uint64) (*graph.Graph, *graph.Graph) {
	rng := tensor.NewRNG(seed)
	stem0 := nn.NewConvBlock(rng, 3, 6, true, true)  // 16 -> 8
	stem1 := nn.NewConvBlock(rng, 6, 12, true, true) // 8 -> 4
	for _, b := range []*nn.ConvBlock{stem0, stem1} {
		rng.FillUniform(b.BN.RunningMean, -0.3, 0.3)
		rng.FillUniform(b.BN.RunningVar, 0.5, 1.5)
		rng.FillUniform(b.BN.Gamma.Value, 0.7, 1.3)
		rng.FillUniform(b.BN.Beta.Value, -0.2, 0.2)
	}
	build := func(name string, outC, classes int, hr *tensor.RNG) *graph.Graph {
		g := graph.New(graph.Shape{3, 16, 16}, graph.DomainRaw)
		g.TaskNames[0] = name
		s0 := graph.NewBlockNode(0, 0, "ConvBlock", g.Root.InputShape, graph.DomainRaw, stem0.Clone())
		g.AddChild(g.Root, s0)
		s1 := graph.NewBlockNode(0, 1, "ConvBlock", graph.Shape{6, 8, 8}, graph.DomainSpatial, stem1.Clone())
		g.AddChild(s0, s1)
		b2 := graph.NewBlockNode(0, 2, "ConvBlock", graph.Shape{12, 4, 4}, graph.DomainSpatial,
			nn.NewConvBlock(hr, 12, outC, true, false))
		head := graph.NewBlockNode(0, 3, "Head", graph.Shape{outC, 4, 4}, graph.DomainSpatial,
			nn.NewSequential("head", nn.NewGlobalAvgPool(), nn.NewLinear(hr, outC, classes)))
		g.AppendChain(s1, b2, head)
		g.RefreshCapacities()
		return g
	}
	a := build("a", 12, 2, tensor.NewRNG(seed+1))
	b := build("b", 10, 5, tensor.NewRNG(seed+2))
	return a, b
}
