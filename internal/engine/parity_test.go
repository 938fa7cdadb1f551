package engine_test

import (
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/mutation"
	"repro/internal/tensor"
)

// Cross-executor parity suite: every model-zoo family, plus a mutated
// (fused) graph, through the plan-backed Fused executor, with outputs
// required to agree with Reference (eager) to 1e-4. Multi-branch graphs exercise the
// plan's parallel wave dispatch, so running this suite under -race also
// checks the concurrent executor paths.

// primeBN runs a few training forwards so BatchNorm running statistics move
// away from their (identity-folding) init and the fold math is exercised.
func primeBN(g *graph.Graph, x *tensor.Tensor) {
	for i := 0; i < 3; i++ {
		g.Forward(x, true)
	}
}

// imageInput returns a deterministic normal-filled image batch.
func imageInput(seed uint64, n int, shape graph.Shape) *tensor.Tensor {
	x := tensor.New(append([]int{n}, shape...)...)
	tensor.NewRNG(seed).FillNormal(x, 0, 1)
	return x
}

// tokenInput returns a deterministic valid token-id batch.
func tokenInput(n, t, vocab int) *tensor.Tensor {
	x := tensor.New(n, t)
	for i := range x.Data() {
		x.Data()[i] = float32((i*7 + 3) % vocab)
	}
	return x
}

// assertParity runs x through the compiled executor and compares every
// head against the reference at 1e-4 (scaled by magnitude for large logits).
func assertParity(t *testing.T, g *graph.Graph, x *tensor.Tensor) {
	t.Helper()
	ref := engine.NewReference(g).Forward(x)
	e := engine.Compile(g)
	got := e.Forward(x)
	if len(got) != len(ref) {
		t.Fatalf("%s produced %d heads, reference %d", e.Name(), len(got), len(ref))
	}
	for task, want := range ref {
		o, ok := got[task]
		if !ok {
			t.Fatalf("%s missing head %d", e.Name(), task)
		}
		if !tensor.SameShape(o, want) {
			t.Fatalf("%s head %d shape %v, want %v", e.Name(), task, o.Shape(), want.Shape())
		}
		for i := range want.Data() {
			a, b := float64(want.Data()[i]), float64(o.Data()[i])
			if math.Abs(a-b) > 1e-4*math.Max(1, math.Abs(a)) {
				t.Fatalf("%s head %d elem %d: reference %v, got %v", e.Name(), task, i, a, b)
			}
		}
	}
}

// twoTask builds a two-branch graph of the given architectures over one
// shared input.
func twoTask(t *testing.T, seed uint64, in graph.Shape, cfg models.Config, archA, archB string) *graph.Graph {
	t.Helper()
	rng := tensor.NewRNG(seed)
	g := graph.New(in, graph.DomainRaw)
	g.TaskNames[0], g.TaskNames[1] = archA, archB
	if _, err := models.AddBranch(g, rng, cfg, archA, 0, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := models.AddBranch(g, rng, cfg, archB, 1, 3); err != nil {
		t.Fatal(err)
	}
	g.RefreshCapacities()
	return g
}

func TestParityVGGBlockGranularity(t *testing.T) {
	in := graph.Shape{3, 32, 32}
	g := twoTask(t, 101, in, models.Config{WidthScale: 2}, models.VGG11, models.VGG13)
	primeBN(g, imageInput(102, 4, in))
	assertParity(t, g, imageInput(103, 3, in))
}

func TestParityVGGOpGranularity(t *testing.T) {
	in := graph.Shape{3, 32, 32}
	cfg := models.Config{WidthScale: 2, Granularity: models.GranularityOp}
	g := twoTask(t, 111, in, cfg, models.VGG11, models.VGG11)
	primeBN(g, imageInput(112, 4, in))
	assertParity(t, g, imageInput(113, 2, in))
}

func TestParityResNet(t *testing.T) {
	in := graph.Shape{3, 32, 32}
	g := twoTask(t, 121, in, models.Config{WidthScale: 2}, models.ResNet18, models.ResNet18)
	primeBN(g, imageInput(122, 4, in))
	assertParity(t, g, imageInput(123, 2, in))
}

func TestParityViT(t *testing.T) {
	in := graph.Shape{3, 16, 16}
	g := twoTask(t, 131, in, models.Config{}, models.ViTBase, models.ViTBase)
	assertParity(t, g, imageInput(133, 2, in))
}

func TestParityBERT(t *testing.T) {
	rng := tensor.NewRNG(141)
	g := graph.New(graph.Shape{12}, graph.DomainRaw)
	g.TaskNames[0], g.TaskNames[1] = "cola", "sst"
	cfg := models.Config{Vocab: 40}
	if _, err := models.AddBranch(g, rng, cfg, models.BERTBase, 0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := models.AddBranch(g, rng, cfg, models.BERTBase, 1, 3); err != nil {
		t.Fatal(err)
	}
	assertParity(t, g, tokenInput(2, 12, 40))
}

// TestParityMutated fuses a two-branch VGG graph with the Model Generator's
// mutation pass (inserting Rescale adapters and shared prefixes), then
// demands parity on the mutated topology.
func TestParityMutated(t *testing.T) {
	in := graph.Shape{3, 32, 32}
	g := twoTask(t, 151, in, models.Config{WidthScale: 2}, models.VGG11, models.VGG11)
	primeBN(g, imageInput(152, 4, in))

	pairs := g.ShareablePairs()
	if len(pairs) == 0 {
		t.Fatal("no shareable pairs in two-branch VGG graph")
	}
	res, err := mutation.NewMutator(tensor.NewRNG(153)).Apply(g, pairs[:2])
	if err != nil {
		t.Fatal(err)
	}
	mg := res.Graph
	primeBN(mg, imageInput(154, 4, in)) // settle BN stats of fresh adapters
	assertParity(t, mg, imageInput(155, 2, in))
}
