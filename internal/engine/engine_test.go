package engine_test

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/mutation"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

func TestCompileDoesNotMutateGraph(t *testing.T) {
	ds := testutil.TinyFace(6, 8, 4)
	g := testutil.TinyMultiDNN(7, ds)
	snap := g.Params()[0].Value.Clone()
	_ = engine.Compile(g)
	if got := g.Params()[0].Value; got.Data()[0] != snap.Data()[0] {
		t.Fatal("Compile mutated the source graph")
	}
}

func TestMeasurePositive(t *testing.T) {
	ds := testutil.TinyFace(8, 8, 4)
	g := testutil.TinyMultiDNN(9, ds)
	ref := engine.NewReference(g)
	fused := engine.Compile(g)
	lr := engine.Measure(ref, g.Root.InputShape)
	lf := engine.Measure(fused, g.Root.InputShape)
	if lr <= 0 || lf <= 0 {
		t.Fatalf("latencies must be positive: %v %v", lr, lf)
	}
	if ref.Name() != "reference" || fused.Name() != "fused" {
		t.Fatal("engine names broken")
	}
}

// Latency times the compiled plan of a graph and of a mutated graph whose
// two tasks share their first block.
func TestLatencyPositiveAndOrdered(t *testing.T) {
	ds := testutil.TinyFace(3, 8, 8)
	g := testutil.TinyMultiDNN(4, ds)
	if lat := engine.Latency(g); lat <= 0 {
		t.Fatal("latency must be positive")
	}
	res, err := mutation.NewMutator(tensor.NewRNG(5)).Apply(g, []graph.Pair{{
		Host:  mutation.FindNode(g, 0, 1),
		Guest: mutation.FindNode(g, 1, 1),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if lat := engine.Latency(res.Graph); lat <= 0 {
		t.Fatal("shared graph's latency must be positive")
	}
	if res.Graph.FLOPs() >= g.FLOPs() {
		t.Fatal("shared graph must cost fewer FLOPs")
	}
}
