package engine_test

import (
	"testing"

	"repro/internal/engine"
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
	lr := engine.Measure(ref, g.Root.InputShape, 2, 1, 3)
	lf := engine.Measure(fused, g.Root.InputShape, 2, 1, 3)
	if lr <= 0 || lf <= 0 {
		t.Fatalf("latencies must be positive: %v %v", lr, lf)
	}
	if ref.Name() != "reference" || fused.Name() != "fused" {
		t.Fatal("engine names broken")
	}
}
