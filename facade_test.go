package gmorph_test

import (
	"strings"
	"testing"

	gmorph "repro"
)

func TestFacadeLatencyAndFLOPs(t *testing.T) {
	m := gmorph.NewModel(gmorph.Shape{3, 16, 16})
	rng := gmorph.NewRNG(81)
	if err := gmorph.NewBranch(m, rng, "t", 0).ConvBlock(4, true, true).Head(2).Err(); err != nil {
		t.Fatal(err)
	}
	if gmorph.FLOPs(m) <= 0 {
		t.Fatal("FLOPs must be positive")
	}
	if gmorph.Latency(m) <= 0 {
		t.Fatal("Latency must be positive")
	}
	if gmorph.MeasureEngine(gmorph.ReferenceEngine(m), gmorph.Shape{3, 16, 16}) <= 0 {
		t.Fatal("MeasureEngine must be positive")
	}
}

func TestFacadeToDOT(t *testing.T) {
	m := gmorph.NewModel(gmorph.Shape{3, 16, 16})
	rng := gmorph.NewRNG(82)
	if err := gmorph.NewBranch(m, rng, "vision", 0).ConvBlock(4, false, false).Head(2).Err(); err != nil {
		t.Fatal(err)
	}
	dot := m.ToDOT("test")
	if !strings.Contains(dot, "vision") {
		t.Fatalf("DOT should include task names:\n%s", dot)
	}
}

func TestFacadeEvaluateMatchesTargets(t *testing.T) {
	ds := gmorph.NewFaceDataset(32, 16, 16, 83, "gender")
	m := gmorph.NewModel(gmorph.Shape{3, 16, 16})
	rng := gmorph.NewRNG(84)
	if err := gmorph.NewBranch(m, rng, "gender", 0).
		ConvBlock(6, true, true).ConvBlock(8, true, true).Head(2).Err(); err != nil {
		t.Fatal(err)
	}
	beforeAcc, err := gmorph.Evaluate(m, ds)
	if err != nil {
		t.Fatal(err)
	}
	before := beforeAcc[0]
	if _, err := gmorph.Pretrain(m, ds, 6, 0.004, 85); err != nil {
		t.Fatal(err)
	}
	afterAcc, err := gmorph.Evaluate(m, ds)
	if err != nil {
		t.Fatal(err)
	}
	after := afterAcc[0]
	if after < before-0.1 {
		t.Fatalf("training made the model much worse: %.3f -> %.3f", before, after)
	}
	if after < 0.6 {
		t.Fatalf("pretrained gender accuracy %.3f too low", after)
	}
}

func TestZooConstantsExported(t *testing.T) {
	names := []string{
		gmorph.VGG11, gmorph.VGG13, gmorph.VGG16,
		gmorph.ResNet18, gmorph.ResNet34,
		gmorph.ViTBase, gmorph.ViTLarge,
		gmorph.BERTBase, gmorph.BERTLarge,
	}
	seen := map[string]bool{}
	for _, n := range names {
		if n == "" || seen[n] {
			t.Fatalf("bad zoo constant %q", n)
		}
		seen[n] = true
	}
}
