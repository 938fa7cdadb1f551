package core_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

func TestSAPolicyProbabilityEvolution(t *testing.T) {
	p := core.NewSAPolicy()
	if p.P() != 0 {
		t.Fatalf("initial p = %v, want 0", p.P())
	}
	// No elites: p stays 0 regardless of observations.
	p.Observe(1, 0, false, 0)
	if p.P() != 0 {
		t.Fatalf("p with 0 elites = %v", p.P())
	}
	// With elites, p grows as iterations advance (temperature cools).
	p.Observe(1, 0, true, 4)
	early := p.P()
	p.Observe(200, 0, true, 4)
	late := p.P()
	if !(late > early) {
		t.Fatalf("p must grow as temperature cools: early %v late %v", early, late)
	}
	// More elites increase p.
	p.Observe(200, 0, true, 16)
	more := p.P()
	if !(more > late) {
		t.Fatalf("p must grow with elite count: %v vs %v", more, late)
	}
	// Larger accuracy drop decreases p.
	p.Observe(200, 0.9, true, 16)
	dropped := p.P()
	if !(dropped < more) {
		t.Fatalf("p must shrink with accuracy drop: %v vs %v", dropped, more)
	}
	if p.P() < 0 || p.P() > 1 {
		t.Fatalf("p out of [0,1]: %v", p.P())
	}
}

func TestSAPolicyPickBase(t *testing.T) {
	pol := core.NewSAPolicy()
	rng := tensor.NewRNG(1)
	ds := testutil.TinyFace(2, 8, 8)
	orig := testutil.TinyMultiDNN(3, ds)
	elite := &core.Elite{Graph: testutil.TinyMultiDNN(4, ds)}

	// p == 0: always the original.
	for i := 0; i < 10; i++ {
		if pol.PickBase(orig, []*core.Elite{elite}, rng) != orig {
			t.Fatal("p=0 must pick the original")
		}
	}
	// Force p high via many elites at late iteration, low drop.
	pol.Observe(500, 0, true, 16)
	var picked int
	for i := 0; i < 200; i++ {
		if pol.PickBase(orig, []*core.Elite{elite}, rng) == elite.Graph {
			picked++
		}
	}
	if picked == 0 {
		t.Fatal("high p never exploited an elite")
	}
	want := pol.P()
	got := float64(picked) / 200
	if math.Abs(got-want) > 0.15 {
		t.Fatalf("exploit rate %v too far from p %v", got, want)
	}
}

func TestRandomPolicyAlwaysOriginal(t *testing.T) {
	pol := core.RandomPolicy{}
	rng := tensor.NewRNG(5)
	ds := testutil.TinyFace(6, 8, 8)
	orig := testutil.TinyMultiDNN(7, ds)
	elite := &core.Elite{Graph: testutil.TinyMultiDNN(8, ds)}
	pol.Observe(100, 0, true, 16)
	for i := 0; i < 20; i++ {
		if pol.PickBase(orig, []*core.Elite{elite}, rng) != orig {
			t.Fatal("random policy must always pick the original")
		}
	}
}

func TestGraphToDOT(t *testing.T) {
	ds := testutil.TinyFace(151, 8, 4)
	g := testutil.TinyMultiDNN(152, ds)
	dot := g.ToDOT("tiny")
	for _, want := range []string{"digraph", "Input", "ConvBlock", "house", "->"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
	// One edge per node (tree property): count "->" occurrences.
	if got := strings.Count(dot, "->"); got != g.NodeCount() {
		t.Fatalf("DOT has %d edges, want %d", got, g.NodeCount())
	}
}
