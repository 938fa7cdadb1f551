package graph

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// buildTwoTaskGraph constructs a small two-branch CNN graph:
//
//	Input [1,8,8]
//	├── t0: ConvBlock(1->4,pool) -> ConvBlock(4->8,pool) -> Head(8->3)
//	└── t1: ConvBlock(1->4,pool) -> Head(4->2)
func buildTwoTaskGraph(seed uint64) *Graph {
	rng := tensor.NewRNG(seed)
	g := New(Shape{1, 8, 8}, DomainRaw)
	g.TaskNames[0] = "taskA"
	g.TaskNames[1] = "taskB"

	b0 := NewBlockNode(0, 0, "ConvBlock", Shape{1, 8, 8}, DomainSpatial, nn.NewConvBlock(rng, 1, 4, true, true))
	b1 := NewBlockNode(0, 1, "ConvBlock", Shape{4, 4, 4}, DomainSpatial, nn.NewConvBlock(rng, 4, 8, true, true))
	h0 := NewBlockNode(0, 2, "Head", Shape{8, 2, 2}, DomainSpatial,
		nn.NewSequential("head0", nn.NewGlobalAvgPool(), nn.NewLinear(rng, 8, 3)))
	g.AddChild(g.Root, b0)
	g.AddChild(b0, b1)
	g.AddChild(b1, h0)

	c0 := NewBlockNode(1, 0, "ConvBlock", Shape{1, 8, 8}, DomainSpatial, nn.NewConvBlock(rng, 1, 4, true, true))
	h1 := NewBlockNode(1, 1, "Head", Shape{4, 4, 4}, DomainSpatial,
		nn.NewSequential("head1", nn.NewGlobalAvgPool(), nn.NewLinear(rng, 4, 2)))
	g.AddChild(g.Root, c0)
	g.AddChild(c0, h1)
	return g
}

func TestValidateAcceptsWellFormedGraph(t *testing.T) {
	g := buildTwoTaskGraph(1)
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate() = %v, want nil", err)
	}
}

func TestValidateRejectsShapeMismatch(t *testing.T) {
	g := buildTwoTaskGraph(2)
	// Corrupt a node's expected input shape.
	g.Heads[0].InputShape = Shape{8, 3, 3}
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted a shape mismatch")
	}
}

func TestValidateRejectsNonTree(t *testing.T) {
	g := buildTwoTaskGraph(3)
	// Make one node a child of two parents.
	shared := g.Heads[1]
	other := g.Heads[0].Parent
	other.Children = append(other.Children, shared)
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted a DAG that is not a tree")
	}
}

func TestNodesDeterministicOrder(t *testing.T) {
	g := buildTwoTaskGraph(4)
	a := g.Nodes()
	b := g.Nodes()
	if len(a) != 5 {
		t.Fatalf("NodeCount = %d, want 5", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Nodes() order is not deterministic")
		}
	}
}

func TestPathFromRoot(t *testing.T) {
	g := buildTwoTaskGraph(5)
	p := g.Path(g.Heads[0])
	if len(p) != 3 {
		t.Fatalf("path length = %d, want 3", len(p))
	}
	if p[0].OpID != 0 || p[2] != g.Heads[0] {
		t.Fatalf("path order wrong: %v %v %v", p[0].ID(), p[1].ID(), p[2].ID())
	}
}

func TestTaskSet(t *testing.T) {
	g := buildTwoTaskGraph(6)
	root := g.Root
	set := g.TaskSet(root)
	if !set[0] || !set[1] || len(set) != 2 {
		t.Fatalf("root task set = %v", set)
	}
	branch := g.Heads[1].Parent
	set = g.TaskSet(branch)
	if set[0] || !set[1] {
		t.Fatalf("branch task set = %v", set)
	}
}

func TestForwardProducesPerTaskOutputs(t *testing.T) {
	g := buildTwoTaskGraph(7)
	rng := tensor.NewRNG(8)
	x := tensor.New(3, 1, 8, 8)
	rng.FillNormal(x, 0, 1)
	out := g.Forward(x, false)
	if len(out) != 2 {
		t.Fatalf("Forward produced %d outputs, want 2", len(out))
	}
	if out[0].Dim(0) != 3 || out[0].Dim(1) != 3 {
		t.Fatalf("task 0 output shape = %v", out[0].Shape())
	}
	if out[1].Dim(1) != 2 {
		t.Fatalf("task 1 output shape = %v", out[1].Shape())
	}
}

// Backward through a graph with a shared trunk must match numeric parameter
// gradients.
func TestBackwardSharedTrunkNumeric(t *testing.T) {
	rng := tensor.NewRNG(11)
	// Input -> shared ConvBlock -> two heads (so the trunk gradient is the
	// sum of both branch gradients).
	g := New(Shape{1, 4, 4}, DomainRaw)
	trunkLayer := nn.NewConvBlock(rng, 1, 3, false, false)
	trunk := NewBlockNode(0, 0, "ConvBlock", Shape{1, 4, 4}, DomainSpatial, trunkLayer)
	g.AddChild(g.Root, trunk)
	h0 := NewBlockNode(0, 1, "Head", Shape{3, 4, 4}, DomainSpatial,
		nn.NewSequential("h0", nn.NewGlobalAvgPool(), nn.NewLinear(rng, 3, 2)))
	h1 := NewBlockNode(1, 1, "Head", Shape{3, 4, 4}, DomainSpatial,
		nn.NewSequential("h1", nn.NewGlobalAvgPool(), nn.NewLinear(rng, 3, 2)))
	g.AddChild(trunk, h0)
	g.AddChild(trunk, h1)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}

	x := tensor.New(2, 1, 4, 4)
	rng.FillNormal(x, 0.2, 1)

	// Scalar loss: sum of all task outputs.
	lossOf := func() float64 {
		outs := g.Forward(x.Clone(), true)
		var l float64
		for _, o := range outs {
			l += o.Sum()
		}
		return l
	}
	for _, p := range g.Params() {
		p.ZeroGrad()
	}
	outs := g.Forward(x.Clone(), true)
	grads := make(map[int]*tensor.Tensor)
	for id, o := range outs {
		grads[id] = tensor.Full(1, o.Shape()...)
	}
	// The graph input's gradient is not computed: the trunk reads the input,
	// so it runs BackwardParams (its input gradient is pinned by
	// TestConvBlockGradient in internal/nn).
	g.Backward(grads)

	const eps = 1e-3
	// Check trunk parameters (they receive gradient from both branches).
	conv := trunkLayer.Conv
	for _, c := range []struct {
		p   *nn.Param
		idx int
	}{{conv.Weight, 0}, {conv.Weight, 5}, {conv.Weight, 13}, {conv.Bias, 0}, {conv.Bias, 2}} {
		orig := c.p.Value.Data()[c.idx]
		c.p.Value.Data()[c.idx] = orig + eps
		lp := lossOf()
		c.p.Value.Data()[c.idx] = orig - eps
		lm := lossOf()
		c.p.Value.Data()[c.idx] = orig
		numeric := (lp - lm) / (2 * eps)
		analytic := float64(c.p.Grad().Data()[c.idx])
		if math.Abs(numeric-analytic) > 2e-2*math.Max(1, math.Abs(numeric)) {
			t.Fatalf("trunk %s[%d] grad mismatch: numeric %v analytic %v", c.p.Name, c.idx, numeric, analytic)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	g := buildTwoTaskGraph(12)
	c := g.Clone()
	if err := c.Validate(); err != nil {
		t.Fatalf("clone invalid: %v", err)
	}
	if c.NodeCount() != g.NodeCount() {
		t.Fatalf("clone node count %d != %d", c.NodeCount(), g.NodeCount())
	}
	// Mutating clone weights must not affect the original.
	cp := c.Params()
	gp := g.Params()
	if len(cp) != len(gp) {
		t.Fatalf("param counts differ: %d vs %d", len(cp), len(gp))
	}
	cp[0].Value.Data()[0] += 42
	if gp[0].Value.Data()[0] == cp[0].Value.Data()[0] {
		t.Fatal("clone shares parameter storage with original")
	}
	// Structural mutation independence.
	c.Heads[0].Parent.Children = nil
	if len(g.Heads[0].Parent.Children) == 0 {
		t.Fatal("clone shares node structure with original")
	}
}

func TestShapeSimilar(t *testing.T) {
	cases := []struct {
		a, b Shape
		want bool
	}{
		{Shape{4, 8, 8}, Shape{4, 16, 16}, true},  // channel matches
		{Shape{4, 8, 8}, Shape{2, 8, 16}, true},   // height matches
		{Shape{4, 8, 8}, Shape{2, 16, 32}, false}, // nothing matches
		{Shape{4, 8, 8}, Shape{4, 8, 8}, true},    // identical
		{Shape{4, 8}, Shape{4, 8, 8}, false},      // rank mismatch
		{Shape{16, 32}, Shape{16, 64}, true},      // tokens match
	}
	for _, c := range cases {
		if got := c.a.Similar(c.b); got != c.want {
			t.Errorf("Similar(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestShareablePairsLegality(t *testing.T) {
	g := buildTwoTaskGraph(14)
	pairs := g.ShareablePairs()
	if len(pairs) == 0 {
		t.Fatal("no shareable pairs found")
	}
	for _, p := range pairs {
		if p.Host == p.Guest {
			t.Fatal("self pair emitted")
		}
		if !p.Host.InputShape.Similar(p.Guest.InputShape) {
			t.Fatalf("pair %s/%s not shape-similar", p.Host.ID(), p.Guest.ID())
		}
		if p.Guest.Parent == p.Host.Parent {
			t.Fatalf("no-op pair emitted: %s/%s", p.Host.ID(), p.Guest.ID())
		}
		if isDescendant(p.Guest, p.Host) {
			t.Fatalf("cycle-creating pair emitted: %s/%s", p.Host.ID(), p.Guest.ID())
		}
	}
	// Determinism.
	again := g.ShareablePairs()
	if len(again) != len(pairs) {
		t.Fatal("ShareablePairs not deterministic in length")
	}
	for i := range pairs {
		if pairs[i] != again[i] {
			t.Fatal("ShareablePairs not deterministic in order")
		}
	}
}

func TestCapacityProfile(t *testing.T) {
	g := buildTwoTaskGraph(15)
	g.RefreshCapacities()
	p := g.Capacity()
	if p.Shared != 0 {
		t.Fatalf("unfused graph has shared capacity %d", p.Shared)
	}
	var want int64
	for _, n := range g.Nodes() {
		want += n.Capacity
	}
	if p.Total != want {
		t.Fatalf("Total = %d, want %d", p.Total, want)
	}
	if p.TaskTotal[0]+p.TaskTotal[1] != p.Total {
		t.Fatalf("per-task totals %v do not sum to total %d", p.TaskTotal, p.Total)
	}
	if p.TaskSpecific[0] != p.TaskTotal[0] {
		t.Fatal("unfused graph: task-specific must equal task-total")
	}
}

func TestMoreAggressiveOrdering(t *testing.T) {
	a := CapacityProfile{
		Total:        80,
		TaskTotal:    map[int]int64{0: 50, 1: 50},
		TaskSpecific: map[int]int64{0: 30, 1: 30},
		Shared:       20,
	}
	b := CapacityProfile{
		Total:        100,
		TaskTotal:    map[int]int64{0: 50, 1: 50},
		TaskSpecific: map[int]int64{0: 50, 1: 50},
		Shared:       0,
	}
	if !a.MoreAggressiveThan(b) {
		t.Fatal("a should be more aggressive than b")
	}
	if b.MoreAggressiveThan(a) {
		t.Fatal("b should not be more aggressive than a")
	}
	if a.MoreAggressiveThan(a) {
		t.Fatal("a profile is not strictly more aggressive than itself")
	}
	// A task with more task-total capacity breaks the ordering.
	c := a
	c.TaskTotal = map[int]int64{0: 60, 1: 40}
	if c.MoreAggressiveThan(b) {
		t.Fatal("c violates condition 2 and must not be more aggressive")
	}
}

func TestFLOPsPositiveAndAdditive(t *testing.T) {
	g := buildTwoTaskGraph(16)
	total := g.FLOPs()
	if total <= 0 {
		t.Fatal("FLOPs must be positive")
	}
	var sum int64
	for _, n := range g.Nodes() {
		sum += n.Layer.FLOPs(n.InputShape)
	}
	if total != sum {
		t.Fatalf("FLOPs %d != node sum %d", total, sum)
	}
}

func TestDomainString(t *testing.T) {
	if DomainSpatial.String() != "spatial" || DomainRaw.String() != "raw" {
		t.Fatal("Domain.String() broken")
	}
}

func TestBackwardMissingGradPanics(t *testing.T) {
	g := buildTwoTaskGraph(21)
	x := tensor.New(1, 1, 8, 8)
	g.Forward(x, true)
	defer func() {
		if recover() == nil {
			t.Fatal("missing task gradient must panic")
		}
	}()
	g.Backward(map[int]*tensor.Tensor{0: tensor.New(1, 3)}) // task 1 missing
}

func TestStringRendersTree(t *testing.T) {
	g := buildTwoTaskGraph(22)
	s := g.String()
	for _, want := range []string{"Input", "ConvBlock", "Head"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() missing %q:\n%s", want, s)
		}
	}
}

// Validate must be idempotent and side-effect free.
func TestValidateIdempotent(t *testing.T) {
	g := buildTwoTaskGraph(23)
	for i := 0; i < 3; i++ {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// Property: cloning preserves the capacity profile exactly.
func TestClonePreservesCapacityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		g := buildTwoTaskGraph(seed)
		g.RefreshCapacities()
		c := g.Clone()
		c.RefreshCapacities()
		a, b := g.Capacity(), c.Capacity()
		if a.Total != b.Total || a.Shared != b.Shared {
			return false
		}
		for k, v := range a.TaskTotal {
			if b.TaskTotal[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
