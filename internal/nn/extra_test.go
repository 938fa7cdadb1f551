package nn

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestFlattenRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(70)
	f := NewFlatten()
	x := tensor.New(2, 3, 4, 4)
	rng.FillNormal(x, 0, 1)
	y := f.Forward(x, true)
	if y.Dim(0) != 2 || y.Dim(1) != 48 {
		t.Fatalf("flatten shape %v", y.Shape())
	}
	g := tensor.New(2, 48)
	rng.FillNormal(g, 0, 1)
	gi := f.Backward(g)
	if gi.Rank() != 4 || gi.Dim(3) != 4 {
		t.Fatalf("flatten backward shape %v", gi.Shape())
	}
	for i := range g.Data() {
		if g.Data()[i] != gi.Data()[i] {
			t.Fatal("flatten must pass gradients through unchanged")
		}
	}
	if f.FLOPs([]int{3, 4, 4}) != 0 {
		t.Fatal("flatten costs no FLOPs")
	}
	if got := f.OutShape([]int{3, 4, 4}); len(got) != 1 || got[0] != 48 {
		t.Fatalf("flatten OutShape %v", got)
	}
}

func TestAdamWeightDecayShrinksWeights(t *testing.T) {
	p := NewParam("w", 1)
	p.Value.Data()[0] = 1
	a := NewAdam([]*Param{p}, 0.01)
	a.WeightDecay = 0.5
	// Zero gradient: only decay acts.
	for i := 0; i < 100; i++ {
		a.ZeroGrad()
		a.Step()
	}
	if v := p.Value.Data()[0]; v >= 1 {
		t.Fatalf("weight decay had no effect: %v", v)
	}
}

func TestGELUKnownValues(t *testing.T) {
	// GELU(0) = 0; GELU(large) ~ identity; GELU(-large) ~ 0.
	g := NewGELU()
	x := tensor.FromSlice([]float32{0, 5, -5}, 3)
	y := g.Forward(x, true)
	if math.Abs(float64(y.Data()[0])) > 1e-6 {
		t.Fatalf("GELU(0) = %v", y.Data()[0])
	}
	if math.Abs(float64(y.Data()[1]-5)) > 1e-3 {
		t.Fatalf("GELU(5) = %v", y.Data()[1])
	}
	if math.Abs(float64(y.Data()[2])) > 1e-3 {
		t.Fatalf("GELU(-5) = %v", y.Data()[2])
	}
}

// BatchNorm in eval mode must be a deterministic affine map: two eval
// passes over the same input agree, and eval stats do not drift.
func TestBatchNormEvalStable(t *testing.T) {
	rng := tensor.NewRNG(71)
	bn := NewBatchNorm2d(3)
	warm := tensor.New(8, 3, 4, 4)
	rng.FillNormal(warm, 0.5, 2)
	for i := 0; i < 5; i++ {
		bn.Forward(warm, true)
	}
	mean0 := bn.RunningMean.Clone()
	x := tensor.New(2, 3, 4, 4)
	rng.FillNormal(x, 0, 1)
	y1 := bn.Forward(x, false)
	y2 := bn.Forward(x, false)
	for i := range y1.Data() {
		if y1.Data()[i] != y2.Data()[i] {
			t.Fatal("eval-mode batchnorm not deterministic")
		}
	}
	for i := range mean0.Data() {
		if mean0.Data()[i] != bn.RunningMean.Data()[i] {
			t.Fatal("eval-mode forward mutated running stats")
		}
	}
}

// Training then evaluating must approximately normalize the training
// distribution (running stats converge to batch stats).
func TestBatchNormRunningStatsConverge(t *testing.T) {
	rng := tensor.NewRNG(72)
	bn := NewBatchNorm2d(1)
	x := tensor.New(16, 1, 4, 4)
	rng.FillNormal(x, 3, 2)
	for i := 0; i < 200; i++ {
		bn.Forward(x, true)
	}
	m := float64(bn.RunningMean.Data()[0])
	v := float64(bn.RunningVar.Data()[0])
	if math.Abs(m-3) > 0.3 {
		t.Fatalf("running mean %v, want ~3", m)
	}
	if math.Abs(v-4) > 1.2 {
		t.Fatalf("running var %v, want ~4", v)
	}
}

// Rescale2D with identical shapes must be an exact identity (no projection
// layer, no interpolation error).
func TestRescale2DIdentity(t *testing.T) {
	rng := tensor.NewRNG(73)
	r := NewRescale2D(rng, 4, 4, 6, 6)
	if r.Proj != nil {
		t.Fatal("same-channel rescale must not project")
	}
	x := tensor.New(2, 4, 6, 6)
	rng.FillNormal(x, 0, 1)
	y := r.Forward(x, true)
	for i := range x.Data() {
		if x.Data()[i] != y.Data()[i] {
			t.Fatal("identity rescale changed values")
		}
	}
	if len(r.Params()) != 0 {
		t.Fatal("identity rescale has parameters")
	}
}

// RescaleTokens with identical dims is the identity too.
func TestRescaleTokensIdentity(t *testing.T) {
	rng := tensor.NewRNG(74)
	r := NewRescaleTokens(rng, 5, 8, 5, 8)
	x := tensor.New(2, 5, 8)
	rng.FillNormal(x, 0, 1)
	y := r.Forward(x, true)
	for i := range x.Data() {
		if x.Data()[i] != y.Data()[i] {
			t.Fatal("identity token rescale changed values")
		}
	}
}

// Property: Sequential FLOPs equals the sum of its layers' FLOPs with
// propagated shapes.
func TestSequentialFLOPsAdditiveProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		c1 := NewConv2d(rng, 2, 3, 3, 1, 1)
		c2 := NewConv2d(rng, 3, 4, 3, 2, 1)
		s := NewSequential("s", c1, NewReLU(), c2)
		in := []int{2, 8, 8}
		mid := c1.OutShape(in)
		want := c1.FLOPs(in) + NewReLU().FLOPs(mid) + c2.FLOPs(mid)
		return s.FLOPs(in) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// Property: every layer's Clone produces identical forward outputs.
func TestCloneForwardEquivalenceProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed | 1)
		l := NewConvBlock(rng, 2, 3, true, false)
		x := tensor.New(1, 2, 4, 4)
		rng.FillNormal(x, 0, 1)
		y1 := l.Forward(x, false)
		y2 := l.Clone().Forward(x, false)
		for i := range y1.Data() {
			if y1.Data()[i] != y2.Data()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Multiple Forward/Backward cycles must accumulate gradients additively.
func TestGradientAccumulation(t *testing.T) {
	rng := tensor.NewRNG(75)
	l := NewLinear(rng, 3, 2)
	x := tensor.New(2, 3)
	rng.FillNormal(x, 0, 1)
	g := tensor.New(2, 2)
	rng.FillNormal(g, 0, 1)

	l.Forward(x, true)
	l.Backward(g)
	once := l.Weight.Grad().Clone()

	for _, p := range l.Params() {
		p.ZeroGrad()
	}
	l.Forward(x, true)
	l.Backward(g)
	l.Forward(x, true)
	l.Backward(g)
	for i := range once.Data() {
		want := 2 * once.Data()[i]
		got := l.Weight.Grad().Data()[i]
		if math.Abs(float64(got-want)) > 1e-4*math.Max(1, math.Abs(float64(want))) {
			t.Fatalf("gradient accumulation broken at %d: %v vs %v", i, got, want)
		}
	}
}

func TestMaxPool2dParamsEmpty(t *testing.T) {
	if NewMaxPool2d(2, 2).Params() != nil {
		t.Fatal("maxpool has no params")
	}
}

func TestLayerNames(t *testing.T) {
	rng := tensor.NewRNG(76)
	cases := map[string]Layer{
		"Conv2d(2->3,k3,s1)": NewConv2d(rng, 2, 3, 3, 1, 1),
		"Linear(4->5)":       NewLinear(rng, 4, 5),
		"ReLU":               NewReLU(),
		"BatchNorm2d(3)":     NewBatchNorm2d(3),
	}
	for want, l := range cases {
		if got := l.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}
