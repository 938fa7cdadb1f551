package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

func TestL1LossValueAndGrad(t *testing.T) {
	p := tensor.FromSlice([]float32{1, -2, 3, 0}, 4)
	q := tensor.FromSlice([]float32{0, 0, 0, 0}, 4)
	loss, grad := L1Loss(p, q)
	if math.Abs(loss-1.5) > 1e-6 {
		t.Fatalf("L1 loss = %v, want 1.5", loss)
	}
	want := []float32{0.25, -0.25, 0.25, 0.25}
	for i, v := range grad.Data() {
		if v != want[i] {
			t.Fatalf("L1 grad = %v, want %v", grad.Data(), want)
		}
	}
}

func TestCrossEntropyUniformLogits(t *testing.T) {
	logits := tensor.New(2, 4)
	loss, grad := CrossEntropyLoss(logits, []int{0, 3})
	if math.Abs(loss-math.Log(4)) > 1e-5 {
		t.Fatalf("CE loss = %v, want log4 = %v", loss, math.Log(4))
	}
	// grad for true class = (softmax - 1)/N = (0.25-1)/2.
	if math.Abs(float64(grad.At(0, 0))-(-0.375)) > 1e-5 {
		t.Fatalf("CE grad = %v", grad.Data())
	}
}

func TestCrossEntropyGradientNumeric(t *testing.T) {
	rng := tensor.NewRNG(33)
	logits := tensor.New(3, 5)
	rng.FillNormal(logits, 0, 1)
	labels := []int{1, 4, 0}
	_, grad := CrossEntropyLoss(logits, labels)
	const eps = 1e-3
	for i := 0; i < logits.Size(); i++ {
		orig := logits.Data()[i]
		logits.Data()[i] = orig + eps
		lp, _ := CrossEntropyLoss(logits, labels)
		logits.Data()[i] = orig - eps
		lm, _ := CrossEntropyLoss(logits, labels)
		logits.Data()[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-float64(grad.Data()[i])) > 1e-3 {
			t.Fatalf("CE grad mismatch at %d: %v vs %v", i, numeric, grad.Data()[i])
		}
	}
}

// Adam on a quadratic must converge to the minimum.
func TestAdamConvergesOnQuadratic(t *testing.T) {
	p := NewParam("x", 3)
	copy(p.Value.Data(), []float32{5, -4, 2})
	target := []float32{1, 2, 3}
	opt := NewAdam([]*Param{p}, 0.1)
	for i := 0; i < 500; i++ {
		opt.ZeroGrad()
		for j := range target {
			p.Grad().Data()[j] = 2 * (p.Value.Data()[j] - target[j])
		}
		opt.Step()
	}
	for j := range target {
		if math.Abs(float64(p.Value.Data()[j]-target[j])) > 1e-2 {
			t.Fatalf("Adam did not converge: %v", p.Value.Data())
		}
	}
}

// A tiny CNN must be able to fit a linearly separable synthetic problem,
// exercising forward, backward, and the optimizer end to end.
func TestTinyCNNFitsSyntheticTask(t *testing.T) {
	rng := tensor.NewRNG(99)
	net := NewSequential("tiny",
		NewConvBlock(rng, 1, 4, true, true), // 8x8 -> 4x4
		NewGlobalAvgPool(),
		NewLinear(rng, 4, 2),
	)
	// Class 0: bright top half; class 1: bright bottom half.
	const n = 64
	x := tensor.New(n, 1, 8, 8)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		labels[i] = i % 2
		for y := 0; y < 8; y++ {
			for xx := 0; xx < 8; xx++ {
				v := float32(rng.NormFloat64()) * 0.1
				if (labels[i] == 0 && y < 4) || (labels[i] == 1 && y >= 4) {
					v += 1
				}
				x.Set(v, i, 0, y, xx)
			}
		}
	}
	opt := NewAdam(net.Params(), 0.01)
	var acc float64
	for epoch := 0; epoch < 60; epoch++ {
		opt.ZeroGrad()
		logits := net.Forward(x, true)
		_, grad := CrossEntropyLoss(logits, labels)
		net.Backward(grad)
		opt.Step()
		correct := 0
		for i, p := range tensor.ArgMaxRow(net.Forward(x, false)) {
			if p == labels[i] {
				correct++
			}
		}
		acc = float64(correct) / n
		if acc == 1 {
			break
		}
	}
	if acc < 0.95 {
		t.Fatalf("tiny CNN failed to fit synthetic task: accuracy %v", acc)
	}
}

// Clone must produce an independent deep copy.
func TestLayerCloneIndependence(t *testing.T) {
	rng := tensor.NewRNG(44)
	layers := []Layer{
		NewConv2d(rng, 2, 3, 3, 1, 1),
		NewLinear(rng, 4, 5),
		NewBatchNorm2d(3),
		NewLayerNorm(6),
		NewMultiHeadAttention(rng, 8, 2),
		NewTransformerBlock(rng, 8, 2, 16),
		NewConvBlock(rng, 2, 3, true, false),
		NewResidualBlock(rng, 2, 4, 2),
		NewRescale2D(rng, 2, 4, 3, 3),
		NewRescaleTokens(rng, 4, 4, 6, 8),
		NewPatchEmbed(rng, 2, 2, 6, 4),
		NewEmbedding(rng, 7, 4, 3),
	}
	for _, l := range layers {
		c := l.Clone()
		lp, cp := l.Params(), c.Params()
		if len(lp) != len(cp) {
			t.Fatalf("%s: clone param count %d != %d", l.Name(), len(cp), len(lp))
		}
		for i := range lp {
			if lp[i].Value.Size() == 0 {
				continue
			}
			cp[i].Value.Data()[0] += 100
			if lp[i].Value.Data()[0] == cp[i].Value.Data()[0] {
				t.Fatalf("%s: clone shares parameter storage", l.Name())
			}
			cp[i].Value.Data()[0] -= 100
		}
	}
}

// OutShape must agree with the actual forward output shape.
func TestOutShapeMatchesForward(t *testing.T) {
	rng := tensor.NewRNG(55)
	cases := []struct {
		layer Layer
		in    []int // per-sample
	}{
		{NewConv2d(rng, 3, 8, 3, 2, 1), []int{3, 9, 9}},
		{NewMaxPool2d(2, 2), []int{4, 8, 8}},
		{NewConvBlock(rng, 3, 6, true, true), []int{3, 8, 8}},
		{NewResidualBlock(rng, 4, 8, 2), []int{4, 8, 8}},
		{NewRescale2D(rng, 3, 7, 5, 6), []int{3, 9, 9}},
		{NewGlobalAvgPool(), []int{5, 4, 4}},
	}
	for _, c := range cases {
		shape := append([]int{2}, c.in...)
		x := tensor.New(shape...)
		rng.FillNormal(x, 0, 1)
		out := c.layer.Forward(x, true)
		want := c.layer.OutShape(c.in)
		got := out.Shape()[1:]
		if !shapeEq(want, got) {
			t.Errorf("%s: OutShape %v but forward produced %v", c.layer.Name(), want, got)
		}
	}
}
