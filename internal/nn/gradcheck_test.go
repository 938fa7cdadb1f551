package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

// scalarLoss reduces a tensor to a scalar by a fixed random projection so
// gradient checks cover all output elements with distinct weights.
type scalarLoss struct {
	w *tensor.Tensor
}

func newScalarLoss(rng *tensor.RNG, shape []int) *scalarLoss {
	w := tensor.New(shape...)
	rng.FillNormal(w, 0, 1)
	return &scalarLoss{w: w}
}

func (s *scalarLoss) value(out *tensor.Tensor) float64 {
	var l float64
	od, wd := out.Data(), s.w.Data()
	for i := range od {
		l += float64(od[i]) * float64(wd[i])
	}
	return l
}

func (s *scalarLoss) grad() *tensor.Tensor { return s.w.Clone() }

// checkLayerGrad numerically verifies the gradients of a layer with respect
// to its input and every parameter. train selects the forward mode.
func checkLayerGrad(t *testing.T, layer Layer, x *tensor.Tensor, train bool, tol float64) {
	t.Helper()
	rng := tensor.NewRNG(777)

	// Analytic gradients.
	out := layer.Forward(x.Clone(), train)
	loss := newScalarLoss(rng, out.Shape())
	for _, p := range layer.Params() {
		p.ZeroGrad()
	}
	gin := layer.Backward(loss.grad())

	const eps = 1e-3
	check := func(name string, data []float32, analytic []float32, n int) {
		stride := 1
		if n > 24 {
			stride = n / 24 // sample indices for large tensors
		}
		for i := 0; i < n; i += stride {
			orig := data[i]
			data[i] = orig + eps
			lp := loss.value(layer.Forward(x.Clone(), train))
			data[i] = orig - eps
			lm := loss.value(layer.Forward(x.Clone(), train))
			data[i] = orig
			numeric := (lp - lm) / (2 * eps)
			a := float64(analytic[i])
			scale := math.Max(1, math.Max(math.Abs(numeric), math.Abs(a)))
			if math.Abs(numeric-a)/scale > tol {
				t.Fatalf("%s: gradient mismatch at %d: numeric %.6f analytic %.6f (layer %s)",
					name, i, numeric, a, layer.Name())
			}
		}
	}

	// Input gradient: perturb x (re-cloned each eval so cached state resets).
	xd := x.Data()
	check("input", xd, gin.Data(), len(xd))

	// Parameter gradients.
	for _, p := range layer.Params() {
		check("param:"+p.Name, p.Value.Data(), p.Grad().Data(), p.Value.Size())
	}
}

func TestConv2dGradient(t *testing.T) {
	rng := tensor.NewRNG(1)
	l := NewConv2d(rng, 3, 4, 3, 2, 1)
	x := tensor.New(2, 3, 5, 5)
	rng.FillNormal(x, 0, 1)
	checkLayerGrad(t, l, x, true, 2e-2)
}

func TestConv2d1x1Gradient(t *testing.T) {
	rng := tensor.NewRNG(2)
	l := NewConv2d(rng, 4, 2, 1, 1, 0)
	x := tensor.New(1, 4, 3, 3)
	rng.FillNormal(x, 0, 1)
	checkLayerGrad(t, l, x, true, 2e-2)
}

func TestLinearGradient(t *testing.T) {
	rng := tensor.NewRNG(3)
	l := NewLinear(rng, 6, 4)
	x := tensor.New(3, 6)
	rng.FillNormal(x, 0, 1)
	checkLayerGrad(t, l, x, true, 2e-2)
}

func TestLinearTokenGradient(t *testing.T) {
	rng := tensor.NewRNG(4)
	l := NewLinear(rng, 5, 3)
	x := tensor.New(2, 4, 5)
	rng.FillNormal(x, 0, 1)
	checkLayerGrad(t, l, x, true, 2e-2)
}

func TestReLUGradient(t *testing.T) {
	rng := tensor.NewRNG(5)
	l := NewReLU()
	x := tensor.New(2, 8)
	rng.FillNormal(x, 0.5, 1) // offset to avoid kinks near 0
	checkLayerGrad(t, l, x, true, 2e-2)
}

// TestGELUGradient checks the derivative over normal draws and over a grid
// out to |x| = 20, where tanh saturates.
func TestGELUGradient(t *testing.T) {
	rng := tensor.NewRNG(6)
	l := NewGELU()
	x := tensor.New(2, 10)
	rng.FillNormal(x, 0, 1.5)
	checkLayerGrad(t, l, x, true, 2e-2)
	grid := tensor.New(1, 41)
	for i := range grid.Data() {
		grid.Data()[i] = float32(i-20) + 0.25
	}
	grid.Data()[0], grid.Data()[40] = -20, 20
	checkLayerGrad(t, l, grid, true, 2e-2)
}

func TestBatchNorm2dGradient(t *testing.T) {
	rng := tensor.NewRNG(7)
	l := NewBatchNorm2d(3)
	x := tensor.New(4, 3, 3, 3)
	rng.FillNormal(x, 0.3, 1.2)
	checkLayerGrad(t, l, x, true, 3e-2)
}

func TestBatchNorm2dEvalGradient(t *testing.T) {
	rng := tensor.NewRNG(8)
	l := NewBatchNorm2d(2)
	// Prime running statistics.
	warm := tensor.New(4, 2, 3, 3)
	rng.FillNormal(warm, 0.2, 1)
	l.Forward(warm, true)
	x := tensor.New(2, 2, 3, 3)
	rng.FillNormal(x, 0, 1)
	checkLayerGrad(t, l, x, false, 2e-2)
}

func TestLayerNormGradient(t *testing.T) {
	rng := tensor.NewRNG(9)
	l := NewLayerNorm(6)
	x := tensor.New(2, 3, 6)
	rng.FillNormal(x, 0.1, 1.1)
	checkLayerGrad(t, l, x, true, 3e-2)
}

func TestMaxPoolGradient(t *testing.T) {
	rng := tensor.NewRNG(10)
	l := NewMaxPool2d(2, 2)
	x := tensor.New(1, 2, 4, 4)
	rng.FillNormal(x, 0, 2) // large spread avoids tie flips under eps
	checkLayerGrad(t, l, x, true, 2e-2)
}

func TestGlobalAvgPoolGradient(t *testing.T) {
	rng := tensor.NewRNG(11)
	l := NewGlobalAvgPool()
	x := tensor.New(2, 3, 3, 3)
	rng.FillNormal(x, 0, 1)
	checkLayerGrad(t, l, x, true, 2e-2)
}

// TestMultiHeadAttentionGradient covers one tile, ragged last query tiles
// (33 and 65 tokens against 32-row tiles, 65 also past the 64-key tile) and
// odd head dims.
func TestMultiHeadAttentionGradient(t *testing.T) {
	for _, c := range []struct{ tok, d, heads int }{
		{3, 8, 2},
		{33, 6, 2},
		{65, 10, 2},
		{33, 9, 3},
	} {
		t.Run(fmt.Sprintf("T%d_D%d_H%d", c.tok, c.d, c.heads), func(t *testing.T) {
			rng := tensor.NewRNG(12)
			l := NewMultiHeadAttention(rng, c.d, c.heads)
			x := tensor.New(2, c.tok, c.d)
			rng.FillNormal(x, 0, 0.5)
			checkLayerGrad(t, l, x, true, 3e-2)
		})
	}
}

func TestTransformerBlockGradient(t *testing.T) {
	rng := tensor.NewRNG(13)
	l := NewTransformerBlock(rng, 8, 2, 12)
	x := tensor.New(1, 4, 8)
	rng.FillNormal(x, 0, 0.5)
	checkLayerGrad(t, l, x, true, 5e-2)
}

func TestPatchEmbedGradient(t *testing.T) {
	rng := tensor.NewRNG(14)
	l := NewPatchEmbed(rng, 2, 2, 6, 4)
	x := tensor.New(1, 2, 4, 4)
	rng.FillNormal(x, 0, 1)
	checkLayerGrad(t, l, x, true, 2e-2)
}

func TestRescale2DGradient(t *testing.T) {
	rng := tensor.NewRNG(15)
	l := NewRescale2D(rng, 3, 5, 4, 4)
	x := tensor.New(1, 3, 6, 6)
	rng.FillNormal(x, 0, 1)
	checkLayerGrad(t, l, x, true, 2e-2)
}

func TestRescaleTokensGradient(t *testing.T) {
	rng := tensor.NewRNG(16)
	l := NewRescaleTokens(rng, 5, 4, 3, 6)
	x := tensor.New(2, 5, 4)
	rng.FillNormal(x, 0, 1)
	checkLayerGrad(t, l, x, true, 2e-2)
}

// TestConvBlockGradient checks the fused body's input and parameter
// gradients with every epilogue a ConvBlock can carry. The input gradient
// is what graph.Backward skips for the graph input; these rows are where it
// stays checked.
func TestConvBlockGradient(t *testing.T) {
	for _, bn := range []bool{true, false} {
		for _, pool := range []bool{true, false} {
			t.Run(fmt.Sprintf("bn=%v/pool=%v", bn, pool), func(t *testing.T) {
				rng := tensor.NewRNG(17)
				l := NewConvBlock(rng, 2, 3, bn, pool)
				x := tensor.New(2, 2, 4, 4)
				rng.FillNormal(x, 0.3, 1)
				checkLayerGrad(t, l, x, true, 5e-2)
			})
		}
	}
}

func TestResidualBlockGradient(t *testing.T) {
	rng := tensor.NewRNG(18)
	l := NewResidualBlock(rng, 3, 4, 2)
	x := tensor.New(2, 3, 4, 4)
	rng.FillNormal(x, 0.2, 1)
	checkLayerGrad(t, l, x, true, 6e-2)
}

func TestSequentialGradient(t *testing.T) {
	rng := tensor.NewRNG(19)
	l := NewSequential("seq",
		NewConv2d(rng, 2, 3, 3, 1, 1),
		NewReLU(),
		NewGlobalAvgPool(),
		NewLinear(rng, 3, 2),
	)
	x := tensor.New(2, 2, 4, 4)
	rng.FillNormal(x, 0.2, 1)
	checkLayerGrad(t, l, x, true, 3e-2)
}

func TestEmbeddingGradient(t *testing.T) {
	rng := tensor.NewRNG(20)
	e := NewEmbedding(rng, 10, 6, 4)
	ids := tensor.FromSlice([]float32{1, 2, 3, 4, 5, 6, 7, 8}, 2, 4)
	out := e.Forward(ids, true)
	loss := newScalarLoss(rng, out.Shape())
	e.Backward(loss.grad())
	// Verify table gradient for one used token numerically.
	const eps = 1e-3
	idx := 1*e.D + 2 // token id 1, feature 2
	orig := e.Table.Value.Data()[idx]
	e.Table.Value.Data()[idx] = orig + eps
	lp := loss.value(e.Forward(ids, true))
	e.Table.Value.Data()[idx] = orig - eps
	lm := loss.value(e.Forward(ids, true))
	e.Table.Value.Data()[idx] = orig
	numeric := (lp - lm) / (2 * eps)
	analytic := float64(e.Table.Grad().Data()[idx])
	if math.Abs(numeric-analytic) > 1e-2*math.Max(1, math.Abs(numeric)) {
		t.Fatalf("embedding grad mismatch: numeric %v analytic %v", numeric, analytic)
	}
}

func TestTokenMeanPoolGradient(t *testing.T) {
	rng := tensor.NewRNG(21)
	l := NewTokenMeanPool()
	x := tensor.New(2, 3, 4)
	rng.FillNormal(x, 0, 1)
	checkLayerGrad(t, l, x, true, 2e-2)
}
