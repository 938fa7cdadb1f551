package nn

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

// The fused convolution body must compute exactly what the layer-by-layer
// composition it replaced computes: the same outputs, input gradients,
// parameter gradients, running statistics and — after identical optimizer
// steps — parameters, bit for bit, on whichever kernel tier is bound (CI
// runs the package under gmorph_novec too).

// unfused is a reference composition over its own copies of a fused layer's
// parameters: a Layer built from op-granularity layers, plus the
// parameter and state lists in the fused layer's order.
type unfused struct {
	Layer
	params []*Param
	state  []*tensor.Tensor
}

// composeConvBlock returns Sequential(Conv2d, [BatchNorm2d], ReLU,
// [MaxPool2d]) with b's weights.
func composeConvBlock(b *ConvBlock) unfused {
	conv := b.Conv.Clone().(*Conv2d)
	layers := []Layer{conv}
	if b.BN != nil {
		layers = append(layers, b.BN.Clone())
	}
	layers = append(layers, NewReLU())
	if b.Pool != nil {
		layers = append(layers, NewMaxPool2d(b.Pool.Kernel, b.Pool.Stride))
	}
	s := NewSequential("composition", layers...)
	return unfused{Layer: s, params: s.Params(), state: s.StateTensors()}
}

// residualComposition is the residual block as it ran before the fused
// body: every conv, batch norm and ReLU its own layer, then add and ReLU.
type residualComposition struct {
	main *Sequential // Conv1, BN1, ReLU, Conv2, BN2
	down *Sequential // Down, DownBN; nil for an identity skip
	act  *ReLU
}

func composeResidual(b *ResidualBlock) unfused {
	r := &residualComposition{
		main: NewSequential("main", b.Conv1.Clone(), b.BN1.Clone(), NewReLU(), b.Conv2.Clone(), b.BN2.Clone()),
		act:  NewReLU(),
	}
	state := r.main.StateTensors()
	params := r.main.Params()
	if b.Down != nil {
		r.down = NewSequential("down", b.Down.Clone(), b.DownBN.Clone())
		params = append(params, r.down.Params()...)
		state = append(state, r.down.StateTensors()...)
	}
	return unfused{Layer: r, params: params, state: state}
}

func (r *residualComposition) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	skip := x
	if r.down != nil {
		skip = r.down.Forward(x, train)
	}
	return r.act.Forward(tensor.Add(r.main.Forward(x, train), skip), train)
}

func (r *residualComposition) Backward(g *tensor.Tensor) *tensor.Tensor {
	g = r.act.Backward(g)
	gi := r.main.Backward(g)
	if r.down != nil {
		return tensor.Add(gi, r.down.Backward(g))
	}
	return tensor.Add(gi, g)
}

func (r *residualComposition) Params() []*Param        { return nil }
func (r *residualComposition) OutShape(in []int) []int { return r.main.OutShape(in) }
func (r *residualComposition) FLOPs(in []int) int64    { return 0 }
func (r *residualComposition) Clone() Layer            { return r }
func (r *residualComposition) Name() string            { return "residual composition" }

// sameBits fails the test unless got and want hold identical float bits.
func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d is %g, composition gives %g", what, i, got[i], want[i])
		}
	}
}

// matchComposition runs three train steps (forward, backward, Adam) and an
// eval forward through fused and ref, comparing everything bit for bit.
func matchComposition(t *testing.T, fused Layer, ref unfused, shape []int) {
	t.Helper()
	rng := tensor.NewRNG(uint64(len(shape) + shape[0]*shape[1]*shape[2]))
	fp, rp := fused.Params(), ref.params
	if len(fp) != len(rp) {
		t.Fatalf("fused layer has %d params, composition %d", len(fp), len(rp))
	}
	fo, ro := NewAdam(fp, 0.01), NewAdam(rp, 0.01)
	x := tensor.New(shape...)
	for step := 0; step < 3; step++ {
		rng.FillNormal(x, 0.1, 1)
		fo.ZeroGrad()
		ro.ZeroGrad()
		got, want := fused.Forward(x, true), ref.Forward(x, true)
		sameBits(t, fmt.Sprintf("step %d output", step), got.Data(), want.Data())
		g := tensor.New(got.Shape()...)
		rng.FillNormal(g, 0, 1)
		sameBits(t, fmt.Sprintf("step %d input gradient", step), fused.Backward(g).Data(), ref.Backward(g).Data())
		for i := range fp {
			sameBits(t, fmt.Sprintf("step %d gradient of param %d (%s)", step, i, fp[i].Name), fp[i].Grad().Data(), rp[i].Grad().Data())
		}
		fo.Step()
		ro.Step()
		for i, st := range StateTensors(fused) {
			sameBits(t, fmt.Sprintf("step %d running statistic %d", step, i), st.Data(), ref.state[i].Data())
		}
	}
	for i := range fp {
		sameBits(t, fmt.Sprintf("param %d (%s) after 3 steps", i, fp[i].Name), fp[i].Value.Data(), rp[i].Value.Data())
	}
	rng.FillNormal(x, 0.1, 1)
	sameBits(t, "eval output", fused.Forward(x, false).Data(), ref.Forward(x, false).Data())
}

// TestConvBlockMatchesComposition pins the fused ConvBlock and
// ResidualBlock to their unfused compositions. The 4×5×7×9 shape leaves a
// pooled-away bottom row and right column, and OutC 6 leaves ragged GEMM
// tiles.
func TestConvBlockMatchesComposition(t *testing.T) {
	for _, sh := range []struct {
		shape []int
		outC  int
	}{{[]int{16, 3, 32, 32}, 8}, {[]int{4, 5, 7, 9}, 6}} {
		for _, bn := range []bool{true, false} {
			for _, pool := range []bool{true, false} {
				t.Run(fmt.Sprintf("%v/bn=%v/pool=%v", sh.shape, bn, pool), func(t *testing.T) {
					b := NewConvBlock(tensor.NewRNG(41), sh.shape[1], sh.outC, bn, pool)
					matchComposition(t, b, composeConvBlock(b), sh.shape)
				})
			}
		}
	}
	for _, rc := range []struct {
		name           string
		inC, outC, str int
		shape          []int
	}{
		{"identity", 6, 6, 1, []int{4, 6, 9, 9}},
		{"stride2-projection", 5, 8, 2, []int{4, 5, 9, 7}},
	} {
		t.Run("residual/"+rc.name, func(t *testing.T) {
			b := NewResidualBlock(tensor.NewRNG(43), rc.inC, rc.outC, rc.str)
			matchComposition(t, b, composeResidual(b), rc.shape)
		})
	}
}

// TestConvBlockOverlappingPoolMatchesComposition runs the composition check
// with a 3×3 stride-2 pool, whose windows share a row and a column: the
// fused backward scatters through the argmax bytes in output order and
// masks only afterwards, so a shared position's gradient is summed whole
// before the ReLU mask, as the composition's MaxPool2d then ReLU do.
func TestConvBlockOverlappingPoolMatchesComposition(t *testing.T) {
	for _, bn := range []bool{true, false} {
		t.Run(fmt.Sprintf("bn=%v", bn), func(t *testing.T) {
			b := NewConvBlock(tensor.NewRNG(45), 3, 5, bn, true)
			b.Pool = NewMaxPool2d(3, 2)
			matchComposition(t, b, composeConvBlock(b), []int{4, 3, 11, 9})
		})
	}
}

// TestBackwardParamsMatchesBackward pins the graph input's shortcut: a
// layer's BackwardParams accumulates exactly the parameter gradients its
// Backward does.
func TestBackwardParamsMatchesBackward(t *testing.T) {
	rng := tensor.NewRNG(47)
	for _, l := range []Layer{
		NewConv2d(rng, 3, 5, 3, 2, 1),
		NewConvBlock(rng, 3, 6, true, true),
		NewConvBlock(rng, 3, 6, false, false),
		NewResidualBlock(rng, 4, 4, 1),
		NewResidualBlock(rng, 4, 6, 2),
	} {
		c := l.Clone()
		x := tensor.New(3, inChannels(l), 8, 8)
		rng.FillNormal(x, 0, 1)
		out := l.Forward(x, true)
		c.Forward(x, true)
		g := tensor.New(out.Shape()...)
		rng.FillNormal(g, 0, 1)
		l.Backward(g)
		c.(interface{ BackwardParams(*tensor.Tensor) }).BackwardParams(g)
		for i, p := range l.Params() {
			sameBits(t, fmt.Sprintf("%s param %d", l.Name(), i), c.Params()[i].Grad().Data(), p.Grad().Data())
		}
	}
}

// inChannels returns a convolution layer's input channel count.
func inChannels(l Layer) int {
	switch v := l.(type) {
	case *Conv2d:
		return v.InC
	case *ConvBlock:
		return v.Conv.InC
	case *ResidualBlock:
		return v.Conv1.InC
	}
	panic("not a convolution layer")
}
