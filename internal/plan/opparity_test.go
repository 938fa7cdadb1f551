package plan

import (
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestTransformerOpsMatchEagerBitForBit runs a compiled ViT, BERT and lone
// GELU op by op and feeds each gelu, ln, addln, embed, patch, tokenmean and
// f32 linear op's own inputs to the nn layers it was lowered from, rebuilt
// from the op's parameters: a plain linear (the packed QKV projection, the
// attention's output projection, a head) to Linear, the FFN's fused FC1 to
// Linear -> GELU and its fused FC2 to Linear -> add with the residual. The plan op and the eager layers call
// the same tensor functions in the same order, so every output element must
// match exactly, on either kernel tier.
func TestTransformerOpsMatchEagerBitForBit(t *testing.T) {
	bert, err := models.SingleTask(tensor.NewRNG(51), models.Config{Vocab: 40}, models.BERTBase,
		graph.Shape{12}, graph.DomainRaw, 2)
	if err != nil {
		t.Fatal(err)
	}
	ids := tensor.New(3, 12)
	for i := range ids.Data() {
		ids.Data()[i] = float32((i*7 + 3) % 40)
	}
	vitIn := graph.Shape{3, 48, 48}
	vit, err := models.SingleTask(tensor.NewRNG(52), models.Config{}, models.ViTBase, vitIn, graph.DomainRaw, 3)
	if err != nil {
		t.Fatal(err)
	}
	img := tensor.New(2, 3, 48, 48)
	tensor.NewRNG(53).FillNormal(img, 0, 1)
	// Fresh layers have zero biases, which would hide a bias added out of
	// order in a fused epilogue.
	for i, g := range []*graph.Graph{bert, vit} {
		rng := tensor.NewRNG(uint64(54 + i))
		for _, p := range g.Params() {
			if p.Name == "bias" {
				rng.FillNormal(p.Value, 0, 0.5)
			}
		}
	}
	// A lone GELU over a grid out to |x| = 20: in the negative tail 1+tanh
	// cancels, so a second tanh formula would show there.
	tails := graph.New(graph.Shape{16, 16}, graph.DomainTokens)
	tails.TaskNames[0] = "gelu"
	tails.AppendChain(tails.Root, graph.NewBlockNode(0, 0, "Head", tails.Root.InputShape, graph.DomainTokens, nn.NewGELU()))
	tails.RefreshCapacities()
	grid := tensor.New(2, 16, 16)
	for i := range grid.Data() {
		grid.Data()[i] = -20 + 40*float32(i)/float32(grid.Size()-1)
	}

	for name, w := range map[string]struct {
		g *graph.Graph
		x *tensor.Tensor
	}{"bert": {bert, ids}, "vit": {vit, img}, "tails": {tails, grid}} {
		t.Run(name, func(t *testing.T) {
			p := Compile(w.g)
			inst := p.NewInstance()
			inst.start(w.x)
			checked := map[string]int{}
			for _, wave := range p.Waves {
				for _, id := range wave {
					o := p.Ops[id]
					in := inst.regs[o.In].Clone()
					var in2 *tensor.Tensor
					if o.In2 >= 0 {
						in2 = inst.regs[o.In2].Clone()
					}
					inst.runOp(id)
					want := eagerOp(o, in, in2)
					for i, out := range []int{o.Out, o.Out2}[:len(want)] {
						sameBits(t, o.Name, inst.regs[out], want[i])
					}
					if len(want) > 0 {
						checked[opLabel(o)]++
					}
				}
			}
			for _, kind := range map[string][]string{
				"bert":  {"linear", "linear qkv", "linear+gelu", "linear+residual", "ln", "addln", "embed", "tokenmean"},
				"vit":   {"linear", "linear qkv", "linear+gelu", "linear+residual", "ln", "addln", "patch", "tokenmean"},
				"tails": {"gelu"},
			}[name] {
				if checked[kind] == 0 {
					t.Errorf("no %s op checked (checked %v)", kind, checked)
				}
			}
		})
	}
}

// opLabel is o's kind, with a linear's fused epilogue or its role as the
// packed QKV projection named.
func opLabel(o *Op) string {
	if s, ok := o.spec.(*linearSpec); ok {
		switch {
		case s.gelu:
			return "linear+gelu"
		case o.In2 >= 0:
			return "linear+residual"
		case strings.Contains(o.Name, " qkv("):
			return "linear qkv"
		}
	}
	return o.Kind
}

// eagerOp runs the nn layer behind op o on its inputs and returns its
// outputs in the op's order (Out, then Out2); nil for a kind this test does
// not cover.
func eagerOp(o *Op, in, in2 *tensor.Tensor) []*tensor.Tensor {
	layerNorm := func(d int, eps float32, gamma, beta []float32) *nn.LayerNorm {
		l := nn.NewLayerNorm(d)
		l.Eps = eps
		copy(l.Gamma.Value.Data(), gamma)
		copy(l.Beta.Value.Data(), beta)
		return l
	}
	switch s := o.spec.(type) {
	case *ewSpec:
		if !s.relu {
			return []*tensor.Tensor{nn.NewGELU().Forward(in, false)}
		}
	case *linearSpec:
		l := nn.NewLinear(tensor.NewRNG(0), s.in, s.out)
		l.Weight.Value = s.w.Unpack()
		copy(l.Bias.Value.Data(), s.bias)
		y := l.Forward(in, false)
		if s.gelu {
			y = nn.NewGELU().Forward(y, false)
		}
		if in2 != nil {
			y = tensor.Add(in2.Reshape(y.Shape()...), y)
		}
		return []*tensor.Tensor{y}
	case *lnSpec:
		return []*tensor.Tensor{layerNorm(s.d, s.eps, s.gamma, s.beta).Forward(in, false)}
	case *addLNSpec:
		sum := tensor.Add(in, in2)
		return []*tensor.Tensor{layerNorm(s.d, s.eps, s.gamma, s.beta).Forward(sum, false), sum}
	case *embedSpec:
		e := nn.NewEmbedding(tensor.NewRNG(0), len(s.table)/s.d, s.d, s.t)
		copy(e.Table.Value.Data(), s.table)
		copy(e.Pos.Value.Data(), s.pos)
		return []*tensor.Tensor{e.Forward(in, false)}
	case *tokenMeanSpec:
		return []*tensor.Tensor{nn.NewTokenMeanPool().Forward(in, false)}
	case *patchSpec:
		pe := nn.NewPatchEmbed(tensor.NewRNG(0), in.Dim(1), s.patch, s.d, s.t)
		pe.Proj.Weight.Value = s.w.Clone()
		copy(pe.Proj.Bias.Value.Data(), s.bias)
		copy(pe.Pos.Value.Data(), s.pos)
		return []*tensor.Tensor{pe.Forward(in, false)}
	}
	return nil
}

func sameBits(t *testing.T, op string, got, want *tensor.Tensor) {
	t.Helper()
	if got.Size() != want.Size() {
		t.Fatalf("%s: plan output has %d elements, eager %d", op, got.Size(), want.Size())
	}
	for i, v := range got.Data() {
		if math.Float32bits(v) != math.Float32bits(want.Data()[i]) {
			t.Fatalf("%s (%s tier): element %d = %g, eager %g", op, tensor.VecKind(), i, v, want.Data()[i])
		}
	}
}

// TestConvReLUEdgesMatchEager holds the conv op's ReLU to nn's on the
// pre-activations finite data never produces. A conv op, pooled and not,
// whose input carries NaN and ±Inf pixels must match the eager ConvBlock
// bit for bit: both rectify NaN to +0. And the epilogue itself, fed GEMM
// rows holding −0, NaN, ±Inf and signed subnormals with a −0 bias, must
// give what nn's ReLU and MaxPool2d layers give on the same sums.
func TestConvReLUEdgesMatchEager(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	for _, pool := range []bool{false, true} {
		rng := tensor.NewRNG(5)
		block := nn.NewConvBlock(rng, 3, 6, false, pool)
		rng.FillUniform(block.Conv.Bias.Value, -0.5, 0.5)
		g := graph.New(graph.Shape{3, 8, 8}, graph.DomainRaw)
		g.TaskNames[0] = "conv"
		g.AppendChain(g.Root, graph.NewBlockNode(0, 0, "Head", g.Root.InputShape, graph.DomainRaw, block))
		g.RefreshCapacities()
		x := tensor.New(2, 3, 8, 8)
		rng.FillNormal(x, 0, 1)
		for i, v := range []float32{nan, inf, -inf, nan} {
			x.Data()[i*37] = v
		}
		sameBits(t, block.Name(), Compile(g).NewInstance().Execute(x)[0], block.Forward(x, false))
	}

	rows := []float32{negZero, nan, -inf, inf, 0, 1, -1, 0x1p-140, -0x1p-140, negZero, 2, nan, -3, 0.5, negZero, -inf}
	bias := []float32{negZero, 0}
	for _, pool := range []bool{false, true} {
		s := &convSpec{f: &FoldedConv{OutC: 2}, relu: true, oh: 2, ow: 4}
		ph, pw := 2, 4
		if pool {
			s.poolK, s.poolS, ph, pw = 2, 2, 1, 2
		}
		got := tensor.New(1, 2, ph, pw)
		s.epilogue(got.Data(), append([]float32(nil), rows...), bias, 1, 0, 2)
		sums := tensor.New(1, 2, 2, 4)
		for i, v := range rows {
			sums.Data()[i] = v + bias[i/8]
		}
		want := nn.NewReLU().Forward(sums, false)
		if pool {
			want = nn.NewMaxPool2d(2, 2).Forward(want, false)
		}
		sameBits(t, "conv epilogue", got, want)
		for i, v := range want.Data() {
			if math.Float32bits(v) == math.Float32bits(negZero) || v != v {
				t.Fatalf("eager ReLU left element %d as %g", i, v)
			}
		}
	}
}
