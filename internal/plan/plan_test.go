package plan_test

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/plan"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// fusedTwoTask builds a multi-branch fused graph: a shared conv stem whose
// output feeds two task branches — the topology GMorph mutation produces
// when it merges input-shareable nodes.
func fusedTwoTask(seed uint64) *graph.Graph {
	rng := tensor.NewRNG(seed)
	g := graph.New(graph.Shape{3, 16, 16}, graph.DomainRaw)
	g.TaskNames[0], g.TaskNames[1] = "a", "b"
	stem := graph.NewBlockNode(0, 0, "ConvBlock", g.Root.InputShape, graph.DomainRaw,
		nn.NewConvBlock(rng, 3, 6, true, true)) // 16 -> 8
	g.AddChild(g.Root, stem)
	s1 := graph.Shape{6, 8, 8}
	b1 := graph.NewBlockNode(0, 1, "ConvBlock", s1, graph.DomainSpatial,
		nn.NewConvBlock(rng, 6, 12, true, true)) // 8 -> 4
	h0 := graph.NewBlockNode(0, 2, "Head", graph.Shape{12, 4, 4}, graph.DomainSpatial,
		nn.NewSequential("head", nn.NewGlobalAvgPool(), nn.NewLinear(rng, 12, 2)))
	g.AppendChain(stem, b1, h0)
	b2 := graph.NewBlockNode(1, 1, "ConvBlock", s1, graph.DomainSpatial,
		nn.NewConvBlock(rng, 6, 8, true, false))
	h1 := graph.NewBlockNode(1, 2, "Head", graph.Shape{8, 8, 8}, graph.DomainSpatial,
		nn.NewSequential("head", nn.NewGlobalAvgPool(), nn.NewLinear(rng, 8, 3)))
	g.AppendChain(stem, b2, h1)
	g.RefreshCapacities()
	return g
}

// randomizeBN perturbs batch-norm running statistics so folding is actually
// exercised (fresh layers have mean 0 / var 1, which folds to near-identity).
func randomizeBN(g *graph.Graph, seed uint64) {
	rng := tensor.NewRNG(seed)
	for _, n := range g.Nodes() {
		visitBN(n.Layer, func(bn *nn.BatchNorm2d) {
			rng.FillUniform(bn.RunningMean, -0.3, 0.3)
			rng.FillUniform(bn.RunningVar, 0.5, 1.5)
			rng.FillUniform(bn.Gamma.Value, 0.7, 1.3)
			rng.FillUniform(bn.Beta.Value, -0.2, 0.2)
		})
	}
}

func visitBN(l nn.Layer, f func(*nn.BatchNorm2d)) {
	switch l := l.(type) {
	case *nn.BatchNorm2d:
		f(l)
	case *nn.ConvBlock:
		if l.BN != nil {
			f(l.BN)
		}
	case *nn.ResidualBlock:
		f(l.BN1)
		f(l.BN2)
		if l.DownBN != nil {
			f(l.DownBN)
		}
	case *nn.Sequential:
		for _, s := range l.Layers {
			visitBN(s, f)
		}
	}
}

func maxDiff(a, b *tensor.Tensor) float64 {
	ad, bd := a.Data(), b.Data()
	var m float64
	for i := range ad {
		if d := math.Abs(float64(ad[i] - bd[i])); d > m {
			m = d
		}
	}
	return m
}

func checkParity(t *testing.T, g *graph.Graph, x *tensor.Tensor) {
	t.Helper()
	inst := plan.Compile(g).NewInstance()
	got := inst.Execute(x)
	want := g.Forward(x, false)
	if len(want) == 0 {
		t.Fatal("graph has no head to compare")
	}
	if len(got) != len(want) {
		t.Fatalf("plan produced %d heads, graph %d", len(got), len(want))
	}
	for task, w := range want {
		o, ok := got[task]
		if !ok {
			t.Fatalf("plan missing head %d", task)
		}
		if !tensor.SameShape(o, w) {
			t.Fatalf("head %d shape %v, want %v", task, o.Shape(), w.Shape())
		}
		if d := maxDiff(o, w); d > 1e-4 {
			t.Errorf("head %d diverges from graph.Forward by %g", task, d)
		}
	}
}

func TestPlanMatchesGraphForward(t *testing.T) {
	g := testutil.TinyMultiDNN(11, testutil.TinyFace(11, 8, 4))
	randomizeBN(g, 12)
	rng := tensor.NewRNG(13)
	x := tensor.New(4, 3, 16, 16)
	rng.FillNormal(x, 0, 1)
	checkParity(t, g, x)
}

func TestPlanMatchesGraphForwardFused(t *testing.T) {
	g := fusedTwoTask(21)
	randomizeBN(g, 22)
	rng := tensor.NewRNG(23)
	x := tensor.New(3, 3, 16, 16)
	rng.FillNormal(x, 0, 1)
	checkParity(t, g, x)
}

func TestPlanBatchRebind(t *testing.T) {
	g := fusedTwoTask(31)
	randomizeBN(g, 32)
	inst := plan.Compile(g).NewInstance()
	rng := tensor.NewRNG(33)
	for _, batch := range []int{4, 1, 4, 2} {
		x := tensor.New(batch, 3, 16, 16)
		rng.FillNormal(x, 0, 1)
		got := inst.Execute(x)
		want := g.Forward(x, false)
		for task, w := range want {
			if d := maxDiff(got[task], w); d > 1e-4 {
				t.Errorf("batch %d head %d diverges by %g", batch, task, d)
			}
		}
	}
}

// FuzzPlanConvParity compiles one convolution layer — a bare Conv2d, or a
// ConvBlock with or without batch norm and max pool — over random batch,
// channels, spatial size, output channels (below the GEMM's MR and above its
// NR), kernel, stride and pad, and checks the plan's channel-major conv
// against nn's eval forward. Without batch norm both run the same unfold,
// the same GEMM and the same epilogue, so they must agree bit for bit; with
// it the plan folds the normalisation into the weights at compile time and
// must agree within tolerance.
func FuzzPlanConvParity(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(2), uint8(6), uint8(6), uint8(7), uint8(2), uint8(0), uint8(1), uint8(0))
	f.Add(uint64(2), uint8(2), uint8(3), uint8(9), uint8(4), uint8(20), uint8(2), uint8(0), uint8(1), uint8(4))
	f.Add(uint64(3), uint8(1), uint8(0), uint8(3), uint8(8), uint8(2), uint8(0), uint8(1), uint8(0), uint8(5))
	f.Add(uint64(4), uint8(1), uint8(1), uint8(10), uint8(11), uint8(16), uint8(4), uint8(2), uint8(2), uint8(1))
	f.Add(uint64(5), uint8(2), uint8(3), uint8(12), uint8(12), uint8(23), uint8(2), uint8(0), uint8(1), uint8(3))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, cRaw, hRaw, wRaw, outCRaw, kRaw, strideRaw, padRaw, kindRaw uint8) {
		n, c, outC := int(nRaw)%3+1, int(cRaw)%4+1, int(outCRaw)%24+1
		k, stride, pad := int(kRaw)%5+1, int(strideRaw)%3+1, int(padRaw)%3
		h, w := int(hRaw)%12+k, int(wRaw)%12+k
		rng := tensor.NewRNG(seed)
		conv := nn.NewConv2d(rng, c, outC, k, stride, pad)
		rng.FillUniform(conv.Bias.Value, -0.5, 0.5)
		oh, ow := tensor.ConvOut(h, k, stride, pad), tensor.ConvOut(w, k, stride, pad)
		var layer nn.Layer = conv
		bn := false
		if kind := int(kindRaw) % 3; kind > 0 {
			block := &nn.ConvBlock{Conv: conv}
			if bn = kind == 2; bn {
				block.BN = nn.NewBatchNorm2d(outC)
			}
			if kindRaw/3%2 == 1 && oh >= 2 && ow >= 2 {
				block.Pool = nn.NewMaxPool2d(2, 2)
			}
			layer = block
		}
		g := graph.New(graph.Shape{c, h, w}, graph.DomainRaw)
		g.TaskNames[0] = "conv"
		g.AppendChain(g.Root, graph.NewBlockNode(0, 0, "Head", g.Root.InputShape, graph.DomainRaw, layer))
		g.RefreshCapacities()
		randomizeBN(g, seed+1)
		x := tensor.New(n, c, h, w)
		rng.FillNormal(x, 0, 1)
		got := plan.Compile(g).NewInstance().Execute(x)[0]
		want := layer.Forward(x, false)
		if !tensor.SameShape(got, want) {
			t.Fatalf("plan output %v, nn %v", got.Shape(), want.Shape())
		}
		if bn {
			if d := maxDiff(got, want); d > 1e-4 {
				t.Fatalf("%s on %v: plan diverges from nn by %g", layer.Name(), x.Shape(), d)
			}
			return
		}
		for i, v := range got.Data() {
			if math.Float32bits(v) != math.Float32bits(want.Data()[i]) {
				t.Fatalf("%s on %v: element %d = %g, nn %g", layer.Name(), x.Shape(), i, v, want.Data()[i])
			}
		}
	})
}

// FuzzPlanQConvParity compiles one int8-annotated convolution — a bare
// Conv2d, or a ConvBlock with ReLU and optionally a 2x2 max pool — and
// checks the plan's qconv against a naive composition: quantize the input,
// unfold it unpadded, NaiveQGEMMTransBInto against the annotation's
// weights, then bias, ReLU and pool in plain loops. Integer accumulation is
// exact and the float steps are the same, so they must agree bit for bit,
// including depths C·K·K that are not a multiple of the kernel's k step
// (the 3-channel 3x3 stem has 27).
func FuzzPlanQConvParity(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(2), uint8(6), uint8(6), uint8(7), uint8(1), uint8(0), uint8(1), uint8(0))
	f.Add(uint64(2), uint8(2), uint8(2), uint8(9), uint8(4), uint8(20), uint8(1), uint8(1), uint8(1), uint8(2))
	f.Add(uint64(3), uint8(1), uint8(0), uint8(3), uint8(8), uint8(2), uint8(0), uint8(1), uint8(0), uint8(1))
	f.Add(uint64(4), uint8(1), uint8(33), uint8(10), uint8(11), uint8(16), uint8(0), uint8(0), uint8(0), uint8(2))
	f.Add(uint64(5), uint8(2), uint8(11), uint8(12), uint8(12), uint8(23), uint8(1), uint8(0), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, cRaw, hRaw, wRaw, outCRaw, kRaw, strideRaw, padRaw, kindRaw uint8) {
		n, c, outC := int(nRaw)%3+1, int(cRaw)%36+1, int(outCRaw)%24+1
		k, stride, pad := 2*(int(kRaw)%2)+1, int(strideRaw)%2+1, int(padRaw)%2
		h, w := int(hRaw)%12+k, int(wRaw)%12+k
		kdim := c * k * k
		rng := tensor.NewRNG(seed)
		conv := nn.NewConv2d(rng, c, outC, k, stride, pad)
		rng.FillUniform(conv.Bias.Value, -0.5, 0.5)
		x := tensor.New(n, c, h, w)
		rng.FillNormal(x, 0, 1)
		q8, wScales := tensor.QuantizeChannelsI8(conv.Weight.Value.Data(), outC, kdim)
		q := &nn.Quant8{
			Rows: outC, K: kdim, W: q8, WScale: wScales,
			Bias:    append([]float32(nil), conv.Bias.Value.Data()...),
			InScale: tensor.QuantScale(1.5), // clips the normal input's tails
		}
		conv.Quant = q
		oh, ow := tensor.ConvOut(h, k, stride, pad), tensor.ConvOut(w, k, stride, pad)
		var layer nn.Layer = conv
		relu, pool := false, false
		if kind := int(kindRaw) % 3; kind > 0 {
			block := &nn.ConvBlock{Conv: conv}
			relu = true
			if pool = kind == 2 && oh >= 2 && ow >= 2; pool {
				block.Pool = nn.NewMaxPool2d(2, 2)
			}
			layer = block
		}
		g := graph.New(graph.Shape{c, h, w}, graph.DomainRaw)
		g.TaskNames[0] = "qconv"
		g.AppendChain(g.Root, graph.NewBlockNode(0, 0, "Head", g.Root.InputShape, graph.DomainRaw, layer))
		g.RefreshCapacities()
		p := plan.Compile(g)
		if kinds := p.Ops[0].Kind; kinds != "qconv" {
			t.Fatalf("op 0 lowered to %q, want qconv", kinds)
		}
		got := p.NewInstance().Execute(x)[0]

		// Naive composition. The flat quantize (one channel) keeps NCHW.
		xq := make([]int8, x.Size())
		tensor.QuantizeI8Into(xq, x.Data(), 1, 1, x.Size(), q.InScale)
		xf := tensor.New(n, c, h, w)
		for i, v := range xq {
			xf.Data()[i] = float32(v)
		}
		cols := tensor.NaiveIm2ColCM(xf, k, k, stride, pad) // [K, N·OH·OW], unpadded
		px := n * oh * ow
		a := make([]int8, px*kdim)
		for r := 0; r < kdim; r++ {
			for j := 0; j < px; j++ {
				a[j*kdim+r] = int8(cols.At(r, j))
			}
		}
		scales := make([]float32, outC)
		for j, ws := range wScales {
			scales[j] = q.InScale * ws
		}
		gemm := tensor.New(px, outC)
		tensor.NaiveQGEMMTransBInto(gemm, a, q8, px, kdim, outC, scales, nil)
		pre := tensor.New(n, outC, oh, ow)
		for ni := 0; ni < n; ni++ {
			for oc := 0; oc < outC; oc++ {
				for i := 0; i < oh*ow; i++ {
					v := gemm.At(ni*oh*ow+i, oc) + q.Bias[oc]
					if relu && !(v > 0) { // NaN and −0 rectify to +0 too
						v = 0
					}
					pre.Data()[(ni*outC+oc)*oh*ow+i] = v
				}
			}
		}
		want := pre
		if pool {
			ph, pw := oh/2, ow/2
			want = tensor.New(n, outC, ph, pw)
			for pl := 0; pl < n*outC; pl++ {
				src := pre.Data()[pl*oh*ow:]
				for oy := 0; oy < ph; oy++ {
					for ox := 0; ox < pw; ox++ {
						best := src[2*oy*ow+2*ox]
						for _, v := range []float32{src[2*oy*ow+2*ox+1], src[(2*oy+1)*ow+2*ox], src[(2*oy+1)*ow+2*ox+1]} {
							if v > best {
								best = v
							}
						}
						want.Data()[(pl*ph+oy)*pw+ox] = best
					}
				}
			}
		}
		if !tensor.SameShape(got, want) {
			t.Fatalf("plan output %v, naive %v", got.Shape(), want.Shape())
		}
		for i, v := range got.Data() {
			if math.Float32bits(v) != math.Float32bits(want.Data()[i]) {
				t.Fatalf("%s (K=%d) on %v: element %d = %g, naive %g", layer.Name(), kdim, x.Shape(), i, v, want.Data()[i])
			}
		}
	})
}

// TestExecuteZeroAllocs is the acceptance check for the static buffer plan:
// once an instance is warm, Execute performs zero heap allocations per
// forward on a CNN profile — with no stem (where an attached memo goes
// unused) and with a stem but no memo — and on a lone linear head fed
// straight by the graph input, whose 2-D views follow a new caller tensor
// every call.
func TestExecuteZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	solo := plan.Compile(testutil.TinyMultiDNN(41, testutil.TinyFace(41, 8, 4))).NewInstance()
	solo.SetStemMemo(plan.NewStemMemo(8), plan.NewStemStats())
	g1, g2 := testutil.TinySharedStemPair(43)
	p, err := plan.CompileShared([]*graph.Graph{g1, g2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	shared := p.NewInstance()
	shared.SetStemMemo(nil, plan.NewStemStats())
	x := tensor.New(4, 3, 16, 16)
	tensor.NewRNG(42).FillNormal(x, 0, 1)
	head := graph.New(graph.Shape{16}, graph.DomainRaw)
	head.AppendChain(head.Root, graph.NewBlockNode(0, 0, "Head", head.Root.InputShape, graph.DomainRaw,
		nn.NewLinear(tensor.NewRNG(47), 16, 4)))
	head.RefreshCapacities()
	hx := tensor.New(2, 16)
	tensor.NewRNG(48).FillNormal(hx, 0, 1)
	for _, c := range []struct {
		name string
		inst *plan.Instance
		x    *tensor.Tensor
	}{
		{"no stem", solo, x},
		{"stem, no memo", shared, x},
		{"input-fed linear", plan.Compile(head).NewInstance(), hx},
	} {
		c.inst.Execute(c.x) // bind slabs and registers
		if avg := testing.AllocsPerRun(20, func() { c.inst.Execute(c.x) }); avg != 0 {
			t.Errorf("%s: steady-state Execute allocates %.1f objects per run, want 0", c.name, avg)
		}
	}
}

// TestExecuteZeroAllocsInt8 is TestExecuteZeroAllocs for a quantized
// plan: its qconv and qlinear ops take their int8 workspace from the
// pooled arena, so a warm forward allocates nothing at batch 1 or 4.
func TestExecuteZeroAllocsInt8(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	ds := testutil.TinyFace(44, 32, 8)
	g := testutil.TinyMultiDNN(45, ds)
	if rep, err := quant.Apply(g, ds, quant.Config{AccuracyDrop: 1}); err != nil || rep.QuantizedOps == 0 {
		t.Fatalf("quantizing: %v (report %+v)", err, rep)
	}
	inst := plan.Compile(g).NewInstance()
	for _, batch := range []int{1, 4} {
		x := tensor.New(batch, 3, 16, 16)
		tensor.NewRNG(46).FillNormal(x, 0, 1)
		inst.Execute(x) // bind slabs, registers and the arena's buffers
		if avg := testing.AllocsPerRun(20, func() { inst.Execute(x) }); avg != 0 {
			t.Errorf("batch %d: steady-state int8 Execute allocates %.1f objects per run, want 0", batch, avg)
		}
	}
}

// TestSlabReuse checks the buffer plan's economics: on a multi-branch fused
// graph the planned footprint (sum of slab capacities) must be strictly
// below what naive per-op allocation would use.
func TestSlabReuse(t *testing.T) {
	p := plan.Compile(fusedTwoTask(51))
	r := p.Report()
	if r.Slabs == 0 || r.Slabs >= len(p.Values) {
		t.Fatalf("suspicious slab count %d for %d values", r.Slabs, len(p.Values))
	}
	if r.PeakBytes >= r.NaiveBytes {
		t.Errorf("planned bytes %d not below naive per-op sum %d", r.PeakBytes, r.NaiveBytes)
	}
}

// TestWaveScheduleParallelism: sibling branches of the fused stem must land
// in shared waves rather than serializing.
func TestWaveScheduleParallelism(t *testing.T) {
	p := plan.Compile(fusedTwoTask(61))
	multi := 0
	for _, ops := range p.Waves {
		if len(ops) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Errorf("no multi-op waves in a two-branch graph; schedule:\n%s", p)
	}
}

func TestOpStats(t *testing.T) {
	g := fusedTwoTask(71)
	inst := plan.Compile(g).NewInstance()
	x := tensor.New(2, 3, 16, 16)
	tensor.NewRNG(72).FillNormal(x, 0, 1)
	const runs = 3
	for i := 0; i < runs; i++ {
		inst.Execute(x)
	}
	for _, s := range inst.OpStats() {
		if s.Calls != runs {
			t.Errorf("op %d (%s) recorded %d calls, want %d", s.ID, s.Name, s.Calls, runs)
		}
	}
}

// TestOpGranularityLowering exercises the standalone bn / relu / maxpool
// kernels that block-granularity graphs never emit.
func TestOpGranularityLowering(t *testing.T) {
	rng := tensor.NewRNG(81)
	g := graph.New(graph.Shape{3, 16, 16}, graph.DomainRaw)
	g.TaskNames[0] = "ops"
	conv := graph.NewBlockNode(0, 0, "Conv2d", g.Root.InputShape, graph.DomainRaw,
		nn.NewConv2d(rng, 3, 6, 3, 1, 1))
	s := graph.Shape{6, 16, 16}
	bn := graph.NewBlockNode(0, 1, "BatchNorm2d", s, graph.DomainSpatial, nn.NewBatchNorm2d(6))
	relu := graph.NewBlockNode(0, 2, "ReLU", s, graph.DomainSpatial, nn.NewReLU())
	pool := graph.NewBlockNode(0, 3, "MaxPool2d", s, graph.DomainSpatial, nn.NewMaxPool2d(2, 2))
	head := graph.NewBlockNode(0, 4, "Head", graph.Shape{6, 8, 8}, graph.DomainSpatial,
		nn.NewSequential("head", nn.NewGlobalAvgPool(), nn.NewLinear(rng, 6, 2)))
	g.AppendChain(g.Root, conv, bn, relu, pool, head)
	g.RefreshCapacities()
	randomizeBN(g, 82)

	x := tensor.New(2, 3, 16, 16)
	rng.FillNormal(x, 0, 1)
	checkParity(t, g, x)
}
