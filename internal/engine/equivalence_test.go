package engine_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/fingerprint"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/mutation"
	"repro/internal/nn"
	"repro/internal/plan"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// The executor-equivalence matrix. Each Test below is a row: it builds one
// world and hands it to equivalent, which runs every leg that applies to
// the world as a subtest:
//
//	reference    each graph's plan ≡ the eager Reference engine
//	layer        a one-conv plan ≡ the layer's eval forward, bit for bit,
//	             at batch 1 and at x's batch
//	int8         the quantized plan within its calibrated tolerance of its
//	             f32 twin, one qqkv op per int8 qkv target, accuracy within
//	             budget; the n= legs then run on the quantized graphs
//	n=1/memo=M   a group of one ≡ plan.Compile, bit for bit, memo unused
//	n=2/memo=M   each member of a group ≡ its group of one, memo off and
//	             on, cold / admitting / warm
//
// Multi-branch worlds exercise the plan's parallel wave dispatch, so the
// matrix under -race also checks the concurrent executor paths, and under
// the gmorph_novec tag it checks the pure-Go kernel tier.

// tol is the f32 agreement wall, absolute: |a-b| <= tol.
const tol = 1e-4

// world is one row's fixture.
type world struct {
	// gs is one model, or the members of a serving group.
	gs []*graph.Graph
	x  *tensor.Tensor
	// stem is the depth of the stem the group gs shares; 0 for one model.
	stem int
	// layer enables the layer leg: gs[0] is this one conv block, without
	// batch norm.
	layer nn.Layer
	// ds and drop enable the int8 leg: gs[0] is quantized against ds under
	// accuracy budget drop, and x is ds.Test.X.
	ds   *data.Dataset
	drop float64
}

func TestParityVGGBlockGranularity(t *testing.T) {
	g := twoTask(t, 101, cifar, models.Config{WidthScale: 2}, models.VGG11, models.VGG13)
	primeBN(g, imageInput(102, 4, cifar))
	equivalent(t, world{gs: []*graph.Graph{g}, x: imageInput(103, 3, cifar)})
}

func TestParityVGGOpGranularity(t *testing.T) {
	cfg := models.Config{WidthScale: 2, Granularity: models.GranularityOp}
	g := twoTask(t, 111, cifar, cfg, models.VGG11, models.VGG11)
	primeBN(g, imageInput(112, 4, cifar))
	equivalent(t, world{gs: []*graph.Graph{g}, x: imageInput(113, 2, cifar)})
}

func TestParityResNet(t *testing.T) {
	g := twoTask(t, 121, cifar, models.Config{WidthScale: 2}, models.ResNet18, models.ResNet18)
	primeBN(g, imageInput(122, 4, cifar))
	equivalent(t, world{gs: []*graph.Graph{g}, x: imageInput(123, 2, cifar)})
}

func TestParityViT(t *testing.T) {
	in := graph.Shape{3, 16, 16}
	g := twoTask(t, 131, in, models.Config{}, models.ViTBase, models.ViTBase)
	equivalent(t, world{gs: []*graph.Graph{g}, x: imageInput(133, 2, in)})
}

func TestParityBERT(t *testing.T) {
	g := twoTask(t, 141, graph.Shape{12}, models.Config{Vocab: 40}, models.BERTBase, models.BERTBase)
	equivalent(t, world{gs: []*graph.Graph{g}, x: tokenInput(2, 12, 40)})
}

// TestParityMutated fuses a two-branch VGG graph with the Model Generator's
// mutation pass, which inserts Rescale2D adapters and shared prefixes.
func TestParityMutated(t *testing.T) {
	g := twoTask(t, 151, cifar, models.Config{WidthScale: 2}, models.VGG11, models.VGG11)
	primeBN(g, imageInput(152, 4, cifar))
	res, err := mutation.NewMutator(tensor.NewRNG(153)).Apply(g, g.ShareablePairs()[:2])
	if err != nil {
		t.Fatal(err)
	}
	if res.RescalesInserted == 0 {
		t.Fatal("the mutation inserted no Rescale2D adapter")
	}
	primeBN(res.Graph, imageInput(154, 4, cifar)) // settle the fresh adapters' BN stats
	equivalent(t, world{gs: []*graph.Graph{res.Graph}, x: imageInput(155, 2, cifar)})
}

// TestFusedMatchesReference: conv+BN folding is an exact algebraic rewrite
// up to rounding, also once training has moved the BN running stats.
func TestFusedMatchesReference(t *testing.T) {
	ds := testutil.TinyFace(1, 32, 8)
	g := testutil.TinyMultiDNN(2, ds)
	testutil.PretrainTeachers(g, ds, 3, 0.003, 3)
	equivalent(t, world{gs: []*graph.Graph{g}, x: ds.Test.X})
}

func TestFusedMatchesReferenceResNet(t *testing.T) {
	g, err := models.SingleTask(tensor.NewRNG(4), models.Config{}, models.ResNet18, cifar, graph.DomainRaw, 4)
	if err != nil {
		t.Fatal(err)
	}
	primeBN(g, imageInput(5, 4, cifar))
	equivalent(t, world{gs: []*graph.Graph{g}, x: imageInput(6, 2, cifar)})
}

func TestFusedMatchesReferenceTransformer(t *testing.T) {
	g, err := models.SingleTask(tensor.NewRNG(5), models.Config{Vocab: 40}, models.BERTBase, graph.Shape{12}, graph.DomainRaw, 2)
	if err != nil {
		t.Fatal(err)
	}
	equivalent(t, world{gs: []*graph.Graph{g}, x: tokenInput(2, 12, 40)})
}

// TestTiledKernelParity covers every kernel whose tiling follows the shape:
// conv GEMM and linear through ResNet18; packed QKV and flash attention
// through a ViT whose 48x48 inputs make 36 tokens, so attention streams
// several query tiles per head; and a 512->12 conv on 2x2 and 4x4 planes,
// whose C·K·K = 4608 deep, N·OH·OW <= 16 wide GEMMs take the driver's 8x8
// register block (at batch 4 the 4x4 one is 64 wide and takes 4x16).
func TestTiledKernelParity(t *testing.T) {
	for _, c := range []struct {
		name, arch string
		shape      graph.Shape
	}{
		{"resnet18", models.ResNet18, cifar},
		{"vit", models.ViTBase, graph.Shape{3, 48, 48}},
	} {
		t.Run(c.name, func(t *testing.T) {
			g, err := models.SingleTask(tensor.NewRNG(5), models.Config{}, c.arch, c.shape, graph.DomainRaw, 4)
			if err != nil {
				t.Fatal(err)
			}
			x := imageInput(9, 2, c.shape)
			primeBN(g, x)
			equivalent(t, world{gs: []*graph.Graph{g}, x: x})
		})
	}
	for _, hw := range []int{2, 4} {
		t.Run(fmt.Sprintf("deepconv%dx%d", hw, hw), func(t *testing.T) {
			rng := tensor.NewRNG(uint64(hw))
			block := &nn.ConvBlock{Conv: nn.NewConv2d(rng, 512, 12, 3, 1, 1)}
			rng.FillUniform(block.Conv.Bias.Value, -0.5, 0.5)
			in := graph.Shape{512, hw, hw}
			g := graph.New(in, graph.DomainRaw)
			g.TaskNames[0] = "conv"
			g.AppendChain(g.Root, graph.NewBlockNode(0, 0, "Head", in, graph.DomainRaw, block))
			g.RefreshCapacities()
			equivalent(t, world{gs: []*graph.Graph{g}, x: imageInput(uint64(10+hw), 4, in), layer: block})
		})
	}
}

// TestParityQuantized quantizes a trained model under a real accuracy
// budget.
func TestParityQuantized(t *testing.T) {
	ds := testutil.TinyFace(201, 96, 64)
	g := testutil.TinyMultiDNN(202, ds)
	testutil.PretrainTeachers(g, ds, 4, 1e-2, 203)
	equivalent(t, world{gs: []*graph.Graph{g}, x: ds.Test.X, ds: ds, drop: 0.02})
}

// TestParityQuantizedTransformer quantizes a trained two-task ViT: packed
// QKV projections, WO and the FFN GEMMs are all int8 candidates.
func TestParityQuantizedTransformer(t *testing.T) {
	ds := testutil.TinyFace(211, 96, 64)
	g := testutil.TinyViT(212, ds)
	testutil.PretrainTeachers(g, ds, 2, 1e-2, 213)
	equivalent(t, world{gs: []*graph.Graph{g}, x: ds.Test.X, ds: ds, drop: 0.02})
}

// One plan for one model or many, in f32 and int8.
func TestSharedFusedParityF32(t *testing.T) {
	ds := testutil.TinyFace(311, 96, 64)
	equivalent(t, world{gs: groupPair(), x: ds.Test.X, stem: 2})
}

func TestSharedFusedParityQuantized(t *testing.T) {
	ds := testutil.TinyFace(311, 96, 64)
	equivalent(t, world{gs: groupPair(), x: ds.Test.X, stem: 2, ds: ds, drop: 0.5})
}

// equivalent runs every leg that applies to w.
func equivalent(t *testing.T, w world) {
	t.Run("reference", func(t *testing.T) {
		for _, g := range w.gs {
			within(t, "plan vs reference", engine.Compile(g).Forward(w.x), engine.NewReference(g).Forward(w.x), tol)
		}
	})
	if w.layer != nil {
		t.Run("layer", func(t *testing.T) { layerLeg(t, w) })
	}
	gs, int8 := w.gs, w.ds != nil
	if int8 {
		var rep *quant.Report
		gs, rep = quantize(t, w)
		t.Run("int8", func(t *testing.T) { int8Leg(t, w, gs[0], rep) })
	}
	for _, memoOn := range []bool{false, true} {
		t.Run(fmt.Sprintf("n=1/memo=%v", memoOn), func(t *testing.T) {
			for _, g := range gs {
				groupOfOne(t, g, w.x, memoOn)
			}
		})
	}
	if w.stem == 0 {
		return
	}
	for _, memoOn := range []bool{false, true} {
		t.Run(fmt.Sprintf("n=2/memo=%v", memoOn), func(t *testing.T) {
			groupOfMany(t, w, gs, memoOn, int8)
		})
	}
}

// groupOfOne: a group of one is plan.Compile — no stem, the identity task
// map, the same plan — and answers what plan.Compile does bit for bit on
// every forward, without touching a memo it was handed.
func groupOfOne(t *testing.T, g *graph.Graph, x *tensor.Tensor, memoOn bool) {
	t.Helper()
	var memo *plan.StemMemo
	if memoOn {
		memo = plan.NewStemMemo(256)
	}
	eng, err := engine.CompileShared([]*graph.Graph{g}, 0, memo, plan.NewStemStats())
	if err != nil {
		t.Fatal(err)
	}
	p := eng.Plan()
	if p.StemDepth != 0 || p.StemWaves != 0 || p.StemValue != p.InValue || len(p.Models) != 1 || p.Models[0].Prefix != "" {
		t.Fatalf("group of one has a stem: depth %d waves %d value %d models %+v",
			p.StemDepth, p.StemWaves, p.StemValue, p.Models)
	}
	for lt, gt := range p.Models[0].TaskMap {
		if lt != gt {
			t.Fatalf("group of one renames task %d to %d", lt, gt)
		}
	}
	if got, want := p.String(), plan.Compile(g).String(); got != want {
		t.Fatalf("group-of-one plan differs from plan.Compile:\n%s\nvs\n%s", got, want)
	}
	want := plan.Compile(g).NewInstance().Execute(x)
	for run := 0; run < 3; run++ {
		within(t, fmt.Sprintf("run %d vs plan.Compile", run), eng.Forward(x), want, 0)
	}
	if s := memo.Stats(); s.Hits+s.Misses != 0 {
		t.Fatalf("a plan without a stem used the memo: %+v", s)
	}
}

// groupOfMany: the group plan shares w.stem stem nodes, lowers the stem at
// int8 exactly when the graphs are quantized, partitions its heads among
// the members, and answers each member's tasks as that member's group of
// one does on every forward — cold, admitting, and served from the memo.
func groupOfMany(t *testing.T, w world, gs []*graph.Graph, memoOn, int8 bool) {
	t.Helper()
	var memo *plan.StemMemo
	if memoOn {
		memo = plan.NewStemMemo(256)
	}
	eng, err := engine.CompileShared(gs, 0, memo, plan.NewStemStats())
	if err != nil {
		t.Fatal(err)
	}
	p := eng.Plan()
	if p.StemDepth != w.stem || len(p.Models) != len(gs) {
		t.Fatalf("stem depth %d, %d models; want %d, %d", p.StemDepth, len(p.Models), w.stem, len(gs))
	}
	quantStem := false
	for _, o := range p.Ops {
		quantStem = quantStem || (o.Wave < p.StemWaves && o.Precision() == "int8")
	}
	if quantStem != int8 {
		t.Fatalf("int8 ops in the stem: %v, want %v", quantStem, int8)
	}
	seen := map[int]bool{}
	for _, m := range p.Models {
		for _, gt := range m.TaskMap {
			if _, head := p.Heads[gt]; seen[gt] || !head {
				t.Fatalf("task maps %+v do not partition heads %v", p.Models, p.Heads)
			}
			seen[gt] = true
		}
	}
	if len(seen) != len(p.Heads) {
		t.Fatalf("task maps %+v do not cover heads %v", p.Models, p.Heads)
	}
	solo := make([]map[int]*tensor.Tensor, len(gs))
	for i, g := range gs {
		one, err := engine.CompileShared([]*graph.Graph{g}, 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		solo[i] = one.Forward(w.x)
	}
	// Cold, then the doorkeeper's second sighting admits, then warm.
	for run := 0; run < 3; run++ {
		got := eng.Forward(w.x)
		for mi, m := range p.Models {
			mine := make(map[int]*tensor.Tensor, len(m.TaskMap))
			for lt, gt := range m.TaskMap {
				mine[lt] = got[gt]
			}
			within(t, fmt.Sprintf("run %d model %d", run, mi), mine, solo[mi], tol)
		}
	}
	if memo != nil && memo.Stats().Hits != int64(w.x.Dim(0)) {
		t.Fatalf("warm forward hit the memo %d times, want %d", memo.Stats().Hits, w.x.Dim(0))
	}
}

// layerLeg: without batch norm to fold, the plan's conv runs the layer's
// own unfold, GEMM and epilogue, so the two agree bit for bit — on the
// first sample alone and on the whole batch.
func layerLeg(t *testing.T, w world) {
	inst := plan.Compile(w.gs[0]).NewInstance()
	shape := w.x.Shape()
	one := tensor.FromSlice(w.x.Data()[:w.x.Size()/shape[0]], append([]int{1}, shape[1:]...)...)
	for _, x := range []*tensor.Tensor{one, w.x} {
		got, want := inst.Execute(x)[0], w.layer.Forward(x, false)
		if !tensor.SameShape(got, want) {
			t.Fatalf("batch %d: plan output %v, layer %v", x.Dim(0), got.Shape(), want.Shape())
		}
		for i, v := range got.Data() {
			if math.Float32bits(v) != math.Float32bits(want.Data()[i]) {
				t.Fatalf("batch %d (%s tier): element %d = %g, layer %g", x.Dim(0), tensor.VecKind(), i, v, want.Data()[i])
			}
		}
	}
}

// quantize quantizes a copy of the world under its accuracy budget. Later
// group members take the first one's stem annotations, since a group plan
// lowers its stem from the first member.
func quantize(t *testing.T, w world) ([]*graph.Graph, *quant.Report) {
	t.Helper()
	q := make([]*graph.Graph, len(w.gs))
	for i, g := range w.gs {
		q[i] = g.Clone()
	}
	rep, err := quant.Apply(q[0], w.ds, quant.Config{AccuracyDrop: w.drop})
	if err != nil {
		t.Fatal(err)
	}
	if rep.QuantizedOps == 0 {
		t.Fatal("nothing quantized; the int8 leg would be vacuous")
	}
	stem := fingerprint.StemNodes(q[0])
	for _, g := range q[1:] {
		for i, n := range fingerprint.StemNodes(g)[:w.stem] {
			n.Layer.(*nn.ConvBlock).Conv.Quant = stem[i].Layer.(*nn.ConvBlock).Conv.Quant
		}
	}
	return q, rep
}

// int8Leg holds the quantized plan of q to its f32 twin.
func int8Leg(t *testing.T, w world, q *graph.Graph, rep *quant.Report) {
	f32g := q.Clone()
	if quant.Strip(f32g) == 0 {
		t.Fatal("clone carried no annotations to strip")
	}
	f32 := engine.Compile(f32g).Forward(w.x)
	within(t, "f32 twin vs reference", f32, engine.NewReference(f32g).Forward(w.x), tol)
	i8 := engine.Compile(q)
	got := i8.Forward(w.x)

	// Every target left at int8 (a transformer's packed QKV projections
	// among them) must lower to an int8 op.
	var noise float64
	ops := i8.Plan().Ops
	for _, d := range rep.Ops {
		if d.Precision != "int8" {
			continue
		}
		noise += d.ErrScore
		if o := ops[d.OpID]; o.Name != d.Name || o.Precision() != "int8" {
			t.Errorf("int8 target %d %q lowered to %s op %q", d.OpID, d.Name, o.Kind, o.Name)
		}
	}

	// Calibrated tolerance: each int8 op's ErrScore is its predicted relative
	// noise power, so the per-head relative L2 error should be on the order
	// of sqrt(sum of scores). Allow 3x for propagation slack.
	bound := 3*math.Sqrt(noise) + 1e-3
	within(t, "int8 heads", got, f32, math.Inf(1))
	for task, want := range f32 {
		o := got[task]
		var errSq, sigSq float64
		for i, a := range want.Data() {
			d := float64(a) - float64(o.Data()[i])
			errSq += d * d
			sigSq += float64(a) * float64(a)
		}
		if rel := math.Sqrt(errSq / math.Max(sigSq, 1e-12)); rel > bound {
			t.Fatalf("int8 head %d relative L2 error %.4f exceeds calibrated tolerance %.4f", task, rel, bound)
		}
		acc, err := w.ds.Score(w.ds.Test, task, o)
		if err != nil {
			t.Fatal(err)
		}
		if base := rep.Baseline[task]; base-acc > w.drop+1e-9 {
			t.Fatalf("int8 task %d accuracy %.4f dropped more than %.4f below baseline %.4f",
				task, acc, w.drop, base)
		}
	}
}

// within asserts got carries want's heads at want's shapes, each element
// within tol of want: tol 0 demands bit equality, an infinite tol checks
// only heads, shapes and NaNs.
func within(t *testing.T, label string, got, want map[int]*tensor.Tensor, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d heads, want %d", label, len(got), len(want))
	}
	for task, w := range want {
		o := got[task]
		if o == nil {
			t.Fatalf("%s: missing head %d", label, task)
		}
		if !tensor.SameShape(o, w) {
			t.Fatalf("%s: head %d shape %v, want %v", label, task, o.Shape(), w.Shape())
		}
		for i, a := range w.Data() {
			if d := math.Abs(float64(a - o.Data()[i])); !(d <= tol) {
				t.Fatalf("%s: head %d elem %d: %v, want %v", label, task, i, o.Data()[i], a)
			}
		}
	}
}

var cifar = graph.Shape{3, 32, 32}

// primeBN runs a few training forwards so BatchNorm running statistics move
// away from their (identity-folding) init and the fold math is exercised.
func primeBN(g *graph.Graph, x *tensor.Tensor) {
	for i := 0; i < 3; i++ {
		g.Forward(x, true)
	}
}

// imageInput returns a deterministic normal-filled image batch.
func imageInput(seed uint64, n int, shape graph.Shape) *tensor.Tensor {
	x := tensor.New(append([]int{n}, shape...)...)
	tensor.NewRNG(seed).FillNormal(x, 0, 1)
	return x
}

// tokenInput returns a deterministic valid token-id batch.
func tokenInput(n, t, vocab int) *tensor.Tensor {
	x := tensor.New(n, t)
	for i := range x.Data() {
		x.Data()[i] = float32((i*7 + 3) % vocab)
	}
	return x
}

// twoTask builds a two-branch graph of the given architectures over one
// shared input.
func twoTask(t *testing.T, seed uint64, in graph.Shape, cfg models.Config, archA, archB string) *graph.Graph {
	t.Helper()
	rng := tensor.NewRNG(seed)
	g := graph.New(in, graph.DomainRaw)
	g.TaskNames[0], g.TaskNames[1] = archA, archB
	if _, err := models.AddBranch(g, rng, cfg, archA, 0, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := models.AddBranch(g, rng, cfg, archB, 1, 3); err != nil {
		t.Fatal(err)
	}
	g.RefreshCapacities()
	return g
}

// groupPair is the serving fixture with a second task on the second model,
// branching off its last stem node, so task ids need renumbering in a
// group.
func groupPair() []*graph.Graph {
	ga, gb := testutil.TinySharedStemPair(312)
	s1 := fingerprint.StemNodes(gb)[1]
	hr := tensor.NewRNG(313)
	b := graph.NewBlockNode(1, 2, "ConvBlock", graph.Shape{12, 4, 4}, graph.DomainSpatial,
		nn.NewConvBlock(hr, 12, 8, true, false))
	h := graph.NewBlockNode(1, 3, "Head", graph.Shape{8, 4, 4}, graph.DomainSpatial,
		nn.NewSequential("head", nn.NewGlobalAvgPool(), nn.NewLinear(hr, 8, 3)))
	gb.AppendChain(s1, b, h)
	gb.RefreshCapacities()
	return []*graph.Graph{ga, gb}
}
