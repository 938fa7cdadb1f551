package plan_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/mutation"
	"repro/internal/nn"
	"repro/internal/plan"
	"repro/internal/tensor"
)

// Transformer lowering tests: the plan executor's fused linear/attn/addln
// op chain against graph.Forward, whose eager MultiHeadAttention runs the
// same packed projection and tiled attention kernel.

// vitGraph builds a single-task ViT over a [3,48,48] input: 36 tokens, so
// the attention streams multiple query tiles (bq=32) per head.
func vitGraph(t *testing.T, seed uint64) *graph.Graph {
	t.Helper()
	g, err := models.SingleTask(tensor.NewRNG(seed), models.Config{}, models.ViTBase,
		graph.Shape{3, 48, 48}, graph.DomainRaw, 3)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// bertGraph builds a two-task BERT over 12-token inputs with vocab 40.
func bertGraph(t *testing.T, seed uint64) *graph.Graph {
	t.Helper()
	rng := tensor.NewRNG(seed)
	g := graph.New(graph.Shape{12}, graph.DomainRaw)
	g.TaskNames[0], g.TaskNames[1] = "cola", "sst"
	cfg := models.Config{Vocab: 40}
	if _, err := models.AddBranch(g, rng, cfg, models.BERTBase, 0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := models.AddBranch(g, rng, cfg, models.BERTLarge, 1, 3); err != nil {
		t.Fatal(err)
	}
	g.RefreshCapacities()
	return g
}

func tokenBatch(n, t, vocab int) *tensor.Tensor {
	x := tensor.New(n, t)
	for i := range x.Data() {
		x.Data()[i] = float32((i*7 + 3) % vocab)
	}
	return x
}

func TestTransformerParityViT(t *testing.T) {
	g := vitGraph(t, 301)
	x := tensor.New(3, 3, 48, 48)
	tensor.NewRNG(302).FillNormal(x, 0, 1)
	checkParity(t, g, x)
}

func TestTransformerParityBERT(t *testing.T) {
	checkParity(t, bertGraph(t, 311), tokenBatch(3, 12, 40))
}

// TestTransformerOpGranularity exercises each transformer op standalone —
// embed, ln, attention (qkv+attn+proj), linear, gelu — rather than through
// the fused TransformerBlock lowering.
func TestTransformerOpGranularity(t *testing.T) {
	rng := tensor.NewRNG(321)
	const tok, d, vocab = 12, 16, 30
	g := graph.New(graph.Shape{tok}, graph.DomainRaw)
	g.TaskNames[0] = "ops"
	embed := graph.NewBlockNode(0, 0, "Embedding", g.Root.InputShape, graph.DomainRaw,
		nn.NewEmbedding(rng, vocab, d, tok))
	s := graph.Shape{tok, d}
	ln := graph.NewBlockNode(0, 1, "LayerNorm", s, graph.DomainTokens, nn.NewLayerNorm(d))
	mha := graph.NewBlockNode(0, 2, "MultiHeadAttention", s, graph.DomainTokens,
		nn.NewMultiHeadAttention(rng, d, 4))
	fc := graph.NewBlockNode(0, 3, "Linear", s, graph.DomainTokens, nn.NewLinear(rng, d, d))
	act := graph.NewBlockNode(0, 4, "GELU", s, graph.DomainTokens, nn.NewGELU())
	head := graph.NewBlockNode(0, 5, "Head", s, graph.DomainTokens,
		nn.NewSequential("head", nn.NewTokenMeanPool(), nn.NewLinear(rng, d, 2)))
	g.AppendChain(g.Root, embed, ln, mha, fc, act, head)
	g.RefreshCapacities()

	checkParity(t, g, tokenBatch(2, tok, vocab))
}

// TestTransformerLoweringNative: the ViT and BERT zoo profiles must lower
// onto the fused transformer kinds, seven ops a block: every attention
// reads a plain linear op, the packed QKV projection, the FFN's GELU rides
// FC1's epilogue and the closing residual add FC2's, so no standalone gelu
// or add op is left.
func TestTransformerLoweringNative(t *testing.T) {
	for name, g := range map[string]*graph.Graph{"vit": vitGraph(t, 331), "bert": bertGraph(t, 332)} {
		p := plan.Compile(g)
		kinds := make(map[string]int)
		residual := 0
		for _, o := range p.Ops {
			kinds[o.Kind]++
			if o.Kind == "linear" && o.In2 >= 0 {
				residual++
			}
			if o.Kind == "attn" {
				if src := p.Ops[p.Values[o.In].Producer]; src.Kind != "linear" || !strings.Contains(src.Name, " qkv(") {
					t.Errorf("%s: %s reads %s op %q, want the linear QKV projection", name, o.Name, src.Kind, src.Name)
				}
			}
		}
		for _, want := range []string{"attn", "addln", "ln", "linear"} {
			if kinds[want] == 0 {
				t.Errorf("%s: no %q ops lowered (kinds %v)", name, want, kinds)
			}
		}
		for _, gone := range []string{"add", "gelu"} {
			if kinds[gone] != 0 {
				t.Errorf("%s: %d standalone %q ops lowered, want them fused into the FFN linears", name, kinds[gone], gone)
			}
		}
		if residual != kinds["addln"] {
			t.Errorf("%s: %d linears carry a residual, want one per block (%d)", name, residual, kinds["addln"])
		}
	}
}

// TestTransformerExecuteZeroAllocs holds the fused transformer path to the
// PR 3 bar: zero steady-state heap allocations in Instance.Execute.
func TestTransformerExecuteZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	cases := map[string]struct {
		g *graph.Graph
		x *tensor.Tensor
	}{
		"vit":  {vitGraph(t, 341), tensor.New(2, 3, 48, 48)},
		"bert": {bertGraph(t, 342), tokenBatch(2, 12, 40)},
	}
	tensor.NewRNG(343).FillNormal(cases["vit"].x, 0, 1)
	for name, c := range cases {
		inst := plan.Compile(c.g).NewInstance()
		inst.Execute(c.x) // bind slabs and registers
		if avg := testing.AllocsPerRun(20, func() { inst.Execute(c.x) }); avg != 0 {
			t.Errorf("%s: steady-state Execute allocates %.1f objects per run, want 0", name, avg)
		}
	}
}

// TestRescaleTokensLowersNative: a cross-width token share (BERT-Base
// feeding a BERT-Large block, the B6/B7 elite shape) inserts a
// RescaleTokens adapter; the fused graph must lower it natively, match
// graph.Forward, and execute without allocating. A second
// graph resamples the token axis too, which no same-length BERT pair does.
func TestRescaleTokensLowersNative(t *testing.T) {
	base := bertGraph(t, 361)
	var cross []graph.Pair
	for _, p := range base.ShareablePairs() {
		if p.Host.TaskID != p.Guest.TaskID && !p.Host.InputShape.Eq(p.Guest.InputShape) {
			cross = append(cross, p)
			break
		}
	}
	if len(cross) == 0 {
		t.Fatal("BERT-Base/BERT-Large offer no cross-width share")
	}
	res, err := mutation.NewMutator(tensor.NewRNG(362)).Apply(base, cross)
	if err != nil {
		t.Fatal(err)
	}
	if res.RescalesInserted == 0 {
		t.Fatal("cross-width share inserted no Rescale adapter")
	}

	rng := tensor.NewRNG(363)
	const tok, d, vocab = 12, 16, 30
	resampled := graph.New(graph.Shape{tok}, graph.DomainRaw)
	resampled.TaskNames[0] = "resample"
	resampled.AppendChain(resampled.Root,
		graph.NewBlockNode(0, 0, "Embedding", resampled.Root.InputShape, graph.DomainRaw,
			nn.NewEmbedding(rng, vocab, d, tok)),
		graph.NewBlockNode(0, 1, "Rescale", graph.Shape{tok, d}, graph.DomainTokens,
			nn.NewRescaleTokens(rng, tok, d, 8, 24)),
		graph.NewBlockNode(0, 2, "Head", graph.Shape{8, 24}, graph.DomainTokens,
			nn.NewSequential("head", nn.NewTokenMeanPool(), nn.NewLinear(rng, 24, 2))))
	resampled.RefreshCapacities()

	for name, c := range map[string]struct {
		g *graph.Graph
		x *tensor.Tensor
		// op is the name suffix of an op the adapter must lower to.
		op string
	}{
		"fused bert pair": {res.Graph, tokenBatch(3, 12, 40), ") proj Linear("},
		"token resample":  {resampled, tokenBatch(3, tok, vocab), ") interp"},
	} {
		p := plan.Compile(c.g)
		found := false
		for _, o := range p.Ops {
			found = found || (strings.Contains(o.Name, " RescaleTokens(") && strings.Contains(o.Name, c.op))
		}
		if !found {
			t.Errorf("%s: no %q op lowered from the Rescale adapter:\n%s", name, c.op, p)
		}
		checkParity(t, c.g, c.x)
		if raceEnabled {
			continue // race detector instrumentation allocates
		}
		inst := p.NewInstance()
		inst.Execute(c.x) // bind slabs and registers
		if avg := testing.AllocsPerRun(20, func() { inst.Execute(c.x) }); avg != 0 {
			t.Errorf("%s: steady-state Execute allocates %.1f objects per run, want 0", name, avg)
		}
	}
}

// FuzzFusedQKVParity drives the packed-QKV linear + tiled-attention
// lowering against the eager MultiHeadAttention across random head counts,
// head dims, and sequence lengths.
func FuzzFusedQKVParity(f *testing.F) {
	f.Add(uint64(1), 2, 4, 8)
	f.Add(uint64(2), 4, 8, 33)
	f.Add(uint64(3), 1, 1, 1)
	f.Add(uint64(4), 3, 5, 40)
	f.Fuzz(func(t *testing.T, seed uint64, heads, hd, tok int) {
		heads = 1 + abs(heads)%4
		hd = 1 + abs(hd)%8
		tok = 1 + abs(tok)%48
		d := heads * hd
		rng := tensor.NewRNG(seed)
		g := graph.New(graph.Shape{tok, d}, graph.DomainTokens)
		g.TaskNames[0] = "attn"
		mha := graph.NewBlockNode(0, 0, "Head", g.Root.InputShape, graph.DomainTokens,
			nn.NewMultiHeadAttention(rng, d, heads))
		g.AppendChain(g.Root, mha)
		g.RefreshCapacities()
		x := tensor.New(2, tok, d)
		rng.FillNormal(x, 0, 1)
		checkParity(t, g, x)
	})
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// slowCube is a layer type the lowerer has never seen.
type slowCube struct{}

func (s *slowCube) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := tensor.New(x.Shape()...)
	xd, yd := x.Data(), y.Data()
	for i, v := range xd {
		yd[i] = v * v * v
	}
	return y
}
func (s *slowCube) Backward(g *tensor.Tensor) *tensor.Tensor { return g }
func (s *slowCube) Params() []*nn.Param                      { return nil }
func (s *slowCube) OutShape(in []int) []int                  { return append([]int(nil), in...) }
func (s *slowCube) FLOPs(in []int) int64                     { return 0 }
func (s *slowCube) Clone() nn.Layer                          { return &slowCube{} }
func (s *slowCube) Name() string                             { return "SlowCube" }

// TestUnlowerableLayerPanics: every op must be visible to the scheduler, so
// a layer type with no lowering fails the compile and names its type
// rather than running hidden behind a fallback.
func TestUnlowerableLayerPanics(t *testing.T) {
	rng := tensor.NewRNG(351)
	g := graph.New(graph.Shape{8}, graph.DomainRaw)
	g.TaskNames[0] = "cube"
	cube := graph.NewBlockNode(0, 0, "SlowCube", g.Root.InputShape, graph.DomainRaw, &slowCube{})
	head := graph.NewBlockNode(0, 1, "Head", graph.Shape{8}, graph.DomainRaw, nn.NewLinear(rng, 8, 2))
	g.AppendChain(g.Root, cube, head)
	g.RefreshCapacities()

	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "*plan_test.slowCube") {
			t.Fatalf("plan.Compile panic %q does not name the layer type", msg)
		}
	}()
	plan.Compile(g)
}
