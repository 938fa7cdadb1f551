package engine_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/fingerprint"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/plan"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// closeEnough asserts per-element relative agreement at 1e-4, the parity
// suite's standard wall.
func closeEnough(t *testing.T, label string, got, want *tensor.Tensor) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: missing output", label)
	}
	if !tensor.SameShape(got, want) {
		t.Fatalf("%s: shape %v, want %v", label, got.Shape(), want.Shape())
	}
	for i := range want.Data() {
		a, b := float64(want.Data()[i]), float64(got.Data()[i])
		if math.Abs(a-b) > 1e-4*math.Max(1, math.Abs(a)) {
			t.Fatalf("%s: elem %d: %v vs %v", label, i, b, a)
		}
	}
}

// groupPair is the serving fixture with a second task on the second model,
// branching off its last stem node, so task ids need renumbering in a
// group. int8 quantizes the first model and mirrors its stem annotations
// onto the second, so both lower the shared stem as the group plan (which
// takes the first graph's stem precision) does.
func groupPair(t *testing.T, ds *data.Dataset, int8 bool) []*graph.Graph {
	t.Helper()
	ga, gb := testutil.TinySharedStemPair(312)
	s1 := fingerprint.StemNodes(gb)[1]
	hr := tensor.NewRNG(313)
	b := graph.NewBlockNode(1, 2, "ConvBlock", graph.Shape{12, 4, 4}, graph.DomainSpatial,
		nn.NewConvBlock(hr, 12, 8, true, false))
	h := graph.NewBlockNode(1, 3, "Head", graph.Shape{8, 4, 4}, graph.DomainSpatial,
		nn.NewSequential("head", nn.NewGlobalAvgPool(), nn.NewLinear(hr, 8, 3)))
	gb.AppendChain(s1, b, h)
	gb.RefreshCapacities()
	if int8 {
		rep, err := quant.Apply(ga, ds, quant.Config{AccuracyDrop: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if rep.QuantizedOps == 0 {
			t.Fatal("nothing quantized; the int8 rows would be vacuous")
		}
		sa, sb := fingerprint.StemNodes(ga), fingerprint.StemNodes(gb)
		for i := range sb {
			sb[i].Layer.(*nn.ConvBlock).Conv.Quant = sa[i].Layer.(*nn.ConvBlock).Conv.Quant
		}
	}
	return []*graph.Graph{ga, gb}
}

// One plan for one model or many, in f32 and int8: the rows of one parity
// table over group size x memo x precision.
func TestSharedFusedParityF32(t *testing.T)       { groupParity(t, "f32") }
func TestSharedFusedParityQuantized(t *testing.T) { groupParity(t, "int8") }

// groupParity runs one precision's rows of the table: a group of one is
// exactly plan.Compile (and, in f32, the eager reference at 1e-4), with no
// stem, the identity task map and no use for a memo; each member of a group
// of two matches its group of one at 1e-4 on every forward — cold,
// admitting, and served from the stem memo.
func groupParity(t *testing.T, prec string) {
	ds := testutil.TinyFace(311, 96, 64)
	x := ds.Test.X
	gs := groupPair(t, ds, prec == "int8")
	for _, n := range []int{1, 2} {
		for _, memoOn := range []bool{false, true} {
			t.Run(fmt.Sprintf("n=%d/memo=%v", n, memoOn), func(t *testing.T) {
				var memo *plan.StemMemo
				if memoOn {
					memo = plan.NewStemMemo(256)
				}
				eng, err := engine.CompileShared(gs[:n], 0, memo, plan.NewStemStats())
				if err != nil {
					t.Fatal(err)
				}
				p := eng.Plan()
				if n == 1 {
					checkGroupOfOne(t, gs[0], p, x, eng, prec == "f32")
					if memo.Stats().Hits+memo.Stats().Misses != 0 {
						t.Fatalf("a plan without a stem used the memo: %+v", memo.Stats())
					}
					return
				}
				checkGroup(t, gs, p, x, eng, memo, prec == "int8")
			})
		}
	}
}

func checkGroupOfOne(t *testing.T, g *graph.Graph, p *plan.Plan, x *tensor.Tensor, eng *engine.Fused, f32 bool) {
	t.Helper()
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
	ref := engine.NewReference(g).Forward(x)
	for run := 0; run < 3; run++ {
		got := eng.Forward(x)
		if len(got) != len(want) {
			t.Fatalf("%d outputs, plan.Compile has %d", len(got), len(want))
		}
		for task, w := range want {
			for i, v := range w.Data() {
				if got[task].Data()[i] != v {
					t.Fatalf("run %d task %d elem %d: %v, plan.Compile %v", run, task, i, got[task].Data()[i], v)
				}
			}
			if f32 {
				closeEnough(t, "vs reference", got[task], ref[task])
			}
		}
	}
}

func checkGroup(t *testing.T, gs []*graph.Graph, p *plan.Plan, x *tensor.Tensor, eng *engine.Fused, memo *plan.StemMemo, int8 bool) {
	t.Helper()
	if p.StemDepth != 2 || len(p.Models) != 2 || len(p.Heads) != 3 {
		t.Fatalf("stem depth %d, %d models, %d heads; want 2, 2, 3", p.StemDepth, len(p.Models), len(p.Heads))
	}
	quantStem := false
	for _, o := range p.Ops {
		quantStem = quantStem || (o.Wave < p.StemWaves && o.Precision() == "int8")
	}
	if quantStem != int8 {
		t.Fatalf("int8 ops in the stem: %v, want %v", quantStem, int8)
	}
	// The task maps partition the plan's heads.
	seen := map[int]bool{}
	for _, m := range p.Models {
		for _, gt := range m.TaskMap {
			if _, head := p.Heads[gt]; seen[gt] || !head {
				t.Fatalf("task maps %+v do not partition heads %v", p.Models, p.Heads)
			}
			seen[gt] = true
		}
	}
	solo := make([]map[int]*tensor.Tensor, len(gs))
	for i, g := range gs {
		one, err := engine.CompileShared([]*graph.Graph{g}, 0, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		solo[i] = one.Forward(x)
	}
	// Cold, then the doorkeeper's second sighting admits, then warm.
	for run := 0; run < 3; run++ {
		got := eng.Forward(x)
		for mi, m := range p.Models {
			for lt, gt := range m.TaskMap {
				closeEnough(t, fmt.Sprintf("run %d model %d task %d", run, mi, lt), got[gt], solo[mi][lt])
			}
		}
	}
	if memo != nil && memo.Stats().Hits != int64(x.Dim(0)) {
		t.Fatalf("warm forward hit the memo %d times, want %d", memo.Stats().Hits, x.Dim(0))
	}
}
