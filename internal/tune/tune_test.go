package tune

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fingerprint"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/plan"
	"repro/internal/tensor"
)

// vitGraph builds a small single-task ViT — it exercises both tunable
// kernel families in one compile: patch/qkv/linear GEMMs and the tiled
// attention.
func vitGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := models.SingleTask(tensor.NewRNG(3), models.Config{}, models.ViTBase,
		graph.Shape{3, 48, 48}, graph.DomainRaw, 3)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestModeOffReturnsDefaults(t *testing.T) {
	tn, err := New(ModeOff, "")
	if err != nil {
		t.Fatal(err)
	}
	gp, prov := tn.Gemm(64, 64, 64, false)
	if prov != plan.TuneDefault || gp != tensor.DefaultGemmParams() {
		t.Fatalf("off mode: got %v %q", gp, prov)
	}
	if _, prov := tn.Attn(64, 32); prov != plan.TuneDefault {
		t.Fatalf("off mode attn provenance %q", prov)
	}
	if n := tn.Measurements(); n != 0 {
		t.Fatalf("off mode measured %d times", n)
	}
}

func TestModeLoadNeverMeasures(t *testing.T) {
	tn, err := New(ModeLoad, filepath.Join(t.TempDir(), "absent.json"))
	if err != nil {
		t.Fatal(err)
	}
	if _, prov := tn.Gemm(32, 32, 32, true); prov != plan.TuneDefault {
		t.Fatalf("load-mode miss provenance %q", prov)
	}
	if n := tn.Measurements(); n != 0 {
		t.Fatalf("load mode measured %d times", n)
	}
}

func TestFullMeasuresThenCaches(t *testing.T) {
	tn, err := New(ModeFull, "")
	if err != nil {
		t.Fatal(err)
	}
	gp1, prov := tn.Gemm(8, 24, 24, false)
	if prov != plan.TuneMeasured {
		t.Fatalf("first lookup provenance %q", prov)
	}
	if tn.Measurements() == 0 {
		t.Fatal("no measurements recorded")
	}
	before := tn.Measurements()
	gp2, prov := tn.Gemm(8, 24, 24, false)
	if prov != plan.TuneCache {
		t.Fatalf("second lookup provenance %q", prov)
	}
	if gp1 != gp2 {
		t.Fatalf("cached winner %v != measured %v", gp2, gp1)
	}
	if tn.Measurements() != before {
		t.Fatal("cache hit re-measured")
	}
}

// TestConvTunesChannelMajor pins the conv's tuning orientation: the plan
// runs W[OutC, C·K·K] · cols[C·K·K, OH·OW], so the tuned key is that shape
// marked batch-on-n, and the measured operands scale the pixel columns by
// the nominal batch, not the output channels.
func TestConvTunesChannelMajor(t *testing.T) {
	g := graph.New(graph.Shape{3, 16, 16}, graph.DomainRaw)
	conv := graph.NewBlockNode(0, 0, "ConvBlock", g.Root.InputShape, graph.DomainRaw,
		nn.NewConvBlock(tensor.NewRNG(5), 3, 8, true, true))
	g.AppendChain(g.Root, conv)
	g.RefreshCapacities()
	tn, err := New(ModeFull, "")
	if err != nil {
		t.Fatal(err)
	}
	tn.SetBatch(4)
	plan.SetTuner(tn)
	defer plan.SetTuner(nil)
	p := plan.Compile(g)
	if o := p.Ops[0]; o.Kind != "conv" || o.Tune != plan.TuneMeasured {
		t.Fatalf("op 0 is %s with provenance %q, want a measured conv", o.Kind, o.Tune)
	}
	const key = "gemm m8 n256 k27 nb"
	if _, ok := tn.winners[key]; !ok || len(tn.winners) != 1 {
		t.Fatalf("tuned keys %v, want only %q", tn.winners, key)
	}
	if m, n, k := tn.gemmShape(8, 256, 27, true); m != 8 || n != 4*256 || k != 27 {
		t.Fatalf("conv measured as [%d,%d]·[%d,%d], want [8,27]·[27,1024]", m, k, k, n)
	}
	if m, n, k := tn.gemmShape(16, 64, 32, false); m != 4*16 || n != 64 || k != 32 {
		t.Fatalf("linear measured as [%d,%d]·[%d,%d], want [64,32]·[32,64]", m, k, k, n)
	}
}

// TestCompileWinnerCacheRoundTrip is the acceptance test for the persistent
// cache: compiling the same model with a fresh tuner backed by the saved
// cache file must perform ZERO measurements — every shape is a winner-cache
// hit — and every tunable op must carry cache provenance.
func TestCompileWinnerCacheRoundTrip(t *testing.T) {
	g := vitGraph(t)
	path := filepath.Join(t.TempDir(), "tune.json")

	tn1, err := New(ModeFull, path)
	if err != nil {
		t.Fatal(err)
	}
	plan.SetTuner(tn1)
	defer plan.SetTuner(nil)
	p1 := plan.Compile(g)
	if tn1.Measurements() == 0 {
		t.Fatal("first compile performed no measurements")
	}
	r1 := p1.Report()
	if r1.Tuned == 0 {
		t.Fatal("first compile stamped no tuned ops")
	}
	if err := tn1.Save(); err != nil {
		t.Fatal(err)
	}

	tn2, err := New(ModeFull, path)
	if err != nil {
		t.Fatal(err)
	}
	plan.SetTuner(tn2)
	p2 := plan.Compile(g)
	if n := tn2.Measurements(); n != 0 {
		t.Fatalf("second compile performed %d measurements, want 0", n)
	}
	r2 := p2.Report()
	if r2.Tuned != 0 {
		t.Fatalf("second compile stamped %d tuned ops, want 0", r2.Tuned)
	}
	if want := r1.Tuned + r1.Cached; r2.Cached != want {
		t.Fatalf("second compile cached %d ops, want %d", r2.Cached, want)
	}
	// The stamped parameters must be identical across the two compiles.
	for i, o1 := range r1.Ops {
		if o2 := r2.Ops[i]; o1.TuneParams != o2.TuneParams {
			t.Errorf("op %d params changed across compiles: %q -> %q", i, o1.TuneParams, o2.TuneParams)
		}
	}

	// load mode replays the same winners without ever measuring.
	tn3, err := New(ModeLoad, path)
	if err != nil {
		t.Fatal(err)
	}
	plan.SetTuner(tn3)
	p3 := plan.Compile(g)
	if n := tn3.Measurements(); n != 0 {
		t.Fatalf("load-mode compile performed %d measurements", n)
	}
	if r3 := p3.Report(); r3.Cached != r2.Cached {
		t.Fatalf("load-mode cached %d ops, want %d", r3.Cached, r2.Cached)
	}
}

// TestSavePreservesOtherMachines guards the invalidation story: a cache
// written on one machine — or on this machine by an older kernel generation,
// whose key carries no kgen field — must survive a save from the current
// section untouched and replay nothing (a CPU or kernel change starts a new
// section, never clobbers).
func TestSavePreservesOtherMachines(t *testing.T) {
	for _, foreign := range []string{
		"other-cpu vec=none",
		fingerprint.Machine() + " vec=" + tensor.VecKind(),
	} {
		path := filepath.Join(t.TempDir(), "tune.json")
		seed, err := json.Marshal(map[string]any{"machines": map[string]any{
			foreign: map[string]any{"gemm m1 n2 k3 tb0": map[string]any{"kc": 128, "nc": 128, "kernel": "8x8"}},
		}})
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, seed, 0o644); err != nil {
			t.Fatal(err)
		}
		tn, err := New(ModeFull, path)
		if err != nil {
			t.Fatal(err)
		}
		// The foreign winner must not leak into this machine's lookups.
		if _, prov := tn.Gemm(1, 2, 3, false); prov != plan.TuneMeasured {
			t.Fatalf("%q: foreign winner replayed: provenance %q", foreign, prov)
		}
		if err := tn.Save(); err != nil {
			t.Fatal(err)
		}
		tn2, err := New(ModeFull, path)
		if err != nil {
			t.Fatal(err)
		}
		if tn2.Entries() == 0 {
			t.Fatalf("%q: own section not persisted", foreign)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var f cacheFile
		if err := json.Unmarshal(data, &f); err != nil {
			t.Fatal(err)
		}
		if f.Machines[foreign]["gemm m1 n2 k3 tb0"].Kernel != "8x8" {
			t.Fatalf("%q: foreign section dropped on save: %s", foreign, data)
		}
	}
}

func TestParseMode(t *testing.T) {
	for _, ok := range []string{"off", "load", "full"} {
		if _, err := ParseMode(ok); err != nil {
			t.Errorf("ParseMode(%q): %v", ok, err)
		}
	}
	if _, err := ParseMode("sometimes"); err == nil {
		t.Error("ParseMode accepted garbage")
	}
}
