package parser_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/mutation"
	"repro/internal/parser"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// roundTrip saves and reloads a graph, then asserts the reloaded graph is
// valid and produces bit-identical outputs.
func roundTrip(t *testing.T, g *graph.Graph, x *tensor.Tensor) *graph.Graph {
	t.Helper()
	var buf bytes.Buffer
	if err := parser.Save(&buf, g); err != nil {
		t.Fatalf("Save: %v", err)
	}
	g2, err := parser.Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if err := g2.Validate(); err != nil {
		t.Fatalf("reloaded graph invalid: %v", err)
	}
	out1 := g.Forward(x.Clone(), false)
	out2 := g2.Forward(x.Clone(), false)
	if len(out1) != len(out2) {
		t.Fatalf("task count changed: %d vs %d", len(out1), len(out2))
	}
	for id := range out1 {
		a, b := out1[id].Data(), out2[id].Data()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("task %d output diverges at %d: %v vs %v", id, i, a[i], b[i])
			}
		}
	}
	return g2
}

func TestRoundTripTinyCNN(t *testing.T) {
	ds := testutil.TinyFace(1, 8, 4)
	g := testutil.TinyMultiDNN(2, ds)
	roundTrip(t, g, ds.Test.X)
}

func TestRoundTripEveryArchitecture(t *testing.T) {
	rng := tensor.NewRNG(3)
	imgX := tensor.New(2, 3, 32, 32)
	rng.FillNormal(imgX, 0, 1)
	vitX := tensor.New(2, 3, 16, 16)
	rng.FillNormal(vitX, 0, 1)
	tokX := tensor.New(2, 12)
	for i := range tokX.Data() {
		tokX.Data()[i] = float32(i % 40)
	}
	cases := []struct {
		arch  string
		shape graph.Shape
		x     *tensor.Tensor
	}{
		{models.VGG11, graph.Shape{3, 32, 32}, imgX},
		{models.VGG16, graph.Shape{3, 32, 32}, imgX},
		{models.ResNet18, graph.Shape{3, 32, 32}, imgX},
		{models.ViTBase, graph.Shape{3, 16, 16}, vitX},
		{models.BERTBase, graph.Shape{12}, tokX},
	}
	for _, c := range cases {
		g, err := models.SingleTask(rng, models.Config{Vocab: 40}, c.arch, c.shape, graph.DomainRaw, 3)
		if err != nil {
			t.Fatalf("%s: %v", c.arch, err)
		}
		roundTrip(t, g, c.x)
	}
}

func TestRoundTripMutatedGraphWithRescale(t *testing.T) {
	ds := testutil.TinyFace(4, 8, 4)
	g := testutil.TinyMultiDNN(5, ds)
	mut := mutation.NewMutator(tensor.NewRNG(6))
	// Force a rescale: guest expects a different shape than the host input.
	res, err := mut.Apply(g, []graph.Pair{{
		Host:  mutation.FindNode(g, 0, 2),
		Guest: mutation.FindNode(g, 1, 1),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.RescalesInserted != 1 {
		t.Fatalf("fixture broken: expected a rescale, got %d", res.RescalesInserted)
	}
	roundTrip(t, res.Graph, ds.Test.X)
}

func TestLoadRejectsCorruption(t *testing.T) {
	ds := testutil.TinyFace(7, 4, 2)
	g := testutil.TinyMultiDNN(8, ds)
	var buf bytes.Buffer
	if err := parser.Save(&buf, g); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Flip a byte in the middle: CRC must catch it.
	bad := append([]byte(nil), raw...)
	bad[len(bad)/2] ^= 0xFF
	if _, err := parser.Load(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupted checkpoint accepted")
	}

	// Truncation must be rejected.
	if _, err := parser.Load(bytes.NewReader(raw[:len(raw)/2])); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}

	// Bad magic must be rejected.
	bad2 := append([]byte(nil), raw...)
	copy(bad2, "XXXX")
	if _, err := parser.Load(bytes.NewReader(bad2)); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.gmck")
	ds := testutil.TinyFace(9, 4, 2)
	g := testutil.TinyMultiDNN(10, ds)
	if err := parser.SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := parser.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NodeCount() != g.NodeCount() {
		t.Fatalf("node count %d != %d", g2.NodeCount(), g.NodeCount())
	}
	if g2.TaskNames[0] != g.TaskNames[0] {
		t.Fatal("task names lost")
	}
}

func TestRoundTripPreservesTrainedBatchNormStats(t *testing.T) {
	ds := testutil.TinyFace(11, 32, 8)
	g := testutil.TinyMultiDNN(12, ds)
	// Train a little so BN running stats move off their init.
	testutil.PretrainTeachers(g, ds, 2, 0.003, 13)
	roundTrip(t, g, ds.Test.X) // bit-identical eval output implies stats survive
}

// TestSaveLoadSaveByteIdentical decodes every zoo architecture (and a
// mutated graph carrying a Rescale adapter) from its checkpoint bytes and
// saves it again: the two checkpoints must be byte-identical, so every
// parameter and running statistic decodes to exactly the bits it was
// saved with, none keeping a constructor value. The old-version fixtures
// decode to a graph whose v4 save is stable the same way.
func TestSaveLoadSaveByteIdentical(t *testing.T) {
	save := func(t *testing.T, g *graph.Graph) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := parser.Save(&buf, g); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	resave := func(t *testing.T, raw []byte) []byte {
		t.Helper()
		g, err := parser.LoadBytes(raw)
		if err != nil {
			t.Fatal(err)
		}
		return save(t, g)
	}
	rng := tensor.NewRNG(31)
	graphs := map[string]*graph.Graph{}
	for _, arch := range []string{models.VGG11, models.VGG13, models.VGG16, models.ResNet18,
		models.ResNet34, models.ViTBase, models.ViTLarge, models.BERTBase, models.BERTLarge} {
		shape := graph.Shape{3, 32, 32}
		switch arch {
		case models.ViTBase, models.ViTLarge:
			shape = graph.Shape{3, 16, 16}
		case models.BERTBase, models.BERTLarge:
			shape = graph.Shape{12}
		}
		for _, gran := range []models.Granularity{models.GranularityBlock, models.GranularityOp} {
			if gran == models.GranularityOp && arch != models.VGG11 && arch != models.VGG13 && arch != models.VGG16 {
				continue
			}
			g, err := models.SingleTask(rng, models.Config{Vocab: 40, Granularity: gran}, arch, shape, graph.DomainRaw, 3)
			if err != nil {
				t.Fatalf("%s: %v", arch, err)
			}
			graphs[fmt.Sprintf("%s/gran%d", arch, gran)] = g
		}
	}
	ds := testutil.TinyFace(4, 8, 4)
	base := testutil.TinyMultiDNN(5, ds)
	mres, err := mutation.NewMutator(tensor.NewRNG(6)).Apply(base, []graph.Pair{{
		Host:  mutation.FindNode(base, 0, 2),
		Guest: mutation.FindNode(base, 1, 1),
	}})
	if err != nil || mres.RescalesInserted != 1 {
		t.Fatalf("fixture broken: %v, %d rescales", err, mres.RescalesInserted)
	}
	graphs["mutated-with-rescale"] = mres.Graph
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			raw := save(t, g)
			if again := resave(t, raw); !bytes.Equal(again, raw) {
				t.Fatalf("re-saved checkpoint differs: %d bytes vs %d", len(again), len(raw))
			}
		})
	}
	for _, fixture := range []string{"v2.gmck", "v3-bert.gmck", "v3-vit.gmck", "f16.gmck"} {
		t.Run(fixture, func(t *testing.T) {
			old, err := os.ReadFile(filepath.Join("testdata", fixture))
			if err != nil {
				t.Fatal(err)
			}
			raw := resave(t, old)
			if again := resave(t, raw); !bytes.Equal(again, raw) {
				t.Fatalf("re-saved checkpoint differs: %d bytes vs %d", len(again), len(raw))
			}
		})
	}
}
