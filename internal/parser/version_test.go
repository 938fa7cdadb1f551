package parser

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fingerprint"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/plan"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// TestLoadAcceptsVersion2 keeps the pre-quantization format loadable:
// checkpoints written before version 3 existed must keep working. The
// fixture is the version-2 encoding of TinyMultiDNN(22, TinyFace(21, 4, 2)),
// written by the last release that could still emit that format.
func TestLoadAcceptsVersion2(t *testing.T) {
	g := testutil.TinyMultiDNN(22, testutil.TinyFace(21, 4, 2))
	g2, err := LoadFile("testdata/v2.gmck")
	if err != nil {
		t.Fatalf("load v2: %v", err)
	}
	if g2.NodeCount() != g.NodeCount() {
		t.Fatalf("node count %d != %d", g2.NodeCount(), g.NodeCount())
	}
	want, got := g.Params(), g2.Params()
	if len(want) != len(got) {
		t.Fatalf("param count %d != %d", len(got), len(want))
	}
	for i := range want {
		a, b := want[i].Value.Data(), got[i].Value.Data()
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("param %q diverges at %d", want[i].Name, j)
			}
		}
	}
	if g2.Quant != nil {
		t.Fatal("v2 checkpoint produced a quant note")
	}
}

// TestLoadRejectsUnknownVersion patches the version field past the current
// one (with the CRC refixed so the check is reached) and expects a clean
// rejection.
func TestLoadRejectsUnknownVersion(t *testing.T) {
	ds := testutil.TinyFace(25, 4, 2)
	g := testutil.TinyMultiDNN(26, ds)
	var buf bytes.Buffer
	if err := Save(&buf, g); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	body := append([]byte(nil), raw[:len(raw)-4]...)
	binary.LittleEndian.PutUint32(body[len(magic):], version+1)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc32.ChecksumIEEE(body))
	if _, err := Load(bytes.NewReader(append(body, tail[:]...))); err == nil {
		t.Fatal("future version accepted")
	}
}

// v3Transformers builds the graphs testdata/v3-vit.gmck and
// testdata/v3-bert.gmck hold, written by the last version-3 writer: a
// patch-embedded ViT block and a BERT stem feeding a transformer block, a
// standalone attention, a linear and a GELU. Every bias is set to
// v3Bias(column), the attention's packed QKV bias counting its columns
// across the Q|K|V bands, so the stored Q, K and V projections can only
// load into the right bands.
func v3Transformers() map[string]*graph.Graph {
	rng := tensor.NewRNG(71)
	vit := graph.New(graph.Shape{3, 8, 8}, graph.DomainRaw)
	vit.TaskNames[0] = "vit"
	s := graph.Shape{4, 8}
	vit.AppendChain(vit.Root,
		graph.NewBlockNode(0, 0, "PatchEmbed", vit.Root.InputShape, graph.DomainRaw, nn.NewPatchEmbed(rng, 3, 4, 8, 4)),
		graph.NewBlockNode(0, 1, "TransformerBlock", s, graph.DomainTokens, nn.NewTransformerBlock(rng, 8, 2, 16)),
		graph.NewBlockNode(0, 2, "Head", s, graph.DomainTokens,
			nn.NewSequential("vit-head", nn.NewTokenMeanPool(), nn.NewLinear(rng, 8, 3))))
	bert := graph.New(graph.Shape{6}, graph.DomainRaw)
	bert.TaskNames[0] = "bert"
	s = graph.Shape{6, 8}
	bert.AppendChain(bert.Root,
		graph.NewBlockNode(0, 0, "Embedding", bert.Root.InputShape, graph.DomainRaw, nn.NewEmbedding(rng, 20, 8, 6)),
		graph.NewBlockNode(0, 1, "TransformerBlock", s, graph.DomainTokens, nn.NewTransformerBlock(rng, 8, 2, 16)),
		graph.NewBlockNode(0, 2, "MultiHeadAttention", s, graph.DomainTokens, nn.NewMultiHeadAttention(rng, 8, 2)),
		graph.NewBlockNode(0, 3, "Linear", s, graph.DomainTokens, nn.NewLinear(rng, 8, 8)),
		graph.NewBlockNode(0, 4, "GELU", s, graph.DomainTokens, nn.NewGELU()),
		graph.NewBlockNode(0, 5, "Head", s, graph.DomainTokens,
			nn.NewSequential("bert-head", nn.NewTokenMeanPool(), nn.NewLinear(rng, 8, 2))))
	gs := map[string]*graph.Graph{"vit": vit, "bert": bert}
	for _, g := range gs {
		for _, p := range g.Params() {
			if p.Name == "bias" {
				for j := range p.Value.Data() {
					p.Value.Data()[j] = float32((j*37)%23-11) / 50
				}
			}
		}
		g.RefreshCapacities()
	}
	return gs
}

// TestLoadAcceptsVersion3Transformers keeps version-3 transformer
// checkpoints loadable, whose attention layers hold Q, K and V as three
// projections where version 4 holds the packed QKV: each fixture must load
// with the fingerprint it had when written, the weights and biases of the
// graph it was written from, and bit-identical compiled outputs; saved
// again, it must come back the same.
func TestLoadAcceptsVersion3Transformers(t *testing.T) {
	inputs := map[string]*tensor.Tensor{"vit": tensor.New(2, 3, 8, 8), "bert": tensor.New(2, 6)}
	tensor.NewRNG(72).FillNormal(inputs["vit"], 0, 1)
	for i := range inputs["bert"].Data() {
		inputs["bert"].Data()[i] = float32((i*7 + 3) % 20)
	}
	// Fingerprints of the fixtures under the version-3 reader.
	fps := map[string]string{"vit": "e4412007697abcc7", "bert": "7f2eefd16b840b42"}
	for name, want := range v3Transformers() {
		raw, err := os.ReadFile(filepath.Join("testdata", "v3-"+name+".gmck"))
		if err != nil {
			t.Fatal(err)
		}
		if v := binary.LittleEndian.Uint32(raw[len(magic):]); v != 3 {
			t.Fatalf("%s: fixture is version %d, want 3", name, v)
		}
		g, err := Load(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := fingerprint.String(g); got != fps[name] || got != fingerprint.String(want) {
			t.Errorf("%s: fingerprint %s, want %s (fresh graph %s)", name, got, fps[name], fingerprint.String(want))
		}
		wp, gp := want.Params(), g.Params()
		if len(gp) != len(wp) {
			t.Fatalf("%s: %d params, want %d", name, len(gp), len(wp))
		}
		for i, p := range wp {
			for j, v := range p.Value.Data() {
				if math.Float32bits(gp[i].Value.Data()[j]) != math.Float32bits(v) {
					t.Fatalf("%s: param %d (%s) element %d = %v, want %v", name, i, p.Name, j, gp[i].Value.Data()[j], v)
				}
			}
		}
		var v4 bytes.Buffer
		if err := Save(&v4, g); err != nil {
			t.Fatal(err)
		}
		again, err := Load(&v4)
		if err != nil {
			t.Fatalf("%s: reload at version %d: %v", name, version, err)
		}
		x := inputs[name]
		ref := plan.Compile(want).NewInstance().Execute(x)
		for label, h := range map[string]*graph.Graph{"fixture": g, "re-saved": again} {
			for task, out := range plan.Compile(h).NewInstance().Execute(x) {
				for i, v := range out.Data() {
					if math.Float32bits(v) != math.Float32bits(ref[task].Data()[i]) {
						t.Fatalf("%s %s: task %d output %d = %v, want %v", name, label, task, i, v, ref[task].Data()[i])
					}
				}
			}
		}
	}
}
