package coord_test

import (
	"encoding/base64"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/parser"
	"repro/internal/tensor"
)

// tinyWire encodes a two-task graph — a conv stem feeding two linear heads,
// one of them int8-annotated — in the wire form workers receive.
func tinyWire(t testing.TB) string {
	rng := tensor.NewRNG(5)
	g := graph.New(graph.Shape{2, 4, 4}, graph.DomainRaw)
	g.TaskNames[0], g.TaskNames[1] = "a", "b"
	stem := graph.NewBlockNode(0, 0, "ConvBlock", g.Root.InputShape, graph.DomainRaw,
		nn.NewConvBlock(rng, 2, 3, true, false))
	g.AddChild(g.Root, stem)
	q := nn.NewLinear(rng, 3, 2)
	w, s := tensor.QuantizeChannelsI8(tensor.Transpose2D(q.Weight.Value).Data(), 2, 3)
	q.Quant = &nn.Quant8{Rows: 2, K: 3, W: w, WScale: s, Bias: []float32{0, 0}, InScale: 0.1}
	for task, l := range []nn.Layer{nn.NewLinear(rng, 3, 2), q} {
		g.AddChild(stem, graph.NewBlockNode(task, 1, "Head", graph.Shape{3, 4, 4}, graph.DomainSpatial,
			nn.NewSequential("head", nn.NewGlobalAvgPool(), l)))
	}
	g.RefreshCapacities()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	s64, err := parser.SaveBase64(g)
	if err != nil {
		t.Fatal(err)
	}
	return s64
}

// FuzzDecodeGraph feeds arbitrary strings to the worker's graph decoder. It
// must never panic, and must return either an error or a graph that passes
// Validate. A mutated payload almost always fails the checkpoint's CRC, so
// each input that is valid base64 is also decoded once more with its CRC
// trailer recomputed, which drives the mutation into the layer decoders.
func FuzzDecodeGraph(f *testing.F) {
	f.Add(tinyWire(f))
	f.Add("")
	f.Add("not base64!")
	f.Fuzz(func(t *testing.T, s string) {
		check := func(s string) {
			g, err := parser.LoadBase64(s)
			if err != nil {
				return
			}
			if verr := g.Validate(); verr != nil {
				t.Fatalf("LoadBase64 returned a graph that fails Validate: %v", verr)
			}
		}
		check(s)
		raw, err := base64.StdEncoding.DecodeString(s)
		if err != nil || len(raw) < 4 {
			return
		}
		body := raw[:len(raw)-4]
		binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.ChecksumIEEE(body))
		check(base64.StdEncoding.EncodeToString(raw))
	})
}
