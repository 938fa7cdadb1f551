package parser

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// annotateQuant attaches deterministic int8 annotations to every conv and
// linear layer in the graph (including those nested in blocks) and a
// graph-level QuantNote, returning how many layers were annotated.
func annotateQuant(g *graph.Graph, seed uint64) int {
	rng := tensor.NewRNG(seed)
	n := 0
	var walk func(l nn.Layer)
	annotate := func(rows, k int) *nn.Quant8 {
		q := &nn.Quant8{
			Rows: rows, K: k,
			W:       make([]int8, rows*k),
			WScale:  make([]float32, rows),
			Bias:    make([]float32, rows),
			InScale: float32(0.001 + rng.Float64()*0.05),
		}
		for i := range q.W {
			q.W[i] = int8(rng.Intn(255) - 127)
		}
		for i := range q.WScale {
			q.WScale[i] = float32(1e-4 + rng.Float64()*0.01)
			q.Bias[i] = float32(rng.NormFloat64())
		}
		n++
		return q
	}
	walk = func(l nn.Layer) {
		switch l := l.(type) {
		case *nn.Conv2d:
			l.Quant = annotate(l.OutC, l.InC*l.Kernel*l.Kernel)
		case *nn.Linear:
			l.Quant = annotate(l.Out, l.In)
		case *nn.ConvBlock:
			walk(l.Conv)
		case *nn.Sequential:
			for _, inner := range l.Layers {
				walk(inner)
			}
		}
	}
	for _, nd := range g.Nodes() {
		if nd.Layer != nil {
			walk(nd.Layer)
		}
	}
	g.Quant = &graph.QuantNote{
		Budget:    0.01,
		Baseline:  map[int]float64{0: 0.9375},
		Quantized: map[int]float64{0: 0.9296875},
	}
	return n
}

// collectQuants gathers annotations in deterministic node order.
func collectQuants(g *graph.Graph) []*nn.Quant8 {
	var out []*nn.Quant8
	var walk func(l nn.Layer)
	walk = func(l nn.Layer) {
		switch l := l.(type) {
		case *nn.Conv2d:
			if l.Quant != nil {
				out = append(out, l.Quant)
			}
		case *nn.Linear:
			if l.Quant != nil {
				out = append(out, l.Quant)
			}
		case *nn.ConvBlock:
			walk(l.Conv)
		case *nn.Sequential:
			for _, inner := range l.Layers {
				walk(inner)
			}
		}
	}
	for _, nd := range g.Nodes() {
		if nd.Layer != nil {
			walk(nd.Layer)
		}
	}
	return out
}

// TestRoundTripQuantizedBitExact: int8 payloads, per-channel scales, biases,
// the activation scale, and the QuantNote must survive Save/Load without a
// single bit changing.
func TestRoundTripQuantizedBitExact(t *testing.T) {
	g := buildSmallGraph(31)
	if annotateQuant(g, 32) < 2 {
		t.Fatal("fixture annotated fewer than 2 layers")
	}
	var buf bytes.Buffer
	if err := Save(&buf, g); err != nil {
		t.Fatalf("save: %v", err)
	}
	g2, err := Load(&buf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	want, got := collectQuants(g), collectQuants(g2)
	if len(want) != len(got) {
		t.Fatalf("annotation count %d, want %d", len(got), len(want))
	}
	for i := range want {
		a, b := want[i], got[i]
		if a.Rows != b.Rows || a.K != b.K {
			t.Fatalf("quant %d shape (%d,%d) != (%d,%d)", i, b.Rows, b.K, a.Rows, a.K)
		}
		if math.Float32bits(a.InScale) != math.Float32bits(b.InScale) {
			t.Fatalf("quant %d InScale bits diverge", i)
		}
		for j := range a.W {
			if a.W[j] != b.W[j] {
				t.Fatalf("quant %d int8 weight %d diverges", i, j)
			}
		}
		for j := range a.WScale {
			if math.Float32bits(a.WScale[j]) != math.Float32bits(b.WScale[j]) {
				t.Fatalf("quant %d WScale %d bits diverge", i, j)
			}
			if math.Float32bits(a.Bias[j]) != math.Float32bits(b.Bias[j]) {
				t.Fatalf("quant %d Bias %d bits diverge", i, j)
			}
		}
	}
	if g2.Quant == nil {
		t.Fatal("QuantNote lost")
	}
	if g2.Quant.Budget != g.Quant.Budget {
		t.Fatalf("QuantNote budget %v != %v", g2.Quant.Budget, g.Quant.Budget)
	}
	for id, v := range g.Quant.Baseline {
		if g2.Quant.Baseline[id] != v {
			t.Fatalf("baseline metric %d diverges", id)
		}
	}
	for id, v := range g.Quant.Quantized {
		if g2.Quant.Quantized[id] != v {
			t.Fatalf("quantized metric %d diverges", id)
		}
	}
}

// refixCRC rewrites the trailing CRC-32 so corruption reaches the decoder
// instead of being rejected by the checksum — this is what exercises the
// reader's own bounds validation.
func refixCRC(b []byte) []byte {
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
	return b
}

// Property: byte corruption in a quantized checkpoint, with the CRC refixed
// so the decoder actually sees the damage, must never panic. (An error or a
// still-valid graph are both acceptable; out-of-bounds reads are not.)
func TestQuantizedCorruptionWithFixedCRCNeverPanics(t *testing.T) {
	g := buildSmallGraph(33)
	annotateQuant(g, 34)
	var buf bytes.Buffer
	if err := Save(&buf, g); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	f := func(seed uint64) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		rng := tensor.NewRNG(seed)
		bad := append([]byte(nil), raw...)
		for flips := 1 + rng.Intn(4); flips > 0; flips-- {
			bad[rng.Intn(len(bad)-4)] ^= byte(1 + rng.Intn(255))
		}
		g2, err := Load(bytes.NewReader(refixCRC(bad)))
		if err == nil && g2.Validate() != nil {
			return false // Load accepted a graph its own validator rejects
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: truncation with a refixed CRC must error cleanly, never panic.
func TestQuantizedTruncationWithFixedCRCErrors(t *testing.T) {
	g := buildSmallGraph(35)
	annotateQuant(g, 36)
	var buf bytes.Buffer
	if err := Save(&buf, g); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	f := func(seed uint64) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		rng := tensor.NewRNG(seed)
		n := 8 + rng.Intn(len(raw)-8)
		bad := append([]byte(nil), raw[:n]...)
		_, err := Load(bytes.NewReader(refixCRC(bad)))
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
