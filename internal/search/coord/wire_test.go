package coord_test

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"reflect"
	"testing"
	"time"

	"repro/internal/distill"
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

// reportWire is the /eval reply's report JSON for the two reports of
// TestReportWireJSON, as the coordinator and its workers have always
// exchanged it: task ids as sorted decimal strings, the train time in
// nanoseconds, no learning curve, and no final accuracies or error when
// there are none.
var reportWire = []string{
	`{"met":true,"terminated":true,"diverged":true,"epochs_run":7,"final":{"0":0.75,"1":0.875,"10":0.3,"2":0.5},"train_ns":1234567890,"final_loss":0.0123,"warm_started":true,"warm_fell_back":true,"err":"distill: data: scoring task 1: \"shape\" \u003cmismatch\u003e"}`,
	`{"met":false,"terminated":false,"diverged":false,"epochs_run":0,"train_ns":0,"final_loss":0,"warm_started":false,"warm_fell_back":false}`,
}

// TestReportWireJSON pins distill.Report's JSON, the report a worker's
// /eval reply carries, and its round trip.
func TestReportWireJSON(t *testing.T) {
	full := &distill.Report{
		Met: true, Terminated: true, Diverged: true, EpochsRun: 7,
		Final:     map[int]float64{0: 0.75, 10: 0.3, 2: 0.5, 1: 0.875},
		Curve:     []distill.Sample{{Epoch: 1, Accuracy: map[int]float64{0: 0.5}, MinMargin: -0.1}},
		TrainTime: 1234567890 * time.Nanosecond, FinalLoss: 0.0123,
		WarmStarted: true, WarmFellBack: true,
		Err: `distill: data: scoring task 1: "shape" <mismatch>`,
	}
	for i, r := range []*distill.Report{full, {}} {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != reportWire[i] {
			t.Errorf("report %d encodes as\n%s\nwant\n%s", i, b, reportWire[i])
		}
		var back distill.Report
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		want := *r
		want.Curve = nil
		if !reflect.DeepEqual(back, want) {
			t.Errorf("report %d round-trips to %+v, want %+v", i, back, want)
		}
	}
}
