package httpapi_test

import (
	"context"
	"math"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"repro/api"
	"repro/internal/data"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/parser"
	"repro/internal/quant"
	"repro/internal/serve/registry"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// End-to-end quantize-and-serve smoke: train a tiny model, quantize it
// under an accuracy budget, save the checkpoint, reload it, and serve
// inference over HTTP from the int8 plan. This is the CI smoke for the
// quantization pipeline's deployment path, over a CNN and a ViT, whose
// int8 linears sit inside transformer blocks.
func TestQuantizeAndServeSmoke(t *testing.T) {
	for _, w := range []struct {
		name  string
		build func() (*graph.Graph, *data.Dataset)
		drop  float64
	}{
		{"cnn", func() (*graph.Graph, *data.Dataset) {
			ds := testutil.TinyFace(71, 64, 32)
			g := testutil.TinyMultiDNN(72, ds)
			testutil.PretrainTeachers(g, ds, 3, 1e-2, 73)
			return g, ds
		}, 0.05},
		{"vit", func() (*graph.Graph, *data.Dataset) {
			ds := testutil.TinyFace(211, 96, 64)
			g := testutil.TinyViT(212, ds)
			testutil.PretrainTeachers(g, ds, 2, 1e-2, 213)
			return g, ds
		}, 0.5},
	} {
		t.Run(w.name, func(t *testing.T) {
			g, ds := w.build()
			quantizeAndServe(t, g, ds, w.drop)
		})
	}
}

func quantizeAndServe(t *testing.T, g *graph.Graph, ds *data.Dataset, drop float64) {
	rep, err := quant.Apply(g, ds, quant.Config{AccuracyDrop: drop})
	if err != nil {
		t.Fatal(err)
	}
	if rep.QuantizedOps == 0 {
		t.Fatal("nothing quantized; smoke would serve f32")
	}

	path := filepath.Join(t.TempDir(), "quantized.gmck")
	if err := parser.SaveFile(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := parser.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := quant.QuantizedOps(g2); got != rep.QuantizedOps {
		t.Fatalf("reloaded checkpoint lowers %d int8 ops, want %d", got, rep.QuantizedOps)
	}
	if g2.Quant == nil {
		t.Fatal("reloaded checkpoint lost its quant note")
	}
	direct := directForward(g2)
	for name, want := range directForward(g) {
		for i, v := range direct[name] {
			if math.Float32bits(v) != math.Float32bits(want[i]) {
				t.Fatalf("task %q elem %d: reloaded %v, saved %v", name, i, v, want[i])
			}
		}
	}

	s := newServer(t, g2, registry.ModelOptions{Pool: 1, MaxBatch: 4}, 0)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := api.NewClient(srv.URL)

	resp, err := c.Infer(context.Background(), sampleInput(3*16*16))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Outputs) != 2 {
		t.Fatalf("served %d tasks, want 2", len(resp.Outputs))
	}

	// The served outputs come from the same int8 plan quant.Apply
	// validated; spot-check they match a direct engine forward.
	for name, rows := range resp.Outputs {
		want, ok := direct[name]
		if !ok {
			t.Fatalf("unexpected task %q", name)
		}
		if len(rows) != 1 || len(rows[0]) != len(want) {
			t.Fatalf("task %q shape: got %d rows x %d, want 1 x %d", name, len(rows), len(rows[0]), len(want))
		}
		for i, v := range rows[0] {
			if diff := v - want[i]; diff > 1e-5 || diff < -1e-5 {
				t.Fatalf("task %q elem %d: served %v, direct %v", name, i, v, want[i])
			}
		}
	}
}

// directForward runs the smoke's single test sample through a private
// compiled engine, keyed by task name like the wire response.
func directForward(g *graph.Graph) map[string][]float32 {
	x := tensor.New(append([]int{1}, g.Root.InputShape...)...)
	copy(x.Data(), sampleInput(3*16*16))
	outs := engine.Compile(g).Forward(x)
	byName := make(map[string][]float32, len(outs))
	for id, o := range outs {
		byName[g.TaskNames[id]] = append([]float32(nil), o.Data()...)
	}
	return byName
}
