package worker

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/distill"
	"repro/internal/parser"
	"repro/internal/search/coord"
	"repro/internal/testutil"
)

// TestOversizedEvalBodyGets413 sends /eval bodies over the bound — one
// that declares its length, one streamed without a length — and expects
// 413 for both, then a real evaluation from the same worker.
func TestOversizedEvalBodyGets413(t *testing.T) {
	ds := testutil.TinyFace(151, 32, 16)
	g := testutil.TinyMultiDNN(152, ds)
	opts := core.AccuracyOptions{FineTune: distill.Config{LR: 0.003, Epochs: 1, Batch: 16, EvalEvery: 1}}
	s := NewServer(core.NewLocalEvaluator(ds, map[int]float64{}, g, ds.Train.X, opts, 1), "crc32:test", len(g.Heads))

	enc, err := parser.SaveBase64(g)
	if err != nil {
		t.Fatal(err)
	}
	valid, err := json.Marshal(coord.EvalRequest{Graph: enc, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	limit := int64(len(valid))

	// The shipped bound refuses a declared oversize before reading a byte.
	req := httptest.NewRequest(http.MethodPost, "/eval", strings.NewReader("{}"))
	req.ContentLength = MaxEvalBytes + 1
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("declared %d bytes: status %d, want 413", req.ContentLength, rec.Code)
	}

	srv := httptest.NewServer(s.handler(limit))
	defer srv.Close()
	post := func(body io.Reader) (int, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/eval", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}
	// Leading whitespace puts the excess inside what the decoder must read;
	// MultiReader hides the length, so the body streams chunked.
	over := io.MultiReader(strings.NewReader(" "), bytes.NewReader(valid))
	if code, out := post(over); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("streamed %d bytes over a %d-byte bound: status %d (%s), want 413", limit+1, limit, code, out)
	}
	if s.Evals() != 0 {
		t.Fatalf("oversized bodies ran %d evaluations", s.Evals())
	}

	code, out := post(bytes.NewReader(valid))
	if code != http.StatusOK {
		t.Fatalf("valid body after the 413s: status %d (%s)", code, out)
	}
	var reply coord.EvalReply
	if err := json.Unmarshal(out, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Error != "" || reply.Report == nil || s.Evals() != 1 {
		t.Fatalf("valid body after the 413s: reply %+v, %d evaluations", reply, s.Evals())
	}
}

// TestConcurrentFirstEvalsComputeTeacherOutputsOnce fires two /eval
// requests at once at a fresh worker: the teacher outputs are computed
// exactly once, on the first job, and both outcomes — verdict, epochs,
// final metric and loss, trained weights — are bit-identical to the same
// jobs evaluated locally.
func TestConcurrentFirstEvalsComputeTeacherOutputsOnce(t *testing.T) {
	ds := testutil.TinyFace(171, 32, 16)
	g := testutil.TinyMultiDNN(172, ds)
	opts := core.AccuracyOptions{FineTune: distill.Config{LR: 0.003, Epochs: 2, Batch: 16, EvalEvery: 1}}
	targets := map[int]float64{}
	enc, err := parser.SaveBase64(g)
	if err != nil {
		t.Fatal(err)
	}
	seeds := []uint64{3, 4}

	before := core.TeacherOutputRuns()
	s := NewServer(core.NewLocalEvaluator(ds, targets, g, ds.Train.X, opts, 2), "crc32:test", len(g.Heads))
	if n := core.TeacherOutputRuns() - before; n != 0 {
		t.Fatalf("building the worker computed the teacher outputs %d times", n)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	replies := make([]coord.EvalReply, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func(i int, seed uint64) {
			defer wg.Done()
			body, err := json.Marshal(coord.EvalRequest{Graph: enc, Seed: seed})
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.Post(srv.URL+"/eval", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if err := json.NewDecoder(resp.Body).Decode(&replies[i]); err != nil {
				t.Error(err)
			}
		}(i, seed)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if n := core.TeacherOutputRuns() - before; n != 1 {
		t.Fatalf("two concurrent first evaluations computed the teacher outputs %d times, want 1", n)
	}

	local := core.NewLocalEvaluator(ds, targets, g, ds.Train.X, opts, 1)
	for i, seed := range seeds {
		cand, err := parser.LoadBase64(enc)
		if err != nil {
			t.Fatal(err)
		}
		want := local.EvaluateBatch([]core.EvalJob{{Cand: cand, Seed: seed}})[0]
		got := replies[i]
		if got.Error != "" || got.Report == nil || !want.Met || got.Met != want.Met {
			t.Fatalf("seed %d: worker reply %+v, local met %v", seed, got, want.Met)
		}
		if got.Report.EpochsRun != want.Report.EpochsRun ||
			math.Float64bits(got.Report.FinalLoss) != math.Float64bits(want.Report.FinalLoss) {
			t.Fatalf("seed %d: worker ran %d epochs to loss %v, local %d to %v", seed,
				got.Report.EpochsRun, got.Report.FinalLoss, want.Report.EpochsRun, want.Report.FinalLoss)
		}
		for task, a := range want.Report.Final {
			if math.Float64bits(got.Report.Final[task]) != math.Float64bits(a) {
				t.Fatalf("seed %d task %d: worker metric %v, local %v", seed, task, got.Report.Final[task], a)
			}
		}
		trained, err := parser.SaveBase64(want.Trained)
		if err != nil {
			t.Fatal(err)
		}
		if got.Trained != trained {
			t.Fatalf("seed %d: the worker's trained weights differ from the local evaluation's", seed)
		}
	}
}
