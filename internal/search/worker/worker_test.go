package worker

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
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
	outs := distill.ComputeTeacherOutputs(g, ds.Train.X, 64)
	opts := core.AccuracyOptions{FineTune: distill.Config{LR: 0.003, Epochs: 1, Batch: 16, EvalEvery: 1}}
	s := NewServer(core.NewLocalEvaluator(ds, map[int]float64{}, outs, ds.Train.X, opts, 1), "crc32:test", len(g.Heads))

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
