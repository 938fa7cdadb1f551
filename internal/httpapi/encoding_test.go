package httpapi_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/api"
	"repro/internal/graph"
	"repro/internal/httpapi"
	"repro/internal/models"
	"repro/internal/serve/registry"
	"repro/internal/tensor"
)

// tokenModel is a small BERT over 12 token ids from a vocabulary of 40.
func tokenModel(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := models.SingleTask(tensor.NewRNG(5), models.Config{Vocab: 40}, models.BERTBase, graph.Shape{12}, graph.DomainRaw, 2)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// encodeBinary is the api.BinaryContentType body: 4 little-endian bytes
// per value.
func encodeBinary(in []float32) []byte {
	b := make([]byte, 4*len(in))
	for i, v := range in {
		binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(v))
	}
	return b
}

func encodeJSON(t *testing.T, in []float32) []byte {
	t.Helper()
	b, err := json.Marshal(api.InferRequest{Input: in})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// postRaw posts body with the given Content-Type ("" sends no header) and
// returns the status and reply body.
func postRaw(t *testing.T, url, ctype string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := http.DefaultClient.Do(req)
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

// newEncodingServer serves the tiny image model as the default ("alpha")
// next to the token-id model ("tok").
func newEncodingServer(t *testing.T) *httptest.Server {
	t.Helper()
	reg := registry.New()
	if _, err := reg.Register("alpha", tinyGraph(1), registry.ModelOptions{Pool: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("tok", tokenModel(t), registry.ModelOptions{Pool: 1}); err != nil {
		t.Fatal(err)
	}
	s := httpapi.NewRegistry(reg, 0)
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return srv
}

// The same frames posted as JSON (with and without a Content-Type) and as
// binary get bit-identical outputs on both infer routes, and malformed
// bodies of either encoding get 400.
func TestInferEncodingsAgree(t *testing.T) {
	srv := newEncodingServer(t)
	img := make([]float32, 2*3*16*16)
	for i := range img {
		img[i] = float32(math.Sin(float64(i))) * 1.7
	}
	tok := make([]float32, 2*12)
	for i := range tok {
		tok[i] = float32((i * 7) % 40)
	}
	for _, c := range []struct {
		route string
		input []float32
	}{
		{"/v1/infer", img},
		{"/v2/models/alpha/infer", img},
		{"/v2/models/tok/infer", tok},
	} {
		var want *api.InferResponse
		for _, enc := range []struct{ name, ctype string }{
			{"json", "application/json"},
			{"json-no-type", ""},
			{"binary", api.BinaryContentType},
		} {
			body := encodeBinary(c.input)
			if enc.ctype != api.BinaryContentType {
				body = encodeJSON(t, c.input)
			}
			code, raw := postRaw(t, srv.URL+c.route, enc.ctype, body)
			if code != http.StatusOK {
				t.Fatalf("%s %s: status %d: %s", c.route, enc.name, code, raw)
			}
			var got api.InferResponse
			if err := json.Unmarshal(raw, &got); err != nil {
				t.Fatal(err)
			}
			if got.Batch != 2 {
				t.Fatalf("%s %s: batch %d, want 2", c.route, enc.name, got.Batch)
			}
			if want == nil {
				want = &got
				continue
			}
			for task, rows := range want.Outputs {
				for r, row := range rows {
					for k, v := range row {
						if g := got.Outputs[task][r][k]; math.Float32bits(g) != math.Float32bits(v) {
							t.Fatalf("%s %s: task %s [%d][%d] = %v, JSON gave %v", c.route, enc.name, task, r, k, g, v)
						}
					}
				}
			}
		}
	}

	per := 3 * 16 * 16
	bad := []struct {
		name, route, ctype string
		body               []byte
	}{
		{"binary empty", "/v1/infer", api.BinaryContentType, nil},
		{"binary ragged", "/v1/infer", api.BinaryContentType, make([]byte, 4*per+2)},
		{"binary partial sample", "/v2/models/alpha/infer", api.BinaryContentType, make([]byte, 4*per+4)},
		{"binary fractional id", "/v2/models/tok/infer", api.BinaryContentType, encodeBinary(append(make([]float32, 11), 1.5))},
		{"binary out-of-vocab id", "/v2/models/tok/infer", api.BinaryContentType, encodeBinary(append(make([]float32, 11), 40))},
		{"json fractional id", "/v2/models/tok/infer", "application/json", encodeJSON(t, append(make([]float32, 11), 1.5))},
		{"json out-of-vocab id", "/v2/models/tok/infer", "", encodeJSON(t, append(make([]float32, 11), 40))},
	}
	for _, c := range bad {
		if code, raw := postRaw(t, srv.URL+c.route, c.ctype, c.body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", c.name, code, bytes.TrimSpace(raw))
		}
	}
}

// patternReader repeats pat forever.
type patternReader struct {
	pat string
	off int
}

func (p *patternReader) Read(b []byte) (int, error) {
	for i := range b {
		b[i] = p.pat[p.off]
		p.off = (p.off + 1) % len(p.pat)
	}
	return len(b), nil
}

// Bodies over MaxInferBytes get 413 in both encodings — declared or
// discovered while reading, and even when the JSON value ends before the
// cap — count as failures, and the server keeps answering.
func TestInferBodyCap(t *testing.T) {
	c, s, per := newTestServer(t, registry.ModelOptions{Pool: 1}, 0)
	over := int64(httpapi.MaxInferBytes + 4*per)
	cases := []struct {
		name, ctype string
		body        io.Reader
		length      int64
	}{
		{"binary declared", api.BinaryContentType, &patternReader{pat: "\x00"}, over},
		{"binary chunked", api.BinaryContentType, io.LimitReader(&patternReader{pat: "\x00"}, over), -1},
		{"json chunked", "application/json",
			io.MultiReader(strings.NewReader(`{"input":[`), io.LimitReader(&patternReader{pat: "0,"}, over)), -1},
		{"json value ends before the cap", "application/json",
			io.MultiReader(strings.NewReader(`{"input":[0]}`), io.LimitReader(&patternReader{pat: " "}, over)), -1},
	}
	h := s.Handler()
	for _, cs := range cases {
		req := httptest.NewRequest(http.MethodPost, "/v1/infer", cs.body)
		req.ContentLength = cs.length
		req.Header.Set("Content-Type", cs.ctype)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d (%s), want 413", cs.name, rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
	}
	if _, err := c.Infer(context.Background(), sampleInput(per)); err != nil {
		t.Fatalf("normal request after the oversized ones: %v", err)
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Failures != int64(len(cases)) || st.Requests != 1 {
		t.Fatalf("failures %d requests %d, want %d and 1", st.Failures, st.Requests, len(cases))
	}
}

// A declared Content-Length is not a budget: a request that claims the
// most whole samples MaxInferBytes allows and sends a few bytes gets 400
// and costs the server only what it sent.
func TestInferDeclaredLengthCostsNothing(t *testing.T) {
	_, s, per := newTestServer(t, registry.ModelOptions{Pool: 1}, 0)
	h := s.Handler()
	declared := int64(httpapi.MaxInferBytes - httpapi.MaxInferBytes%(4*per))
	post := func() int {
		req := httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(encodeBinary([]float32{1, 2})))
		req.ContentLength = declared
		req.Header.Set("Content-Type", api.BinaryContentType)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	if code := post(); code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", code)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		post()
	}
	runtime.ReadMemStats(&after)
	if each := (after.TotalAlloc - before.TotalAlloc) / runs; each > 1<<20 {
		t.Fatalf("a short body declaring %d bytes allocated %d bytes", declared, each)
	}
}

// NaN and ±Inf inputs — only the binary encoding can carry them — get 400
// and a failure count, and never reach the batcher or the stem memo.
func TestInferRejectsNonFinite(t *testing.T) {
	c := newSharedStemServer(t)
	ctx := context.Background()
	per := 3 * 16 * 16
	// One good request first, so the memo has seen a row.
	if _, err := c.InferModel(ctx, "vit-a", sampleInput(per)); err != nil {
		t.Fatal(err)
	}
	before, err := c.ModelStats(ctx, "vit-a")
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		in := sampleInput(per)
		in[per/2] = v
		_, err := c.InferModel(ctx, "vit-a", in)
		var apiErr *api.Error
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr.Message, "not finite") {
			t.Fatalf("input %v: err %v, want 400 not finite", v, err)
		}
		st, err := c.ModelStats(ctx, "vit-a")
		if err != nil {
			t.Fatal(err)
		}
		if st.Failures != before.Failures+int64(i+1) {
			t.Fatalf("input %v: failures %d, want %d", v, st.Failures, before.Failures+int64(i+1))
		}
	}
	after, err := c.ModelStats(ctx, "vit-a")
	if err != nil {
		t.Fatal(err)
	}
	if after.Requests != before.Requests || after.Batches != before.Batches {
		t.Fatalf("non-finite inputs reached the batcher: requests %d -> %d, batches %d -> %d",
			before.Requests, after.Requests, before.Batches, after.Batches)
	}
	b, a := before.SharedStem, after.SharedStem
	if b == nil || a == nil {
		t.Fatal("no shared_stem section")
	}
	if a.MemoHits != b.MemoHits || a.MemoMisses != b.MemoMisses || a.MemoFiltered != b.MemoFiltered || a.MemoEntries != b.MemoEntries {
		t.Fatalf("non-finite inputs reached the stem memo: %+v -> %+v", b, a)
	}
}
