package httpapi

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/api"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/serve/registry"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// FuzzInferRequest posts arbitrary bodies under each Content-Type to an
// image model and a token-id model. The handler must answer 200, 400 or
// 413 and never panic, and any body the binary decoder accepts must
// re-encode to the same bytes, NaN payloads included.
func FuzzInferRequest(f *testing.F) {
	reg := registry.New()
	img := testutil.TinyMultiDNN(1, testutil.TinyFace(1, 8, 4))
	tok, err := models.SingleTask(tensor.NewRNG(5), models.Config{Vocab: 40}, models.BERTBase, graph.Shape{12}, graph.DomainRaw, 2)
	if err != nil {
		f.Fatal(err)
	}
	for _, m := range []struct {
		name string
		g    *graph.Graph
	}{{"img", img}, {"tok", tok}} {
		if _, err := reg.Register(m.name, m.g, registry.ModelOptions{Pool: 1}); err != nil {
			f.Fatal(err)
		}
	}
	s := NewRegistry(reg, 0)
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	h := s.Handler()

	le := func(vs ...uint32) []byte {
		b := make([]byte, 4*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint32(b[4*i:], v)
		}
		return b
	}
	ids := make([]uint32, 12)
	for i := range ids {
		ids[i] = math.Float32bits(float32(i))
	}
	f.Add(uint8(0), make([]byte, 4*3*16*16))
	f.Add(uint8(3), le(ids...))
	f.Add(uint8(3), le(append(ids[:11:11], 0x7fc00001)...)) // a NaN with a payload
	f.Add(uint8(0), le(0xff800000, 0x7f800000, 0x7fbfffff))
	f.Add(uint8(1), []byte(`{"input":[1,2,3,4,5,6,7,8,9,10,11,0]}`))
	f.Add(uint8(4), []byte(`{"input":[1,2,3,4,5,6,7,8,9,10,11,0]}`))
	f.Add(uint8(5), []byte(`{"input":[1e39]}`))
	f.Add(uint8(2), []byte(`{"input":`))
	for _, s := range inferJSONSeeds { // JSON to the image model, none-typed to the token model
		f.Add(uint8(1), []byte(s))
		f.Add(uint8(5), []byte(s))
	}

	types := []string{api.BinaryContentType, "application/json", ""}
	routes := []string{"/v2/models/img/infer", "/v2/models/tok/infer"}
	f.Fuzz(func(t *testing.T, kind uint8, body []byte) {
		req := httptest.NewRequest(http.MethodPost, routes[int(kind/3)%len(routes)], bytes.NewReader(body))
		if ct := types[int(kind)%len(types)]; ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}

		in, err := decodeBinary(body)
		if err != nil {
			if len(body)%4 == 0 {
				t.Fatalf("%d-byte body rejected: %v", len(body), err)
			}
			return
		}
		if len(in) != len(body)/4 {
			t.Fatalf("%d values from %d bytes", len(in), len(body))
		}
		for i, v := range in {
			if got, want := math.Float32bits(v), binary.LittleEndian.Uint32(body[4*i:]); got != want {
				t.Fatalf("value %d decodes to bits %#08x, body holds %#08x", i, got, want)
			}
		}
	})
}
