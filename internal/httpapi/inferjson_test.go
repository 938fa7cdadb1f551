package httpapi

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/api"
	"repro/internal/tensor"
)

// oracleInferJSON is the decoder decodeInferJSON replaces: the one the
// server ran before, and the behaviour it must keep.
func oracleInferJSON(body []byte) ([]float32, error) {
	var req api.InferRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req.Input, err
}

// inferJSONSeeds are bodies on each edge of what encoding/json accepts
// into an api.InferRequest.
var inferJSONSeeds = []string{
	`{"input":[1,2,3,4,5,6,7,8,9,10,11,0]}`,
	" \t\r\n{ \"input\" :\n[ 1 ,\t-2.5e-3 , 3E+2 ]\r} ",
	`{"INPUT":[1]}`,
	`{"Input":[1],"input":[2]}`,
	`{"ınput":[3]}`,
	`{"input":[4]}`,
	`{"ınput":[5],"other":"𐀀\ud800x"}`,
	`{"meta":{"a":[{"b":null},true,false,"s\"\\\/\b\f\n\r\t"],"c":-0.0},"input":[6]}`,
	`{"input":[1,2],"input":[7]}`,
	`{"input":[1,2,3],"input":[5],"input":[null,null,null,null]}`,
	`{"input":[1,2],"input":[],"input":[null,null]}`,
	`{"input":[1,2],"input":null}`,
	`{"input":null}`,
	`{"input":[null,1,null]}`,
	`{"input":[-0,0,-0.0,1e-50,3.4028235e38]}`,
	`{"input":[1e39]}`,
	`{"input":[-1e39]}`,
	`{"input":["1"]}`,
	`{"input":[[1]]}`,
	`{"input":{"a":1}}`,
	`{"input":5}`,
	`{"input":[01]}`,
	`{"input":[1.]}`,
	`{"input":[.5]}`,
	`{"input":[1,]}`,
	`{"input":[1] ,}`,
	`{"input":[1]} trailing garbage`,
	`{"input":[1]}{"input":[2]}`,
	`{"input":[1,2`,
	`{"input":`,
	`{"in`,
	`{`,
	``,
	`   `,
	`[1,2]`,
	`null`,
	`nullx`,
	`nul`,
	`"input"`,
	`12`,
	`true`,
	`{"a":"` + "\x01" + `"}`,
	`{"a":"\x"}`,
	`{"a":"\u12"}`,
	"{\"a\xff\":1,\"input\":[8]}",
	`{"input":[1],"a":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
	`{"input":[1],"a":` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `}`,
}

// FuzzInferJSON holds the one-pass decoder to encoding/json: on any body
// both must agree on accepting it, and an accepted body must decode to
// the same values bit for bit (and to nil exactly when the oracle's is).
func FuzzInferJSON(f *testing.F) {
	for _, s := range inferJSONSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := decodeInferJSON(body)
		want, werr := oracleInferJSON(body)
		if (err == nil) != (werr == nil) {
			t.Fatalf("body %q: one-pass err %v, encoding/json err %v", body, err, werr)
		}
		if err != nil {
			return
		}
		if len(got) != len(want) || (got == nil) != (want == nil) {
			t.Fatalf("body %q: one-pass %v, encoding/json %v", body, got, want)
		}
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("body %q: input[%d] one-pass %v, encoding/json %v", body, i, got[i], want[i])
			}
		}
	})
}

// TestDecodeInferJSONAllocLinear pins the decoder's allocation to a small
// multiple of the body on a body built to defeat its length guess: each
// "input":null resets the slice, so a decoder that guessed again at every
// following array would allocate bytes quadratic in the body's length.
func TestDecodeInferJSONAllocLinear(t *testing.T) {
	const repeat = `"input":null,"input":[0],`
	body := []byte("{" + strings.Repeat(repeat, (1<<20)/len(repeat)) + `"input":[1]}`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	in, err := decodeInferJSON(body)
	runtime.ReadMemStats(&after)
	if err != nil || len(in) != 1 || in[0] != 1 {
		t.Fatalf("got %v, err %v; want [1]", in, err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 2*uint64(len(body)) {
		t.Fatalf("decoding a %d-byte body allocated %d bytes, want at most twice the body", len(body), alloc)
	}
}

// BenchmarkDecodeInferJSON times one 3 072-float body (a 3x32x32 frame,
// as json.Marshal writes it) through the one-pass decoder and through the
// encoding/json oracle.
func BenchmarkDecodeInferJSON(b *testing.B) {
	frame := tensor.New(3 * 32 * 32)
	tensor.NewRNG(1).FillNormal(frame, 0, 1)
	body, err := json.Marshal(api.InferRequest{Input: frame.Data()})
	if err != nil {
		b.Fatal(err)
	}
	for _, dec := range []struct {
		name string
		fn   func([]byte) ([]float32, error)
	}{{"onepass", decodeInferJSON}, {"encoding_json", oracleInferJSON}} {
		b.Run(dec.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if in, err := dec.fn(body); err != nil || len(in) != frame.Size() {
					b.Fatalf("%d values, err %v", len(in), err)
				}
			}
		})
	}
}
