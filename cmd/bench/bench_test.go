package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"testing"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90},
		{199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[99-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	s := summarize(samples)
	if s.N != 100 || s.Median != 50.5 || s.TailPct != 90 || s.Tail != 90 {
		t.Errorf("summarize(1..100) = %+v, want median 50.5 and p90 = 90", s)
	}
	if samples[0] != 100 {
		t.Error("summarize reordered its argument")
	}
	// Too few samples for any percentile: the tail is the maximum.
	if s := summarize([]float64{3, 9, 1}); s.TailPct != 0 || s.Tail != 9 || s.Median != 3 {
		t.Errorf("summarize of 3 samples = %+v, want max 9 at pct 0", s)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "nested", Start: 10, End: 40},
		{ID: 2, Parent: 1, Name: "leaf", Start: 20, End: 30},
		// Two overlapping children: only their union [50,80) counts.
		{ID: 3, Parent: 0, Name: "slotA", Start: 50, End: 70},
		{ID: 4, Parent: 0, Name: "slotB", Start: 60, End: 80},
		// A child that overruns its parent is clipped to it.
		{ID: 5, Parent: 0, Name: "late", Start: 95, End: 120},
	}
	want := map[int]int64{0: 100 - 30 - 30 - 5, 1: 20, 2: 10, 3: 20, 4: 20, 5: 25}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestFoldRoundsReparentsEvaluatorSpans(t *testing.T) {
	tr := newTracer()
	fuse := tr.add("gmorph.Fuse", -1, 7, 0, 1000)
	tr.add("estimator.evaluate", fuse, 7, 100, 300)
	tr.add("estimator.evaluate", fuse, 7, 200, 400) // overlaps the first
	tr.add("estimator.evaluate", fuse, 7, 600, 700)
	// Two rounds of two candidates each, ending at 450 and 900.
	busy := tr.foldRounds(fuse, 7, []int64{440, 450, 890, 900}, 2)
	if busy != 400e-9 {
		t.Errorf("evaluator busy = %v s, want the union 300+100 ns", busy)
	}
	spans := tr.snapshot()
	rounds := map[int]span{}
	for _, s := range spans {
		if s.Name == "core.round" {
			rounds[s.ID] = s
		}
	}
	if len(rounds) != 2 {
		t.Fatalf("want 2 round spans, have %d", len(rounds))
	}
	for _, s := range spans {
		if s.Name != "estimator.evaluate" {
			continue
		}
		r, ok := rounds[s.Parent]
		if !ok || s.Start < r.Start || s.Start >= r.End {
			t.Errorf("evaluator span %+v is not under the round containing it", s)
		}
	}
	self := selfTimes(spans)
	if self[fuse] != 100 { // [900,1000) is after the last round
		t.Errorf("Fuse self time = %d, want 100", self[fuse])
	}
}

func TestEvalTransportSpansTheWholeExchange(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "reply")
	}))
	defer srv.Close()
	tr := newTracer()
	fuse := tr.begin("gmorph.Fuse", -1, 4)
	tr.cur.Store(int64(fuse))
	tr.curReq.Store(4)
	client := &http.Client{Transport: evalTransport{http.DefaultTransport, tr}}
	for _, path := range []string{"/info", "/eval"} {
		resp, err := client.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if path == "/eval" {
			// Still open while the coordinator reads the reply.
			if s := tr.snapshot()[1]; s.Name != "estimator.evaluate" || s.Parent != fuse || s.Req != 4 || s.End != 0 {
				t.Errorf("span before the body is closed = %+v, want an open evaluator span under the Fuse call", s)
			}
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].End <= spans[1].Start {
		t.Errorf("spans = %+v, want the Fuse span and one closed /eval span (none for /info)", spans)
	}
}

func TestSeedFixesInputs(t *testing.T) {
	same := func(a, b []float32) bool { return reflect.DeepEqual(a, b) }
	f1, f2, f3 := faceInputs(7, 3, 16), faceInputs(7, 3, 16), faceInputs(8, 3, 16)
	k1, k2, k3 := tokenInputs(7, 3, 16, 40), tokenInputs(7, 3, 16, 40), tokenInputs(8, 3, 16, 40)
	for i := range f1 {
		if !same(f1[i].Data(), f2[i].Data()) || !same(k1[i].Data(), k2[i].Data()) {
			t.Fatalf("input %d differs between two draws of one seed", i)
		}
	}
	if same(f1[0].Data(), f3[0].Data()) || same(k1[0].Data(), k3[0].Data()) {
		t.Error("another seed drew the same inputs")
	}
	if same(f1[0].Data(), f1[1].Data()) {
		t.Error("two inputs of one draw are identical")
	}
	p1, p2, p3 := newFramePool(7, 12), newFramePool(7, 12), newFramePool(8, 12)
	if !same(p1.frame(5), p2.frame(5)) || same(p1.frame(5), p3.frame(5)) || same(p1.frame(5), p1.frame(6)) {
		t.Error("frame pool is not a function of (seed, frame index)")
	}
}

// benchmarkFile mirrors BENCHMARK.json's schema.
type benchmarkFile struct {
	Command    []string    `json:"command"`
	Paths      []string    `json:"paths"`
	RunSeconds int         `json:"run_seconds"`
	Workloads  []workload  `json:"workloads"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	var f benchmarkFile
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(keys))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the program", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		use(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why || len(w.Why) > 200 {
			t.Errorf("workload %d: %q does not match the program's %q (or its why is over 200 characters)", i, w.Name, workloads[i].Name)
		}
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end = %+v, program has %+v", f.EndToEnd, endToEnd)
	}
	var layer []metricDef
	for _, m := range perLayer {
		layer = append(layer, m.metricDef)
	}
	if !reflect.DeepEqual(f.PerLayer, layer) {
		t.Errorf("per_layer does not match the program's list")
	}
	hasSetup := false
	for _, m := range append(append([]metricDef(nil), f.EndToEnd...), f.PerLayer...) {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound > 0.25 {
			t.Errorf("metric %+v is malformed", m)
		}
		hasSetup = hasSetup || m == metricDef{Name: "setup_s", Unit: "s", Better: "lower", Bound: m.Bound}
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
}

// TestSmoke runs every workload untraced and traced at tiny counts, so flag
// wiring and the output schema cannot rot. Its numbers mean nothing.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, traced := range []bool{false, true} {
		o := options{workload: "all", seed: 3, seconds: 0.2, trace: traced, smoke: true, scratch: t.TempDir()}
		res, err := run(o, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < len(workloads) {
			t.Errorf("traced=%v: result %v/%v correct=%v", traced, res.Failed, res.Attempted, res.Correct)
		}
		// The result line round-trips through the schema with every metric.
		raw, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		var back result
		if err := json.Unmarshal(raw, &back); err != nil || !reflect.DeepEqual(back, res) {
			t.Fatalf("result does not round-trip: %v", err)
		}
		want := len(endToEnd)
		if traced {
			want = len(perLayer)
		}
		if len(res.Metrics) != want*len(workloads) {
			t.Errorf("traced=%v: %d metrics, want %d per workload", traced, len(res.Metrics), want)
		}
		for _, w := range workloads {
			for _, m := range endToEnd {
				if v := res.Metrics[w.Name+"/"+m.Name]; !traced && (v.Value <= 0 || v.Unit != m.Unit) {
					t.Errorf("%s/%s = %+v, want a positive value in %s", w.Name, m.Name, v, m.Unit)
				}
			}
		}
	}
}
