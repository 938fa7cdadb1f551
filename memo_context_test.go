package gmorph_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	gmorph "repro"
	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// memoTierChildEnv marks a re-executed child of
// TestFuseMemoOfAnotherKernelTierReplaysNothing; its value is the
// directory holding the teachers, where the child writes its memo.
const memoTierChildEnv = "GMORPH_MEMO_TIER_CHILD"

// contextWorld is the memo-context tests' world: small pre-trained
// teachers over a TinyFace stream drawn from dataSeed.
func contextWorld(dataSeed uint64) (*gmorph.Model, *gmorph.Dataset) {
	ds := testutil.TinyFace(dataSeed, 48, 32)
	teachers := testutil.TinyMultiDNN(152, ds)
	testutil.PretrainTeachers(teachers, ds, 4, 0.004, 153)
	return teachers, ds
}

// contextConfig is a short FLOPs-ranked search that accepts candidates, so
// its memo holds trained checkpoints.
func contextConfig() gmorph.Config {
	return gmorph.Config{
		AccuracyDrop: 0.10, Rounds: 6, FineTuneEpochs: 2, LearningRate: 0.003,
		EvalEvery: 1, SearchBatch: 2, RuleFilter: true, OptimizeFLOPs: true, Seed: 19,
	}
}

// fuseCounted runs Fuse with the memo at path ("" for none) and returns the
// result and how many times the teachers were scored on Test.
func fuseCounted(t *testing.T, teachers *gmorph.Model, ds *gmorph.Dataset, cfg gmorph.Config, path string) (*gmorph.Result, int64) {
	t.Helper()
	cfg.MemoPath = path
	before := core.TeacherScoreRuns()
	res, err := gmorph.Fuse(teachers, ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, core.TeacherScoreRuns() - before
}

// sameAsFresh asserts that a search over a memo replayed none of it: it
// retraces the same search over no memo record for record, and its
// counters match except for the latency memo's, which is keyed by machine
// and structure alone and so may legitimately replay.
func sameAsFresh(t *testing.T, label string, fresh, got *gmorph.Result) {
	t.Helper()
	if len(got.Traces) != len(fresh.Traces) {
		t.Fatalf("%s: %d records, the fresh search %d", label, len(got.Traces), len(fresh.Traces))
	}
	for i := range fresh.Traces {
		if w, g := searchDetermined(fresh.Traces[i]), searchDetermined(got.Traces[i]); !reflect.DeepEqual(w, g) {
			t.Fatalf("%s: round %d differs from the fresh search:\n%+v\n%+v", label, i+1, w, g)
		}
	}
	ws, gs := fresh.Stats, got.Stats
	ws.LatencyHits, ws.LatencyMisses, gs.LatencyHits, gs.LatencyMisses = 0, 0, 0, 0
	if ws != gs {
		t.Fatalf("%s: counters differ from the fresh search:\n%+v\n%+v", label, ws, gs)
	}
	if gs.FineTuned == 0 {
		t.Fatalf("%s: nothing fine-tuned; the search exercises no outcome", label)
	}
}

// sameBits asserts two target maps are equal bit for bit.
func sameBits(t *testing.T, label string, want, got map[int]float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d targets, want %d", label, len(got), len(want))
	}
	for id, w := range want {
		if g, ok := got[id]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: task %d target %v, want %v", label, id, g, w)
		}
	}
}

// The memo replays a candidate outcome only under the evaluation context
// it was measured in, and the teachers' score only in its world. Over its
// own memo a search replays everything: no fine-tune, no teacher-scoring
// forward, and targets bit-identical to the measured ones. Under another
// seed, accuracy budget or dataset the same memo replays no outcome, and
// the search is the one it would be over no memo; the teachers' score
// still replays under another seed or budget (same world) and is measured
// afresh over another dataset.
func TestFuseMemoReplaysOnlyItsContext(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	teachers, ds := contextWorld(151)
	cfg := contextConfig()
	dir := t.TempDir()
	memo := filepath.Join(dir, "memo.json")

	written, runs := fuseCounted(t, teachers, ds, cfg, memo)
	if runs != 1 || len(written.Elites) == 0 {
		t.Fatalf("the writing search scored the teachers %d times and accepted %d candidates, want 1 and some",
			runs, len(written.Elites))
	}
	replay, runs := fuseCounted(t, teachers, ds, cfg, memo)
	if runs != 0 {
		t.Fatalf("a replay over a full memo scored the teachers %d times, want 0", runs)
	}
	if st := replay.Stats; st.FineTuned != 0 || st.CacheMisses != 0 || st.CacheHits == 0 {
		t.Fatalf("the replay did not replay every outcome: %+v", st)
	}
	sameBits(t, "replayed targets", written.Targets, replay.Targets)

	raw, err := os.ReadFile(memo)
	if err != nil {
		t.Fatal(err)
	}
	_, otherDS := contextWorld(161)
	for _, v := range []struct {
		name      string
		ds        *gmorph.Dataset
		edit      func(*gmorph.Config)
		sameWorld bool
	}{
		{"seed", ds, func(c *gmorph.Config) { c.Seed++ }, true},
		{"accuracy drop", ds, func(c *gmorph.Config) { c.AccuracyDrop = 0.11 }, true},
		{"dataset", otherDS, func(*gmorph.Config) {}, false},
	} {
		t.Run(v.name, func(t *testing.T) {
			vcfg := cfg
			v.edit(&vcfg)
			fresh, _ := fuseCounted(t, teachers, v.ds, vcfg, "")
			foreign := filepath.Join(t.TempDir(), "memo.json")
			if err := os.WriteFile(foreign, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			got, runs := fuseCounted(t, teachers, v.ds, vcfg, foreign)
			sameAsFresh(t, v.name, fresh, got)
			sameBits(t, v.name+" targets", fresh.Targets, got.Targets)
			if want := map[bool]int64{true: 0, false: 1}[v.sameWorld]; runs != want {
				t.Fatalf("the teachers were scored %d times, want %d", runs, want)
			}
		})
	}

	// The same memo as the version-2 format wrote it: one outcome table,
	// no context and no teacher score. A core.Config caller, which binds
	// no context, still replays it; Fuse never does.
	v2 := filepath.Join(dir, "memo-v2.json")
	if err := os.WriteFile(v2, asVersion2(t, raw), 0o644); err != nil {
		t.Fatal(err)
	}
	if m, err := core.NewDiskMemo(v2); err != nil || m.Len() == 0 {
		t.Fatalf("the version-2 file loads %v entries (%v) without a context", m.Len(), err)
	}
	got, runs := fuseCounted(t, teachers, ds, cfg, v2)
	sameAsFresh(t, "version-2 memo", written, got)
	if runs != 1 {
		t.Fatalf("over a version-2 memo the teachers were scored %d times, want 1", runs)
	}
}

// asVersion2 rewrites a version-3 memo of one evaluation context as the
// version-2 format held it: the context's outcomes as the one "entries"
// table, the latencies, and the same checkpoint tail (with one context,
// the version-3 tail order is the version-2 one).
func asVersion2(t *testing.T, raw []byte) []byte {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	var index struct {
		Outcomes  map[string]json.RawMessage `json:"outcomes"`
		Latencies json.RawMessage            `json:"latencies"`
	}
	if err := dec.Decode(&index); err != nil {
		t.Fatal(err)
	}
	if len(index.Outcomes) != 1 {
		t.Fatalf("the memo holds %d contexts, want 1", len(index.Outcomes))
	}
	var entries json.RawMessage
	for _, sec := range index.Outcomes {
		entries = sec
	}
	out, err := json.MarshalIndent(map[string]any{
		"version": 2, "entries": entries, "latencies": index.Latencies,
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, raw[dec.InputOffset():]...)
}

// A memo written on the pure-Go kernel tier replays nothing on the AVX2
// tier: the tiers train to different bits, so the world key carries the
// kernel signature. A child process of this test binary, under
// GMORPH_NOVEC=1, runs the search over the same teachers (loaded from a
// checkpoint) and dataset and writes the memo; the search over it here is
// the one over no memo, and the teachers are scored afresh. The two world
// keys differ only in the kernel signature.
func TestFuseMemoOfAnotherKernelTierReplaysNothing(t *testing.T) {
	if dir := os.Getenv(memoTierChildEnv); dir != "" {
		teachers, err := gmorph.Load(filepath.Join(dir, "teachers.gmck"))
		if err != nil {
			t.Fatal(err)
		}
		ds := testutil.TinyFace(151, 48, 32)
		fuseCounted(t, teachers, ds, contextConfig(), filepath.Join(dir, "memo.json"))
		fmt.Printf("world-key %s\n", worldKey(t, teachers, ds))
		return
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	if tensor.VecKind() != "avx2" {
		t.Skip("this CPU runs the pure-Go tier only; there is no other tier to write the memo")
	}
	teachers, ds := contextWorld(151)
	dir := t.TempDir()
	if err := gmorph.Save(filepath.Join(dir, "teachers.gmck"), teachers); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestFuseMemoOfAnotherKernelTierReplaysNothing$", "-test.count=1")
	cmd.Env = append(os.Environ(), memoTierChildEnv+"="+dir, "GMORPH_NOVEC=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	var childKey string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "world-key "); ok {
			childKey = rest
		}
	}
	key := worldKey(t, teachers, ds)
	world, ok := strings.CutSuffix(key, " "+tensor.KernelSignature())
	if !ok || childKey == key || !strings.HasPrefix(childKey, world+" ") {
		t.Fatalf("the child's world key %q should differ from %q in the kernel signature alone", childKey, key)
	}

	cfg := contextConfig()
	fresh, _ := fuseCounted(t, teachers, ds, cfg, "")
	got, runs := fuseCounted(t, teachers, ds, cfg, filepath.Join(dir, "memo.json"))
	sameAsFresh(t, "memo of the pure-Go tier", fresh, got)
	if runs != 1 {
		t.Fatalf("the teachers were scored %d times, want 1", runs)
	}
}

// worldKey is the key Fuse files the teachers' score under.
func worldKey(t *testing.T, teachers *gmorph.Model, ds *gmorph.Dataset) string {
	t.Helper()
	sum, err := parser.Sum(teachers)
	if err != nil {
		t.Fatal(err)
	}
	return core.WorldKey(sum, ds)
}
