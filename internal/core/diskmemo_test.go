package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/distill"
	"repro/internal/fingerprint"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// TestDiskMemoRoundTrip persists outcomes — including a trained graph — and
// reloads them: verdicts, margins, latencies, and the trained weights must
// all survive, with the reloaded graph structurally identical to the
// original (the lossless checkpoint encoding). A version-1 file whose
// entries still carry a "features" array loads too, and the search that
// wrote it replays from it without a single fine-tune.
func TestDiskMemoRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "memo.json")
	ds := testutil.TinyFace(21, 16, 8)
	g := testutil.TinyMultiDNN(22, ds)
	fpTrained := fingerprint.Hash(g)

	m, err := NewDiskMemo(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 0 {
		t.Fatalf("fresh memo has %d entries", m.Len())
	}
	met := &MemoEntry{
		Met: true, EpochsRun: 4, TrainTime: 5 * time.Millisecond,
		Accuracy: map[int]float64{0: 0.9, 1: 0.8}, Margin: 0.05,
		FLOPs: g.FLOPs(), Trained: g,
	}
	m.Insert(fpTrained, met)
	m.Insert(77, &MemoEntry{Met: false, Margin: -0.2})
	m.SetLatency(fpTrained, 123*time.Microsecond)
	if err := m.Save(); err != nil {
		t.Fatal(err)
	}

	re, err := NewDiskMemo(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 2 {
		t.Fatalf("reloaded %d entries, want 2", re.Len())
	}
	e := re.Lookup(fpTrained)
	if e == nil || !e.Met || e.EpochsRun != 4 || e.Margin != 0.05 {
		t.Fatalf("reloaded entry mismatch: %+v", e)
	}
	if e.Accuracy[0] != 0.9 || e.Accuracy[1] != 0.8 {
		t.Fatalf("accuracy mismatch: %v", e.Accuracy)
	}
	if e.Trained == nil || fingerprint.Hash(e.Trained) != fpTrained {
		t.Fatal("trained graph did not round-trip")
	}
	if miss := re.Lookup(77); miss == nil || miss.Met || miss.Margin != -0.2 {
		t.Fatalf("failed-candidate entry mismatch: %+v", miss)
	}
	if d, ok := re.Latency(fpTrained); !ok || d != 123*time.Microsecond {
		t.Fatalf("latency did not round-trip: %v %v", d, ok)
	}

	// First insert wins: a second insert for the same fingerprint is a no-op.
	re.Insert(fpTrained, &MemoEntry{Met: false})
	if got := re.Lookup(fpTrained); !got.Met {
		t.Fatal("second insert overwrote the first")
	}

	// testdata/memo-features.json was written by memoFixtureSearch when
	// every entry also stored a "features" array.
	raw, err := os.ReadFile(filepath.Join("testdata", "memo-features.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"features"`)) {
		t.Fatal("the fixture has no features arrays")
	}
	old := filepath.Join(t.TempDir(), "memo.json")
	if err := os.WriteFile(old, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	om, err := NewDiskMemo(old)
	if err != nil {
		t.Fatal(err)
	}
	res := memoFixtureSearch(om)
	if res.Stats.FineTuned != 0 || res.Stats.CacheMisses != 0 || len(res.Elites) == 0 {
		t.Fatalf("the old memo did not replay the search that wrote it: %+v, %d elites",
			res.Stats, len(res.Elites))
	}
	// The next Save rewrites every entry without the column, as version 3:
	// no checkpoint is left inline, every one follows the index.
	om.Insert(78, &MemoEntry{Margin: -1})
	if err := om.Save(); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(old)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(saved, []byte(`"features"`)) || !bytes.Contains(saved, []byte(`"version": 3`)) ||
		bytes.Contains(saved, []byte(`"trained":`)) || !bytes.Contains(saved, []byte(`"trained_bytes":`)) {
		t.Fatalf("re-saved memo: %.200s", saved)
	}
	if res := memoFixtureSearch(mustLoadMemo(t, old)); res.Stats.FineTuned != 0 || res.Stats.CacheMisses != 0 {
		t.Fatalf("the re-saved memo did not replay the search that wrote it: %+v", res.Stats)
	}
}

func mustLoadMemo(t testing.TB, path string) *DiskMemo {
	t.Helper()
	m, err := NewDiskMemo(path)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// otherContext is the second evaluation context savedMemo writes.
const otherContext = "context-b"

// savedMemo writes a memo holding, in the empty context, two trained
// entries, an untrained one and a latency, and, in otherContext, one more
// trained entry, plus one teacher score, and returns the file's bytes.
func savedMemo(t testing.TB, path string) []byte {
	t.Helper()
	ds := testutil.TinyFace(21, 16, 8)
	m := mustLoadMemo(t, path)
	for seed := uint64(22); seed < 24; seed++ {
		g := testutil.TinyMultiDNN(seed, ds)
		m.Insert(fingerprint.Hash(g)^seed, &MemoEntry{Met: true, EpochsRun: int(seed), FLOPs: g.FLOPs(), Trained: g})
	}
	m.Insert(77, &MemoEntry{Margin: -0.2})
	m.SetLatency(77, time.Millisecond)
	m.SetTeacherScores("world-a", map[int]float64{0: 0.75, 1: 0.5})
	if err := m.Save(); err != nil {
		t.Fatal(err)
	}
	other := mustLoadMemo(t, path)
	if err := other.Bind(otherContext); err != nil {
		t.Fatal(err)
	}
	g := testutil.TinyMultiDNN(24, ds)
	other.Insert(fingerprint.Hash(g), &MemoEntry{Met: true, EpochsRun: 24, FLOPs: g.FLOPs(), Trained: g})
	if err := other.Save(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestDiskMemoV2Layout pins the file layout since version 2, in version 3:
// the JSON index, then the raw checkpoints, here of two evaluation
// contexts. Two saves of the same memo are byte-identical; the
// checkpoints' lengths must cover the tail exactly, so a tail cut by one
// byte or carrying one extra byte does not load, and neither does a
// checkpoint with a flipped byte (its own CRC-32) in the bound context's
// section. A flipped byte in another context's section fails when that
// context is bound. A version-1 file re-saved twice, by two memos, gives
// identical bytes too.
func TestDiskMemoV2Layout(t *testing.T) {
	dir := t.TempDir()
	raw := savedMemo(t, filepath.Join(dir, "a.json"))
	if again := savedMemo(t, filepath.Join(dir, "b.json")); !bytes.Equal(again, raw) {
		t.Fatal("two saves of the same memo differ")
	}
	end := bytes.Index(raw, []byte("\n}\n")) + 2
	if end < 2 || !json.Valid(raw[:end]) {
		t.Fatalf("the file does not open with a JSON index: %.200q", raw)
	}
	if bytes.Contains(raw[:end], []byte(`"trained":`)) || !bytes.Contains(raw[:end], []byte(`"version": 3`)) {
		t.Fatalf("not a version-3 index with its checkpoints after it: %.200q", raw)
	}
	m := mustLoadMemo(t, filepath.Join(dir, "a.json"))
	if m.Len() != 3 {
		t.Fatalf("reloaded %d entries, want 3", m.Len())
	}
	if err := m.Bind(otherContext); err != nil || m.Len() != 1 {
		t.Fatalf("the other context holds %d entries (%v), want 1", m.Len(), err)
	}

	// The tail holds the empty context's checkpoints first and
	// otherContext's last, so the byte after the newline is in the
	// first, and the tenth from the end in the other context's.
	flipped, flippedOther := bytes.Clone(raw), bytes.Clone(raw)
	flipped[end+10] ^= 0x40
	flippedOther[len(raw)-10] ^= 0x40
	for name, bad := range map[string][]byte{
		"cut by one byte": raw[:len(raw)-1],
		"one extra byte":  append(bytes.Clone(raw), 0),
		"flipped byte":    flipped,
		"no tail":         raw[:end],
	} {
		path := filepath.Join(dir, "bad.json")
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := NewDiskMemo(path); err == nil {
			t.Errorf("%s: the memo loaded", name)
		}
	}
	path := filepath.Join(dir, "bad-other.json")
	if err := os.WriteFile(path, flippedOther, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := mustLoadMemo(t, path).Bind(otherContext); err == nil {
		t.Error("flipped byte in the other context: Bind decoded it")
	}

	fixture, err := os.ReadFile(filepath.Join("testdata", "memo-features.json"))
	if err != nil {
		t.Fatal(err)
	}
	var resaved [][]byte
	for _, name := range []string{"v1-a.json", "v1-b.json"} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, fixture, 0o644); err != nil {
			t.Fatal(err)
		}
		m := mustLoadMemo(t, path)
		m.SetLatency(5, time.Microsecond)
		if err := m.Save(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		resaved = append(resaved, b)
	}
	if !bytes.Equal(resaved[0], resaved[1]) || len(resaved[0]) >= len(fixture) {
		t.Fatalf("re-saved version-1 memos: %d and %d bytes (fixture %d), want equal and smaller",
			len(resaved[0]), len(resaved[1]), len(fixture))
	}
}

// TestDiskMemoContextSections: outcomes live in their evaluation context's
// section. A memo bound to one context sees none of another's, its Save
// carries the other sections through as they were on disk — a checkpoint
// there is neither decoded nor re-encoded, so even a corrupt one survives
// byte for byte — and the teachers' scores are keyed by world alone.
func TestDiskMemoContextSections(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "memo.json")
	raw := savedMemo(t, path)

	// Corrupt the other context's checkpoint; the empty context's memo
	// must neither notice nor repair it.
	raw[len(raw)-10] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	m := mustLoadMemo(t, path)
	if err := m.Bind("context-c"); err != nil {
		t.Fatal(err)
	}
	if m.Len() != 0 || m.Lookup(77) != nil {
		t.Fatalf("a fresh context sees %d entries", m.Len())
	}
	if s, ok := m.TeacherScores("world-a"); !ok || s[0] != 0.75 || s[1] != 0.5 {
		t.Fatalf("teacher scores of world-a: %v %v", s, ok)
	}
	if _, ok := m.TeacherScores("world-b"); ok {
		t.Fatal("world-b has teacher scores")
	}
	m.SetTeacherScores("world-a", map[int]float64{0: 0.1}) // first write wins
	m.SetTeacherScores("world-b", map[int]float64{0: 0.25})
	m.Insert(78, &MemoEntry{Margin: -0.5})
	if err := m.Save(); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := parseDiskMemo(saved)
	if err != nil {
		t.Fatal(err)
	}
	before, err := parseDiskMemo(raw)
	if err != nil {
		t.Fatal(err)
	}
	for key, ck := range before.checkpoints[otherContext] {
		if !bytes.Equal(f.checkpoints[otherContext][key], ck) {
			t.Fatalf("the other context's checkpoint %s changed in the save", key)
		}
	}
	if len(f.Outcomes[""]) != 3 || len(f.Outcomes[otherContext]) != 1 || len(f.Outcomes["context-c"]) != 1 {
		t.Fatalf("sections after the save hold %d, %d and %d entries, want 3, 1 and 1",
			len(f.Outcomes[""]), len(f.Outcomes[otherContext]), len(f.Outcomes["context-c"]))
	}
	re := mustLoadMemo(t, path)
	if s, _ := re.TeacherScores("world-a"); s[0] != 0.75 {
		t.Fatalf("world-a's scores were overwritten: %v", s)
	}
	if s, _ := re.TeacherScores("world-b"); s[0] != 0.25 {
		t.Fatalf("world-b's scores did not round-trip: %v", s)
	}
	if e := re.Lookup(78); e != nil {
		t.Fatal("context-c's entry replays in the empty context")
	}
	if err := re.Bind("context-c"); err != nil || re.Lookup(78) == nil || re.Lookup(77) != nil {
		t.Fatalf("context-c does not hold exactly its own entry (%v)", err)
	}
}

// FuzzDiskMemoLoad feeds arbitrary files to NewDiskMemo, seeded with a
// saved version-3 memo of two evaluation contexts, the version-1 fixture
// and a version-2 file, and binds every context the file holds: it must
// load or return an error, never panic, and never allocate more than a
// small multiple of the file's size (a corrupt trained_bytes or checkpoint
// length cannot drive an allocation).
func FuzzDiskMemoLoad(f *testing.F) {
	f.Add(savedMemo(f, filepath.Join(f.TempDir(), "memo.json")))
	if fixture, err := os.ReadFile(filepath.Join("testdata", "memo-features.json")); err == nil {
		f.Add(fixture)
	}
	f.Add([]byte(`{"version":2,"entries":{"00000000000000aa":{"met":true,"margin":0,"trained_bytes":9}}}` + "\n123456789"))
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, "memo.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := NewDiskMemo(path)
		if err == nil && m.loaded != nil {
			for ctx := range m.loaded.Outcomes {
				_ = m.Bind(ctx) // a corrupt section's error is fine; a panic is not
			}
		}
		runtime.ReadMemStats(&after)
		if grown := after.TotalAlloc - before.TotalAlloc; grown > uint64(64*len(data)+1<<20) {
			t.Fatalf("loading %d bytes allocated %d", len(data), grown)
		}
		if err == nil && m == nil {
			t.Fatal("no memo and no error")
		}
	})
}

// memoFixtureSearch is the search that wrote testdata/memo-features.json:
// untrained teachers under fixed targets, so its trajectory over the
// memo depends on nothing the machine or the kernel tier computes.
func memoFixtureSearch(memo *DiskMemo) *Result {
	ds := testutil.TinyFace(61, 16, 8)
	g := testutil.TinyMultiDNN(62, ds)
	opts := AccuracyOptions{FineTune: distill.Config{LR: 0.003, Epochs: 6, Batch: 8, EvalEvery: 1}}
	return NewOptimizer(g, ds, map[int]float64{0: 0.6, 1: 0.4}, ds.Train.X, opts,
		Config{Rounds: 4, BatchSize: 2, Seed: 1, Metric: OptimizeFLOPs, Memo: memo}).Run()
}

// TestDiskMemoCorruptFileIsError guards the failure mode: a truncated or
// garbage memo file must refuse to load rather than silently discarding the
// corpus.
func TestDiskMemoCorruptFileIsError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "memo.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDiskMemo(path); err == nil {
		t.Fatal("corrupt memo file loaded without error")
	}
}

// TestDiskMemoMergePreservesConcurrentWrites loads two memos from the same
// (initially empty) file, saves both, and expects the union on disk with
// the first-written copy winning conflicts, so concurrent coordinators
// lose nothing.
func TestDiskMemoMergePreservesConcurrentWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "memo.json")
	a, err := NewDiskMemo(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewDiskMemo(path)
	if err != nil {
		t.Fatal(err)
	}
	a.Insert(1, &MemoEntry{Met: true, EpochsRun: 3, Margin: 0.1})
	a.Insert(2, &MemoEntry{Met: false, Margin: -0.3})
	if err := a.Save(); err != nil {
		t.Fatal(err)
	}
	b.Insert(2, &MemoEntry{Met: false, Margin: -0.9}) // conflict: disk wins
	b.Insert(3, &MemoEntry{Met: true, EpochsRun: 7, Margin: 0.2})
	if err := b.Save(); err != nil {
		t.Fatal(err)
	}

	merged, err := NewDiskMemo(path)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() != 3 {
		t.Fatalf("merged file has %d entries, want 3", merged.Len())
	}
	if e := merged.Lookup(2); e.Margin != -0.3 {
		t.Fatalf("conflicting entry: on-disk copy should win, got margin %v", e.Margin)
	}
	if e := merged.Lookup(3); e == nil || e.EpochsRun != 7 {
		t.Fatal("second writer's entry lost in merge")
	}
}

// TestDiskMemoConcurrentSavers runs eight savers of one memo file at once
// (under -race in CI). Savers sharing a DiskMemo are serialized by its lock
// and leave the union on disk. Savers with a DiskMemo each — what a second
// process looks like — are not ordered against one another (file locking is
// ROADMAP item 6), but each writes through its own temp file: every Save
// succeeds, the file is always a complete memo, and no temp file survives.
func TestDiskMemoConcurrentSavers(t *testing.T) {
	const savers = 8
	save := func(t *testing.T, path string, memo func() *DiskMemo) *DiskMemo {
		var wg sync.WaitGroup
		for i := 0; i < savers; i++ {
			wg.Add(1)
			go func(m *DiskMemo, fp uint64) {
				defer wg.Done()
				m.Insert(fp, &MemoEntry{Met: true, EpochsRun: int(fp), Margin: 0.1})
				m.SetLatency(fp, time.Duration(fp)*time.Microsecond)
				if err := m.Save(); err != nil {
					t.Errorf("saver %d: %v", fp, err)
				}
			}(memo(), uint64(i+1))
		}
		wg.Wait()
		ents, err := os.ReadDir(filepath.Dir(path))
		if err != nil || len(ents) != 1 || ents[0].Name() != filepath.Base(path) {
			t.Fatalf("directory holds %v (%v), want only the memo file", ents, err)
		}
		re, err := NewDiskMemo(path)
		if err != nil {
			t.Fatalf("memo not loadable after concurrent saves: %v", err)
		}
		return re
	}
	open := func(t *testing.T, path string) *DiskMemo {
		m, err := NewDiskMemo(path)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	t.Run("one memo", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "memo.json")
		shared := open(t, path)
		re := save(t, path, func() *DiskMemo { return shared })
		for fp := uint64(1); fp <= savers; fp++ {
			e := re.Lookup(fp)
			if d, ok := re.Latency(fp); e == nil || e.EpochsRun != int(fp) || !ok || d != time.Duration(fp)*time.Microsecond {
				t.Fatalf("saver %d's entry missing from the union: %+v, latency %v %v", fp, e, d, ok)
			}
		}
	})
	t.Run("a memo each", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "memo.json")
		re := save(t, path, func() *DiskMemo { return open(t, path) })
		if n := re.Len(); n < 1 || n > savers {
			t.Fatalf("file holds %d entries, want 1..%d", n, savers)
		}
		found := 0
		for fp := uint64(1); fp <= savers; fp++ {
			if e := re.Lookup(fp); e != nil {
				found++
				if e.EpochsRun != int(fp) {
					t.Errorf("entry %d is not the one its saver wrote: %+v", fp, e)
				}
			}
		}
		if found != re.Len() {
			t.Fatalf("file holds %d entries, %d of them a saver's", re.Len(), found)
		}
	})
}

// TestDiskMemoLatencyIsMachineKeyed: the persisted latency sections are
// keyed by the machine signature (fingerprint.Machine() + kernel signature)
// and the measurement, foreign sections survive a Save untouched, and a
// foreign machine's — or an older kernel generation's, or an older
// measurement's — latencies are never consulted.
func TestDiskMemoLatencyIsMachineKeyed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "memo.json")
	m, err := NewDiskMemo(path)
	if err != nil {
		t.Fatal(err)
	}
	m.Insert(5, &MemoEntry{Met: true})
	m.SetLatency(5, time.Millisecond)
	if err := m.Save(); err != nil {
		t.Fatal(err)
	}

	// The section key must carry the machine signature.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f diskMemoFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.Latencies[latencyMachineKey()]; !ok {
		t.Fatalf("latency section keys %v missing machine key %q",
			keys(f.Latencies), latencyMachineKey())
	}

	// Graft a foreign machine's section, this machine's section as an older
	// kernel generation wrote it (no kgen field), and this machine's section
	// as an older measurement wrote it (no lat field: the eager walk at
	// batch 8), then re-save: all must survive, and none may leak into this
	// machine's lookups.
	oldGen := fingerprint.Machine() + " vec=" + tensor.VecKind()
	eager := fingerprint.Machine() + " " + tensor.KernelSignature()
	f.Latencies["other-cpu vec=none"] = map[string]int64{fpKey(9): 42}
	f.Latencies[oldGen] = map[string]int64{fpKey(10): 43}
	f.Latencies[eager] = map[string]int64{fpKey(11): 44}
	grafted, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, grafted, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := NewDiskMemo(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := re.Latency(9); ok {
		t.Fatal("foreign machine's latency was consulted")
	}
	if _, ok := re.Latency(10); ok {
		t.Fatal("older kernel generation's latency was consulted")
	}
	if _, ok := re.Latency(11); ok {
		t.Fatal("older measurement's latency was consulted")
	}
	if d, ok := re.Latency(5); !ok || d != time.Millisecond {
		t.Fatal("own machine's latency lost")
	}
	re.SetLatency(6, 2*time.Millisecond)
	if err := re.Save(); err != nil {
		t.Fatal(err)
	}
	raw, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var after diskMemoFile
	if err := json.Unmarshal(raw, &after); err != nil {
		t.Fatal(err)
	}
	if after.Latencies["other-cpu vec=none"][fpKey(9)] != 42 {
		t.Fatal("foreign machine's latency section did not survive Save")
	}
	if after.Latencies[oldGen][fpKey(10)] != 43 {
		t.Fatal("older kernel generation's latency section did not survive Save")
	}
	if after.Latencies[eager][fpKey(11)] != 44 {
		t.Fatal("older measurement's latency section did not survive Save")
	}
}

func keys(m map[string]map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
