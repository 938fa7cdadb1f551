package plan_test

import (
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

func sampleInput(seed uint64, n int) *tensor.Tensor {
	x := tensor.New(n, 3, 16, 16)
	tensor.NewRNG(seed).FillNormal(x, 0, 1)
	return x
}

// A group plan's instance answers, per member and task, what that member's
// own plan.Compile does — the plan-level leg of the engine's parity table.
func TestCompileSharedParityF32(t *testing.T) {
	g1, g2 := testutil.TinySharedStemPair(31)
	p, err := plan.CompileShared([]*graph.Graph{g1, g2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.StemDepth != 2 || len(p.Models) != 2 || len(p.Heads) != 2 {
		t.Fatalf("stem depth %d, %d models, %d heads; want 2, 2, 2", p.StemDepth, len(p.Models), len(p.Heads))
	}
	x := sampleInput(32, 5)
	got := p.NewInstance().Execute(x)
	for mi, g := range []*graph.Graph{g1, g2} {
		solo := plan.Compile(g).NewInstance().Execute(x)
		if tm := p.Models[mi].TaskMap; len(tm) != len(solo) {
			t.Fatalf("model %d task map has %d entries, solo plan %d heads", mi, len(tm), len(solo))
		}
		for lt, gt := range p.Models[mi].TaskMap {
			if !tensor.SameShape(got[gt], solo[lt]) {
				t.Fatalf("model %d task %d shape %v, want %v", mi, lt, got[gt].Shape(), solo[lt].Shape())
			}
			if d := maxDiff(got[gt], solo[lt]); d > 1e-4 {
				t.Errorf("model %d task %d diverges from its solo plan by %g", mi, lt, d)
			}
		}
	}
}

// Stem ops must fill the leading waves and carry the stem/ prefix; suffix
// ops follow with their model prefixes — the partition split execution and
// the memo rely on.
func TestCompileSharedStemPartition(t *testing.T) {
	g1, g2 := testutil.TinySharedStemPair(41)
	p, err := plan.CompileShared([]*graph.Graph{g1, g2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.StemWaves < 1 || p.StemWaves >= len(p.Waves) {
		t.Fatalf("StemWaves = %d of %d waves", p.StemWaves, len(p.Waves))
	}
	for _, o := range p.Ops {
		isStem := o.Wave < p.StemWaves
		if isStem != strings.HasPrefix(o.Name, "stem/") {
			t.Fatalf("op %q in wave %d violates the stem partition (StemWaves=%d)", o.Name, o.Wave, p.StemWaves)
		}
		if !isStem && !strings.HasPrefix(o.Name, "m0/") && !strings.HasPrefix(o.Name, "m1/") {
			t.Fatalf("suffix op %q lacks a model prefix", o.Name)
		}
	}
	if p.StemFingerprint == 0 {
		t.Fatal("StemFingerprint unset")
	}
}

func TestCompileSharedRejects(t *testing.T) {
	g1, g2 := testutil.TinySharedStemPair(51)
	if _, err := plan.CompileShared([]*graph.Graph{g1}, 1); err == nil {
		t.Fatal("a stem accepted for a lone graph")
	}
	if _, err := plan.CompileShared([]*graph.Graph{g1, g2}, 3); err == nil {
		t.Fatal("depth beyond the shared stem accepted")
	}
	// Diverged stem weights share nothing.
	g3 := g1.Clone()
	g3.Root.Children[0].Layer.Params()[0].Value.Data()[0] += 0.5
	if _, err := plan.CompileShared([]*graph.Graph{g1, g3}, 1); err == nil {
		t.Fatal("weight-diverged stems accepted")
	}
}

// put admits a key through the doorkeeper: the first Put records a
// sighting, the second inserts.
func put(m *plan.StemMemo, fp, row uint64, act []float32) {
	m.Put(fp, row, act)
	m.Put(fp, row, act)
}

func TestStemMemoLRU(t *testing.T) {
	m := plan.NewStemMemo(2)
	if got := m.Get(1, 1); got != nil {
		t.Fatal("hit on empty memo")
	}
	m.Put(1, 1, []float32{1})
	if m.Len() != 0 {
		t.Fatal("doorkeeper admitted a first sighting")
	}
	m.Put(1, 1, []float32{1}) // second sighting: admitted
	put(m, 1, 2, []float32{2})
	if got := m.Get(1, 1); got == nil || got[0] != 1 {
		t.Fatalf("Get(1,1) = %v", got)
	}
	// Key 2 is now least recent; admitting a third entry evicts it.
	put(m, 1, 3, []float32{3})
	if m.Get(1, 2) != nil {
		t.Fatal("evicted entry still present")
	}
	if m.Get(1, 1) == nil || m.Get(1, 3) == nil {
		t.Fatal("recent entries evicted")
	}
	// Different stem fingerprints never collide.
	if m.Get(2, 1) != nil {
		t.Fatal("cross-fingerprint hit")
	}
	s := m.Stats()
	if s.Evictions != 1 || s.Entries != 2 || s.Cap != 2 {
		t.Fatalf("stats %+v", s)
	}
	if s.Hits == 0 || s.Misses == 0 || s.Filtered != 3 {
		t.Fatalf("counters not moving: %+v", s)
	}
	// Disabled and nil memos are inert.
	var nilMemo *plan.StemMemo
	nilMemo.Put(1, 1, nil)
	if nilMemo.Get(1, 1) != nil || nilMemo.Stats() != (plan.MemoStats{}) {
		t.Fatal("nil memo not inert")
	}
	off := plan.NewStemMemo(0)
	off.Put(1, 1, []float32{1})
	if off.Get(1, 1) != nil {
		t.Fatal("disabled memo cached")
	}
}

// All three memo execution paths — all-miss, all-hit, mixed — must agree
// with the memo-less executor, and the histogram must record the computed
// stem batch sizes.
func TestStemMemoExecutePaths(t *testing.T) {
	g1, g2 := testutil.TinySharedStemPair(61)
	p, err := plan.CompileShared([]*graph.Graph{g1, g2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	memo := plan.NewStemMemo(64)
	stats := plan.NewStemStats()
	si := p.NewInstance()
	si.SetStemMemo(memo, stats)
	plain := p.NewInstance()

	check := func(x *tensor.Tensor, label string) {
		t.Helper()
		got := si.Execute(x)
		want := plain.Execute(x)
		for task, w := range want {
			if d := maxDiff(got[task], w); d > 1e-5 {
				t.Fatalf("%s: task %d diverges by %g", label, task, d)
			}
		}
	}

	x4 := sampleInput(62, 4)
	check(x4, "all-miss")  // cold: every row computed, doorkeeper sightings only
	check(x4, "all-miss2") // recomputed; second sightings admit every row
	check(x4, "all-hit")   // warm: every row served from the memo

	// Mixed: rows 0-3 warm, rows 4-5 cold (held out by the doorkeeper).
	x6 := sampleInput(63, 6)
	copy(x6.Data()[:4*3*16*16], x4.Data())
	check(x6, "mixed")

	ms := memo.Stats()
	if ms.Hits != 8 || ms.Misses != 4+4+2 || ms.Filtered != 4+2 {
		t.Fatalf("memo counters hits=%d misses=%d filtered=%d, want 8, 10, 6", ms.Hits, ms.Misses, ms.Filtered)
	}
	hist := stats.Hist()
	if hist[4] != 2 || hist[0] != 1 || hist[2] != 1 {
		t.Fatalf("stem batch histogram %v, want {4:2, 0:1, 2:1}", hist)
	}
}

// A stream of unique inputs — the scan that would flush a plain LRU — must
// leave the memo essentially empty: every one-hit wonder stops at the
// doorkeeper, and only keys sighted twice are admitted.
func TestStemMemoDoorkeeperScanResistance(t *testing.T) {
	m := plan.NewStemMemo(32)
	// A small working set, admitted the usual way (two sightings each).
	for row := uint64(0); row < 8; row++ {
		put(m, 1, row, []float32{float32(row)})
	}
	if m.Len() != 8 {
		t.Fatalf("working set not admitted: Len=%d", m.Len())
	}
	// 10k unique rows: none may enter, and the working set must survive.
	for row := uint64(1000); row < 11000; row++ {
		m.Put(1, row, []float32{0})
	}
	s := m.Stats()
	if s.Entries != 8 || s.Evictions != 0 {
		t.Fatalf("unique-input scan polluted the memo: %+v", s)
	}
	if s.Filtered < 10000 {
		t.Fatalf("filtered %d of 10000 unique inserts", s.Filtered)
	}
	for row := uint64(0); row < 8; row++ {
		if m.Get(1, row) == nil {
			t.Fatalf("working-set row %d lost during the scan", row)
		}
	}
	// Repeats still get in: a scanned key seen a second time is admitted
	// (unless its sighting fell to a doorkeeper rotation — pick a recent one).
	m.Put(1, 10999, []float32{9})
	if m.Get(1, 10999) == nil {
		t.Fatal("second sighting not admitted after the scan")
	}
}
