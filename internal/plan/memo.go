package plan

import (
	"container/list"
	"math"
	"sync"
	"sync/atomic"
)

// Stem memoisation: a plan with a stem (CompileShared) splits execution at
// the stem boundary, so a memo can short-circuit repeated inputs. Rows whose
// (stem fingerprint, input hash) key hits the LRU skip the stem entirely and
// feed the head waves from the cached activation (Instance.SetStemMemo).

type stemKey struct {
	fp  uint64 // stem fingerprint
	row uint64 // input row content hash
}

// StemMemo is a thread-safe LRU of stem activations keyed by (stem
// fingerprint, input-row hash) — CDN-style inference caching for repeated
// inputs. One memo is shared by every instance serving a stem (and can span
// multiple plans: the fingerprint keeps their entries apart).
type StemMemo struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recent; values are *memoEntry
	m   map[stemKey]*list.Element
	// seen is the doorkeeper: keys sighted exactly once. A brand-new key's
	// first Put records a sighting and drops the row; only a second sighting
	// admits it into the LRU. A stream of unique inputs therefore cannot
	// flush the working set — every one-hit wonder stops at the door.
	seen map[stemKey]struct{}

	hits, misses, evictions, filtered atomic.Int64
}

// seenFactor bounds the doorkeeper set to seenFactor*cap sightings; past
// that the set is rotated (cleared), forgetting pending first sightings.
// A forgotten key pays one extra sighting before admission, which is the
// usual sketch-decay trade: bounded memory over perfect recall.
const seenFactor = 8

type memoEntry struct {
	key stemKey
	act []float32
}

// NewStemMemo returns a memo bounded to capacity entries (rows, not bytes).
// capacity <= 0 disables caching: lookups miss, inserts drop.
func NewStemMemo(capacity int) *StemMemo {
	return &StemMemo{
		cap:  capacity,
		ll:   list.New(),
		m:    make(map[stemKey]*list.Element),
		seen: make(map[stemKey]struct{}),
	}
}

// Get returns the cached stem activation row or nil, counting hit/miss.
// The returned slice is owned by the memo; callers copy out of it.
func (m *StemMemo) Get(fp, row uint64) []float32 {
	if m == nil || m.cap <= 0 {
		return nil
	}
	k := stemKey{fp, row}
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.m[k]; ok {
		m.ll.MoveToFront(e)
		m.hits.Add(1)
		return e.Value.(*memoEntry).act
	}
	m.misses.Add(1)
	return nil
}

// Put offers a stem activation row, taking ownership of act (callers pass
// a private copy, never a slab-backed slice). Admission is gated by the
// doorkeeper: the first Put of a never-seen key only records the sighting
// and drops the row; the second Put inserts. Sightings are recorded here —
// never in Get — so probing alone (a unique-input stream that always
// misses) can't accumulate admission credit.
func (m *StemMemo) Put(fp, row uint64, act []float32) {
	if m == nil || m.cap <= 0 {
		return
	}
	k := stemKey{fp, row}
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, ok := m.m[k]; ok {
		m.ll.MoveToFront(e)
		e.Value.(*memoEntry).act = act
		return
	}
	if _, ok := m.seen[k]; !ok {
		if len(m.seen) >= seenFactor*m.cap {
			m.seen = make(map[stemKey]struct{}, m.cap) // rotate: bounded memory
		}
		m.seen[k] = struct{}{}
		m.filtered.Add(1)
		return
	}
	delete(m.seen, k)
	m.m[k] = m.ll.PushFront(&memoEntry{key: k, act: act})
	for m.ll.Len() > m.cap {
		old := m.ll.Back()
		m.ll.Remove(old)
		delete(m.m, old.Value.(*memoEntry).key)
		m.evictions.Add(1)
	}
}

// Len returns the current entry count.
func (m *StemMemo) Len() int {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ll.Len()
}

// MemoStats is a StemMemo counter snapshot. Filtered counts rows the
// doorkeeper held out on their first sighting.
type MemoStats struct {
	Hits, Misses, Evictions, Filtered int64
	Entries, Cap                      int
}

// Stats snapshots the memo's counters. Safe under concurrent use.
func (m *StemMemo) Stats() MemoStats {
	if m == nil {
		return MemoStats{}
	}
	return MemoStats{
		Hits: m.hits.Load(), Misses: m.misses.Load(), Evictions: m.evictions.Load(),
		Filtered: m.filtered.Load(),
		Entries:  m.Len(), Cap: m.cap,
	}
}

// HashRow hashes one input row's float bit pattern — the memo key's
// per-request half (FNV-1a over float bits, like the fingerprint package's
// weight digests).
func HashRow(data []float32) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, v := range data {
		h = (h ^ uint64(math.Float32bits(v))) * 0x100000001b3
	}
	return h
}

// StemStats aggregates stem-level execution counters shared across the
// instances serving one stem (a serving group's engine pool).
type StemStats struct {
	mu sync.Mutex
	// hist counts stem forwards by computed batch size; bucket 0 counts
	// executions fully served from the memo.
	hist map[int]int64
}

// NewStemStats returns an empty histogram.
func NewStemStats() *StemStats { return &StemStats{hist: make(map[int]int64)} }

func (s *StemStats) record(n int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.hist[n]++
	s.mu.Unlock()
}

// Hist returns a copy of the stem batch-size histogram: computed stem batch
// size -> occurrences, with bucket 0 counting fully-memoised executions.
func (s *StemStats) Hist() map[int]int64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int]int64, len(s.hist))
	for k, v := range s.hist {
		out[k] = v
	}
	return out
}
