package core

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/fingerprint"
	"repro/internal/parser"
	"repro/internal/tensor"
)

// latencyMachineKey is the section key persisted latencies live under: the
// CPU signature plus the kernel signature (tier and generation), plus the
// measurement (engine.Latency: the compiled plan at batch 1). Candidate outcomes
// (verdict, accuracy, trained weights) are machine-independent —
// fine-tuning is deterministic in the seed — but a latency measured on one
// machine, by other kernels or another way must never replay, so only the
// current section is ever consulted.
func latencyMachineKey() string {
	return fingerprint.Machine() + " " + tensor.KernelSignature() + " lat=plan/b1"
}

// diskMemoEntry is the JSON shape of one persisted candidate outcome. The
// trained graph is a checkpoint in parser.SaveBase64's form (the lossless
// f32 format), so replayed weights are bit-identical to the original
// evaluation.
type diskMemoEntry struct {
	Met          bool            `json:"met"`
	Terminated   bool            `json:"terminated,omitempty"`
	WarmStarted  bool            `json:"warm_started,omitempty"`
	WarmFellBack bool            `json:"warm_fell_back,omitempty"`
	EpochsRun    int             `json:"epochs_run,omitempty"`
	TrainNS      int64           `json:"train_ns,omitempty"`
	Accuracy     map[int]float64 `json:"accuracy,omitempty"`
	Margin       float64         `json:"margin"`
	FLOPs        int64           `json:"flops,omitempty"`
	Trained      string          `json:"trained,omitempty"`
}

// diskMemoFile is the on-disk shape: outcomes keyed by hex fingerprint,
// latencies sectioned by machine signature.
type diskMemoFile struct {
	Version   int                         `json:"version"`
	Entries   map[string]diskMemoEntry    `json:"entries"`
	Latencies map[string]map[string]int64 `json:"latencies,omitempty"`
}

// DiskMemo is the search memo: fingerprint-keyed candidate outcomes and
// machine-keyed latencies, optionally backed by a single JSON file shared
// by every process searching the same model group. The optimizer calls it
// from its serial sample/merge phases only, which keeps the search
// deterministic in the seed for any evaluation concurrency; the lock is
// there because Save may race a concurrent process touching the same file.
//
// With a path, Save is merge-preserving through an atomic rename — the
// file is re-read under the lock, on-disk entries win over in-memory duplicates (both are valid:
// outcomes are a pure function of the fingerprint), other machines' latency
// sections are preserved untouched — so concurrent coordinators lose
// nothing and a re-run of the same search replays every outcome without a
// single duplicate measurement.
type DiskMemo struct {
	mu      sync.Mutex
	path    string
	machine string

	entries map[uint64]*MemoEntry
	// encoded caches each entry's checkpoint bytes (from load, or from the
	// first Save that serialized it) so Save never re-encodes a graph.
	encoded map[uint64]string
	lat     map[uint64]time.Duration
	dirty   bool
}

// NewDiskMemo opens (or initializes) the memo file at path. A missing file
// is an empty memo; a corrupt one is an error, so a truncated write cannot
// silently discard a search corpus. The empty path is an in-process memo:
// it never reads or writes a file, and Save is a no-op.
func NewDiskMemo(path string) (*DiskMemo, error) {
	m := &DiskMemo{
		path:    path,
		machine: latencyMachineKey(),
		entries: make(map[uint64]*MemoEntry),
		encoded: make(map[uint64]string),
		lat:     make(map[uint64]time.Duration),
	}
	if path == "" {
		return m, nil
	}
	f, err := readDiskMemo(path)
	if err != nil {
		return nil, err
	}
	if f == nil {
		return m, nil
	}
	for key, de := range f.Entries {
		fp, err := parseFp(key)
		if err != nil {
			return nil, fmt.Errorf("memo: %s: %w", path, err)
		}
		e, err := de.decode()
		if err != nil {
			return nil, fmt.Errorf("memo: %s: entry %s: %w", path, key, err)
		}
		m.entries[fp] = e
		if de.Trained != "" {
			m.encoded[fp] = de.Trained
		}
	}
	for key, ns := range f.Latencies[m.machine] {
		fp, err := parseFp(key)
		if err != nil {
			return nil, fmt.Errorf("memo: %s: %w", path, err)
		}
		m.lat[fp] = time.Duration(ns)
	}
	return m, nil
}

// Lookup returns the entry for a fingerprint, or nil.
func (m *DiskMemo) Lookup(fp uint64) *MemoEntry {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.entries[fp]
}

// Insert stores an outcome. The first insert of a fingerprint wins; later
// inserts are dropped, so replay behavior does not depend on evaluation
// order.
func (m *DiskMemo) Insert(fp uint64, e *MemoEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.entries[fp]; ok {
		return
	}
	m.entries[fp] = e
	m.dirty = true
}

// Latency returns the memoized latency for a fingerprint. Only the current
// machine's section is ever consulted, so a memo carried to different
// hardware re-measures latencies while still replaying every verdict.
func (m *DiskMemo) Latency(fp uint64) (time.Duration, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d, ok := m.lat[fp]
	return d, ok
}

// SetLatency memoizes a latency measurement (first write wins).
func (m *DiskMemo) SetLatency(fp uint64, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.lat[fp]; ok {
		return
	}
	m.lat[fp] = d
	m.dirty = true
}

// Len returns the number of entries.
func (m *DiskMemo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// Save persists the memo, merging with whatever is on disk now: entries
// another process wrote since load are kept (on-disk wins on conflicts —
// outcomes are a pure function of the fingerprint, so either copy is
// valid), and other machines' latency sections survive untouched. The write
// is atomic (internal/atomicfile); the read-merge-write cycle as a whole is
// only serialized within this DiskMemo. No-op when nothing changed, and for
// an in-process memo.
func (m *DiskMemo) Save() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirty || m.path == "" {
		return nil
	}
	f, err := readDiskMemo(m.path)
	if err != nil {
		return err
	}
	if f == nil {
		f = &diskMemoFile{}
	}
	f.Version = 1
	if f.Entries == nil {
		f.Entries = make(map[string]diskMemoEntry)
	}
	if f.Latencies == nil {
		f.Latencies = make(map[string]map[string]int64)
	}
	for fp, e := range m.entries {
		key := fpKey(fp)
		if _, ok := f.Entries[key]; ok {
			continue
		}
		de, err := m.encodeEntry(fp, e)
		if err != nil {
			return fmt.Errorf("memo: save %s: %w", m.path, err)
		}
		f.Entries[key] = de
	}
	sec := f.Latencies[m.machine]
	if sec == nil {
		sec = make(map[string]int64)
		f.Latencies[m.machine] = sec
	}
	for fp, d := range m.lat {
		key := fpKey(fp)
		if _, ok := sec[key]; !ok {
			sec[key] = int64(d)
		}
	}
	if err := atomicfile.WriteJSON(m.path, f); err != nil {
		return fmt.Errorf("memo: save %s: %w", m.path, err)
	}
	m.dirty = false
	return nil
}

// encodeEntry serializes one entry, reusing the checkpoint bytes cached at
// load time when available.
func (m *DiskMemo) encodeEntry(fp uint64, e *MemoEntry) (diskMemoEntry, error) {
	de := diskMemoEntry{
		Met: e.Met, Terminated: e.Terminated,
		WarmStarted: e.WarmStarted, WarmFellBack: e.WarmFellBack,
		EpochsRun: e.EpochsRun, TrainNS: int64(e.TrainTime),
		Accuracy: e.Accuracy, Margin: e.Margin, FLOPs: e.FLOPs,
	}
	if e.Trained == nil {
		return de, nil
	}
	if enc, ok := m.encoded[fp]; ok {
		de.Trained = enc
		return de, nil
	}
	enc, err := parser.SaveBase64(e.Trained)
	if err != nil {
		return de, err
	}
	de.Trained = enc
	m.encoded[fp] = enc
	return de, nil
}

// decode materializes a persisted entry, including the trained graph.
func (de diskMemoEntry) decode() (*MemoEntry, error) {
	e := &MemoEntry{
		Met: de.Met, Terminated: de.Terminated,
		WarmStarted: de.WarmStarted, WarmFellBack: de.WarmFellBack,
		EpochsRun: de.EpochsRun, TrainTime: time.Duration(de.TrainNS),
		Accuracy: de.Accuracy, Margin: de.Margin, FLOPs: de.FLOPs,
	}
	if de.Trained == "" {
		return e, nil
	}
	g, err := parser.LoadBase64(de.Trained)
	if err != nil {
		return nil, err
	}
	e.Trained = g
	return e, nil
}

// readDiskMemo parses the memo file, returning nil (no error) when the file
// does not exist.
func readDiskMemo(path string) (*diskMemoFile, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("memo: read %s: %w", path, err)
	}
	var f diskMemoFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("memo: parse %s: %w", path, err)
	}
	return &f, nil
}

func fpKey(fp uint64) string { return fmt.Sprintf("%016x", fp) }

func parseFp(key string) (uint64, error) {
	fp, err := strconv.ParseUint(key, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("bad fingerprint key %q", key)
	}
	return fp, nil
}
