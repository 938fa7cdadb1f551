package core

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
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
// measurement (engine.Latency: the compiled plan at batch 1). A latency
// measured on one machine, by other kernels or another way must never
// replay, so only the current section is ever consulted. Candidate outcomes
// (verdict, accuracy, trained weights) are keyed by fingerprint alone, as
// if they were machine-independent; fine-tuning is deterministic in the
// seed, but only within one kernel tier and generation (the avx2 and
// pure-Go tiers train to different bits), so a memo carried across tiers
// replays outcomes a fresh run would not reproduce. Keying outcomes by
// their evaluation context is ROADMAP item 7.
func latencyMachineKey() string {
	return fingerprint.Machine() + " " + tensor.KernelSignature() + " lat=plan/b1"
}

// memoVersion is the file format Save writes. Version 2 is the JSON index
// followed by the raw checkpoints; version 1, the JSON alone with each
// checkpoint inline in base64, still loads.
const memoVersion = 2

// diskMemoEntry is the JSON shape of one persisted candidate outcome. A
// trained graph is a parser.Save checkpoint (the lossless f32 format), so
// replayed weights are bit-identical to the original evaluation. Version 2
// records only the checkpoint's length here, in TrainedBytes, and stores
// the bytes after the index (see parseDiskMemo); version 1 held them in
// Trained, base64-encoded.
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
	TrainedBytes int             `json:"trained_bytes,omitempty"`
	Trained      string          `json:"trained,omitempty"`
}

// diskMemoFile is the on-disk shape: outcomes keyed by hex fingerprint,
// latencies sectioned by machine signature, and the trained entries'
// checkpoints by the same keys.
type diskMemoFile struct {
	Version   int                         `json:"version"`
	Entries   map[string]diskMemoEntry    `json:"entries"`
	Latencies map[string]map[string]int64 `json:"latencies,omitempty"`

	checkpoints map[string][]byte
}

// DiskMemo is the search memo: fingerprint-keyed candidate outcomes and
// machine-keyed latencies, optionally backed by a single file shared by
// every process searching the same model group. The optimizer calls it
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
	encoded map[uint64][]byte
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
		encoded: make(map[uint64][]byte),
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
		e := de.outcome()
		if ck, ok := f.checkpoints[key]; ok {
			if e.Trained, err = parser.LoadBytes(ck); err != nil {
				return nil, fmt.Errorf("memo: %s: entry %s: %w", path, key, err)
			}
			m.encoded[fp] = ck
		}
		m.entries[fp] = e
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
	if f.Entries == nil {
		f.Entries = make(map[string]diskMemoEntry)
	}
	if f.Latencies == nil {
		f.Latencies = make(map[string]map[string]int64)
	}
	if f.checkpoints == nil {
		f.checkpoints = make(map[string][]byte)
	}
	for fp, e := range m.entries {
		key := fpKey(fp)
		if _, ok := f.Entries[key]; ok {
			continue
		}
		de, ck, err := m.encodeEntry(fp, e)
		if err != nil {
			return fmt.Errorf("memo: save %s: %w", m.path, err)
		}
		f.Entries[key] = de
		if ck != nil {
			f.checkpoints[key] = ck
		}
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
	if err := atomicfile.Write(m.path, f.write); err != nil {
		return fmt.Errorf("memo: save %s: %w", m.path, err)
	}
	m.dirty = false
	return nil
}

// encodeEntry converts one entry to its index record and checkpoint bytes
// (nil without a trained graph), reusing the bytes cached at load time when
// available.
func (m *DiskMemo) encodeEntry(fp uint64, e *MemoEntry) (diskMemoEntry, []byte, error) {
	de := diskMemoEntry{
		Met: e.Met, Terminated: e.Terminated,
		WarmStarted: e.WarmStarted, WarmFellBack: e.WarmFellBack,
		EpochsRun: e.EpochsRun, TrainNS: int64(e.TrainTime),
		Accuracy: e.Accuracy, Margin: e.Margin, FLOPs: e.FLOPs,
	}
	if e.Trained == nil {
		return de, nil, nil
	}
	if ck, ok := m.encoded[fp]; ok {
		return de, ck, nil
	}
	var buf bytes.Buffer
	if err := parser.Save(&buf, e.Trained); err != nil {
		return de, nil, err
	}
	m.encoded[fp] = buf.Bytes()
	return de, buf.Bytes(), nil
}

// outcome is the persisted entry without its trained graph.
func (de diskMemoEntry) outcome() *MemoEntry {
	return &MemoEntry{
		Met: de.Met, Terminated: de.Terminated,
		WarmStarted: de.WarmStarted, WarmFellBack: de.WarmFellBack,
		EpochsRun: de.EpochsRun, TrainTime: time.Duration(de.TrainNS),
		Accuracy: de.Accuracy, Margin: de.Margin, FLOPs: de.FLOPs,
	}
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
	f, err := parseDiskMemo(data)
	if err != nil {
		return nil, fmt.Errorf("memo: parse %s: %w", path, err)
	}
	return f, nil
}

// parseDiskMemo splits a memo file into its JSON index and the trained
// entries' checkpoints. In version 2 the checkpoints follow the index and a
// newline, back to back in sorted-key order, each as long as its entry's
// trained_bytes; the lengths must add up to the tail exactly. Only the
// index is JSON-decoded: the checkpoints are sliced from data, and each
// one's own CRC-32 guards its bytes when it is decoded. A file without
// checkpoints is the index alone. A version-1 entry carries its checkpoint
// inline in base64 instead.
func parseDiskMemo(data []byte) (*diskMemoFile, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	var f diskMemoFile
	if err := dec.Decode(&f); err != nil {
		return nil, err
	}
	if f.Version > memoVersion {
		return nil, fmt.Errorf("unsupported memo version %d", f.Version)
	}
	tail := data[dec.InputOffset():]
	var keys []string
	total := 0
	for key, de := range f.Entries {
		if n := de.TrainedBytes; n != 0 {
			if n < 0 || de.Trained != "" {
				return nil, fmt.Errorf("entry %s: bad trained_bytes %d", key, n)
			}
			if total += n; total >= len(tail) {
				return nil, fmt.Errorf("checkpoints truncated: %d bytes after the index", len(tail))
			}
			keys = append(keys, key)
		}
	}
	f.checkpoints = make(map[string][]byte, len(f.Entries))
	if total == 0 {
		if len(bytes.TrimLeft(tail, " \t\r\n")) > 0 {
			return nil, fmt.Errorf("%d bytes after the index", len(tail))
		}
	} else {
		if tail[0] != '\n' || len(tail)-1 != total {
			return nil, fmt.Errorf("checkpoints take %d bytes, the file holds %d after the index", total, len(tail)-1)
		}
		tail = tail[1:]
		sort.Strings(keys)
		for _, key := range keys {
			n := f.Entries[key].TrainedBytes
			f.checkpoints[key], tail = tail[:n:n], tail[n:]
		}
	}
	for key, de := range f.Entries {
		if de.Trained == "" {
			continue
		}
		ck, err := base64.StdEncoding.DecodeString(de.Trained)
		if err != nil {
			return nil, fmt.Errorf("entry %s: %w: base64: %v", key, parser.ErrBadCheckpoint, err)
		}
		f.checkpoints[key] = ck
	}
	return &f, nil
}

// write streams the file in the current version: the JSON index, then,
// when any entry is trained, a newline and the checkpoints in sorted-key
// order. Entries read from a version-1 file lose their inline checkpoint
// to the tail.
func (f *diskMemoFile) write(w io.Writer) error {
	f.Version = memoVersion
	keys := make([]string, 0, len(f.checkpoints))
	for key, ck := range f.checkpoints {
		de := f.Entries[key]
		de.Trained, de.TrainedBytes = "", len(ck)
		f.Entries[key] = de
		keys = append(keys, key)
	}
	sort.Strings(keys)
	index, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if _, err := w.Write(index); err != nil || len(keys) == 0 {
		return err
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	for _, key := range keys {
		if _, err := w.Write(f.checkpoints[key]); err != nil {
			return err
		}
	}
	return nil
}

func fpKey(fp uint64) string { return fmt.Sprintf("%016x", fp) }

func parseFp(key string) (uint64, error) {
	fp, err := strconv.ParseUint(key, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("bad fingerprint key %q", key)
	}
	return fp, nil
}
