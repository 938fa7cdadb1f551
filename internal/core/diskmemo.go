package core

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
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
// are sectioned the same way, by their evaluation context (EvalContext,
// which covers the kernel signature through the world key), and the
// teachers' scores are keyed by the world key.
func latencyMachineKey() string {
	return fingerprint.Machine() + " " + tensor.KernelSignature() + " lat=plan/b1"
}

// memoVersion is the file format Save writes. Version 3 sections the
// outcomes by evaluation context and stores the teachers' scores by world
// key; version 2 is the JSON index followed by the raw checkpoints, with
// one outcome table and no context; version 1, the JSON alone with each
// checkpoint inline in base64. Versions 1 and 2 still load: their outcomes
// are the empty context's section, which Fuse never binds.
const memoVersion = 3

// diskMemoEntry is the JSON shape of one persisted candidate outcome. A
// trained graph is a parser.Save checkpoint (the lossless f32 format), so
// replayed weights are bit-identical to the original evaluation. Since
// version 2 the index records only the checkpoint's length, in
// TrainedBytes, and the bytes follow the index (see parseDiskMemo); version
// 1 held them in Trained, base64-encoded.
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

// diskMemoFile is the on-disk shape: the teachers' scores by world key,
// outcomes by evaluation context and then hex fingerprint, latencies by
// machine signature and then fingerprint, and the trained entries'
// checkpoints by context and fingerprint.
type diskMemoFile struct {
	Version       int                                 `json:"version"`
	TeacherScores map[string]map[int]float64          `json:"teacher_scores,omitempty"`
	Outcomes      map[string]map[string]diskMemoEntry `json:"outcomes,omitempty"`
	// Entries is the outcome table of versions 1 and 2; parseDiskMemo
	// moves it to the empty context's section.
	Entries   map[string]diskMemoEntry    `json:"entries,omitempty"`
	Latencies map[string]map[string]int64 `json:"latencies,omitempty"`

	checkpoints map[string]map[string][]byte
}

// DiskMemo is the search memo, optionally backed by a single file shared by
// every process searching the same model group. It holds three tables,
// each under the key of what its values are a function of: the teachers'
// Test scores by world key (WorldKey), candidate outcomes by evaluation
// context (EvalContext, see Bind) and fingerprint, and latencies by
// machine and fingerprint. Only the current context's and machine's
// sections are ever consulted, so a memo from another world, context or
// machine replays nothing. The optimizer calls it from its serial
// sample/merge phases only, which keeps the search deterministic in the
// seed for any evaluation concurrency; the lock is there because Save may
// race a concurrent process touching the same file.
//
// With a path, Save is merge-preserving through an atomic rename — the
// file is re-read under the lock, on-disk entries win over in-memory
// duplicates (both are valid: within one section, values are a pure
// function of their key), other contexts' and machines' sections are
// preserved untouched — so concurrent coordinators lose nothing and a
// re-run of the same search replays every outcome without a single
// duplicate measurement.
type DiskMemo struct {
	mu      sync.Mutex
	path    string
	machine string
	// ctx is the evaluation context the outcome entries belong to; loaded
	// is the file as NewDiskMemo read it (nil without one), from which Bind
	// decodes a context's section.
	ctx    string
	loaded *diskMemoFile

	entries map[uint64]*MemoEntry
	// encoded caches each entry's checkpoint bytes (from load, or from the
	// first Save that serialized it) so Save never re-encodes a graph.
	encoded map[uint64][]byte
	lat     map[uint64]time.Duration
	scores  map[string]map[int]float64
	dirty   bool
}

// NewDiskMemo opens (or initializes) the memo file at path, bound to the
// empty evaluation context (see Bind). A missing file is an empty memo; a
// corrupt one is an error, so a truncated write cannot silently discard a
// search corpus. The empty path is an in-process memo: it never reads or
// writes a file, and Save is a no-op.
func NewDiskMemo(path string) (*DiskMemo, error) {
	m := &DiskMemo{
		path:    path,
		machine: latencyMachineKey(),
		lat:     make(map[uint64]time.Duration),
		scores:  make(map[string]map[int]float64),
	}
	if path != "" {
		f, err := readDiskMemo(path)
		if err != nil {
			return nil, err
		}
		m.loaded = f
	}
	if err := m.bind(""); err != nil {
		return nil, err
	}
	if m.loaded == nil {
		return m, nil
	}
	maps.Copy(m.scores, m.loaded.TeacherScores)
	for key, ns := range m.loaded.Latencies[m.machine] {
		fp, err := parseFp(key)
		if err != nil {
			return nil, fmt.Errorf("memo: %s: %w", path, err)
		}
		m.lat[fp] = time.Duration(ns)
	}
	return m, nil
}

// Bind makes ctx the memo's evaluation context: from then on Lookup, Len
// and Insert see only the outcomes stored under it, and Save writes the
// memo's outcomes under it. It decodes that section's trained checkpoints
// from the file as NewDiskMemo loaded it (no other section's are decoded),
// and replaces whatever outcomes the memo held, so it must come before
// the search. A new memo is bound to the empty context, where files of
// versions 1 and 2 keep their outcomes.
func (m *DiskMemo) Bind(ctx string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ctx == m.ctx {
		return nil
	}
	return m.bind(ctx)
}

func (m *DiskMemo) bind(ctx string) error {
	entries := make(map[uint64]*MemoEntry)
	encoded := make(map[uint64][]byte)
	if f := m.loaded; f != nil {
		cks := f.checkpoints[ctx]
		for key, de := range f.Outcomes[ctx] {
			fp, err := parseFp(key)
			if err != nil {
				return fmt.Errorf("memo: %s: %w", m.path, err)
			}
			e := de.outcome()
			if ck, ok := cks[key]; ok {
				if e.Trained, err = parser.LoadBytes(ck); err != nil {
					return fmt.Errorf("memo: %s: entry %s: %w", m.path, key, err)
				}
				encoded[fp] = ck
			}
			entries[fp] = e
		}
	}
	m.ctx, m.entries, m.encoded = ctx, entries, encoded
	return nil
}

// TeacherScores returns a copy of the teachers' per-task scores stored
// under a world key.
func (m *DiskMemo) TeacherScores(world string) (map[int]float64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.scores[world]
	if !ok {
		return nil, false
	}
	return copyAccuracy(s), true
}

// SetTeacherScores stores the teachers' scores under a world key (first
// write wins).
func (m *DiskMemo) SetTeacherScores(world string, s map[int]float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.scores[world]; ok {
		return
	}
	m.scores[world] = copyAccuracy(s)
	m.dirty = true
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
// within a section, values are a pure function of their key, so either
// copy is valid), and other contexts' outcome sections, checkpoints
// included, and other machines' latency sections survive untouched. The
// write is atomic (internal/atomicfile); the read-merge-write cycle as a
// whole is only serialized within this DiskMemo. No-op when nothing
// changed, and for an in-process memo.
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
	if len(m.entries) > 0 {
		if f.Outcomes == nil {
			f.Outcomes = make(map[string]map[string]diskMemoEntry)
			f.checkpoints = make(map[string]map[string][]byte)
		}
		sec, cks := f.Outcomes[m.ctx], f.checkpoints[m.ctx]
		if sec == nil {
			sec, cks = make(map[string]diskMemoEntry), make(map[string][]byte)
			f.Outcomes[m.ctx], f.checkpoints[m.ctx] = sec, cks
		}
		for fp, e := range m.entries {
			key := fpKey(fp)
			if _, ok := sec[key]; ok {
				continue
			}
			de, ck, err := m.encodeEntry(fp, e)
			if err != nil {
				return fmt.Errorf("memo: save %s: %w", m.path, err)
			}
			sec[key] = de
			if ck != nil {
				cks[key] = ck
			}
		}
	}
	if f.TeacherScores == nil && len(m.scores) > 0 {
		f.TeacherScores = make(map[string]map[int]float64)
	}
	for world, s := range m.scores {
		if _, ok := f.TeacherScores[world]; !ok {
			f.TeacherScores[world] = s
		}
	}
	if len(m.lat) > 0 {
		if f.Latencies == nil {
			f.Latencies = make(map[string]map[string]int64)
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

// memoCheckpoint names one trained entry's checkpoint in the file's tail:
// its evaluation context and fingerprint key.
type memoCheckpoint struct{ ctx, key string }

// tailOrder sorts checkpoint names the way the tail stores them: by
// context, then by fingerprint key.
func tailOrder(names []memoCheckpoint) {
	sort.Slice(names, func(i, j int) bool {
		if names[i].ctx != names[j].ctx {
			return names[i].ctx < names[j].ctx
		}
		return names[i].key < names[j].key
	})
}

// parseDiskMemo splits a memo file into its JSON index and the trained
// entries' checkpoints. Since version 2 the checkpoints follow the index
// and a newline, back to back in tailOrder, each as long as its entry's
// trained_bytes; the lengths must add up to the tail exactly. Only the
// index is JSON-decoded: the checkpoints are sliced from data, and each
// one's own CRC-32 guards its bytes when it is decoded (see
// DiskMemo.Bind). A file without checkpoints is the index alone. A
// version-1 entry carries its checkpoint inline in base64 instead. The
// outcome table of a version-1 or -2 file becomes the empty context's
// section.
func parseDiskMemo(data []byte) (*diskMemoFile, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	var f diskMemoFile
	if err := dec.Decode(&f); err != nil {
		return nil, err
	}
	if f.Version > memoVersion {
		return nil, fmt.Errorf("unsupported memo version %d", f.Version)
	}
	if f.Version < 3 {
		if f.Outcomes != nil || f.TeacherScores != nil {
			return nil, fmt.Errorf("a version-%d memo holds version-3 tables", f.Version)
		}
		if f.Entries != nil {
			f.Outcomes = map[string]map[string]diskMemoEntry{"": f.Entries}
		}
	} else if f.Entries != nil {
		return nil, errors.New("a version-3 memo holds a version-2 outcome table")
	}
	f.Entries = nil
	tail := data[dec.InputOffset():]
	var names []memoCheckpoint
	total := 0
	for ctx, sec := range f.Outcomes {
		for key, de := range sec {
			if n := de.TrainedBytes; n != 0 {
				if n < 0 || de.Trained != "" {
					return nil, fmt.Errorf("entry %s: bad trained_bytes %d", key, n)
				}
				if total += n; total >= len(tail) {
					return nil, fmt.Errorf("checkpoints truncated: %d bytes after the index", len(tail))
				}
				names = append(names, memoCheckpoint{ctx, key})
			}
		}
	}
	f.checkpoints = make(map[string]map[string][]byte, len(f.Outcomes))
	for ctx := range f.Outcomes {
		f.checkpoints[ctx] = make(map[string][]byte)
	}
	if total == 0 {
		if len(bytes.TrimLeft(tail, " \t\r\n")) > 0 {
			return nil, fmt.Errorf("%d bytes after the index", len(tail))
		}
	} else {
		if tail[0] != '\n' || len(tail)-1 != total {
			return nil, fmt.Errorf("checkpoints take %d bytes, the file holds %d after the index", total, len(tail)-1)
		}
		tail = tail[1:]
		tailOrder(names)
		for _, c := range names {
			n := f.Outcomes[c.ctx][c.key].TrainedBytes
			f.checkpoints[c.ctx][c.key], tail = tail[:n:n], tail[n:]
		}
	}
	for ctx, sec := range f.Outcomes {
		for key, de := range sec {
			if de.Trained == "" {
				continue
			}
			ck, err := base64.StdEncoding.DecodeString(de.Trained)
			if err != nil {
				return nil, fmt.Errorf("entry %s: %w: base64: %v", key, parser.ErrBadCheckpoint, err)
			}
			f.checkpoints[ctx][key] = ck
		}
	}
	return &f, nil
}

// write streams the file in the current version: the JSON index, then,
// when any entry is trained, a newline and the checkpoints in tailOrder.
// Entries read from a version-1 file lose their inline checkpoint to the
// tail.
func (f *diskMemoFile) write(w io.Writer) error {
	f.Version = memoVersion
	var names []memoCheckpoint
	for ctx, cks := range f.checkpoints {
		sec := f.Outcomes[ctx]
		for key, ck := range cks {
			de := sec[key]
			de.Trained, de.TrainedBytes = "", len(ck)
			sec[key] = de
			names = append(names, memoCheckpoint{ctx, key})
		}
	}
	tailOrder(names)
	index, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if _, err := w.Write(index); err != nil || len(names) == 0 {
		return err
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	for _, c := range names {
		if _, err := w.Write(f.checkpoints[c.ctx][c.key]); err != nil {
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
