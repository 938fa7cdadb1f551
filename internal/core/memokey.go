package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/crc32"
	"math"
	"sort"
	"sync/atomic"
	"unsafe"

	"repro/internal/data"
	"repro/internal/distill"
	"repro/internal/graph"
	"repro/internal/parser"
	"repro/internal/tensor"
)

// The memo's two keys. What a memoized value may replay under is what it
// is a function of:
//
//   - the teachers' Test score is a function of the world: the teachers,
//     the dataset and the kernels that run the forward. WorldKey names it.
//   - a candidate's outcome (verdict, accuracies, trained weights) is a
//     function of its structure and fine-tune seed, which the fingerprint
//     keys, and of the evaluation context: the world, the targets the
//     verdict is read against, the estimator's options and the search
//     seed. EvalContext names it.
//
// A memo written under another key replays nothing, so a memo carried to
// another seed, budget, dataset or kernel tier behaves like an empty one.

// WorldKey names the world a search runs in: teacherSum is the teachers'
// checkpoint checksum (parser.Sum), followed by a CRC-32 over the
// dataset's Train and Test splits (inputs, labels and label matrices) and
// the kernel signature (tensor.KernelSignature: the avx2 and pure-Go tiers,
// and each kernel generation, compute to different bits).
func WorldKey(teacherSum string, ds *data.Dataset) string {
	crc := crc32.NewIEEE()
	sum := &splitSummer{h: crc}
	for _, t := range ds.Tasks {
		sum.ints(int(t.Kind), t.Classes)
	}
	sum.split(ds.Train)
	sum.split(ds.Test)
	return teacherSum + " data=" + parser.FormatSum(crc.Sum32()) + " " + tensor.KernelSignature()
}

// splitSummer feeds a dataset's contents to a hash, its integers
// little-endian through one reused buffer.
type splitSummer struct {
	h   hash.Hash
	buf [4096]byte
}

func (s *splitSummer) ints(vs ...int) {
	for len(vs) > 0 {
		n := min(len(vs), len(s.buf)/8)
		for i, v := range vs[:n] {
			binary.LittleEndian.PutUint64(s.buf[8*i:], uint64(v))
		}
		s.h.Write(s.buf[:8*n])
		vs = vs[n:]
	}
}

func (s *splitSummer) split(sp *data.Split) {
	if sp == nil {
		s.ints(-1)
		return
	}
	s.ints(sp.X.Shape()...)
	// The inputs are hashed as they lie in memory, without a copy: the key
	// need only be a function of the contents on the machine computing it,
	// since a key that reads differently elsewhere can only miss.
	if d := sp.X.Data(); len(d) > 0 {
		s.h.Write(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(d))), 4*len(d)))
	}
	s.ints(len(sp.Labels))
	for _, l := range sp.Labels {
		s.ints(len(l))
		s.ints(l...)
	}
	s.ints(len(sp.Multi))
	for _, rows := range sp.Multi {
		s.ints(len(rows))
		for _, r := range rows {
			s.ints(len(r))
			s.ints(r...)
		}
	}
}

// EvalContext names the context candidate outcomes are memoized under: a
// hash of the world key, the final per-task targets (as float bits), the
// estimator options (the fine-tune config, early termination, the rule
// filter and the slack; a field added to them later is covered too) and
// the search seed. DiskMemo.Bind takes it.
func EvalContext(world string, targets map[int]float64, opts AccuracyOptions, seed uint64) string {
	h := sha256.New()
	fmt.Fprintf(h, "world %s\n", world)
	ids := make([]int, 0, len(targets))
	for id := range targets {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(h, "target %d %016x\n", id, math.Float64bits(targets[id]))
	}
	fmt.Fprintf(h, "options %+v\nseed %d\n", opts, seed)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// teacherScoreRuns counts the teachers' Test-score forwards process-wide.
var teacherScoreRuns atomic.Int64

// TeacherScoreRuns returns how many times ScoreTeachers has run the
// teachers over the Test split in this process.
func TeacherScoreRuns() int64 { return teacherScoreRuns.Load() }

// ScoreTeachers returns the teachers' per-task Test metric, from which the
// search's accuracy targets are derived. With a memo, the score stored
// under the world key replays, and only a miss runs the forward and stores
// what it measured. A nil memo always measures.
func ScoreTeachers(memo *DiskMemo, world string, teachers *graph.Graph, ds *data.Dataset) (map[int]float64, error) {
	if memo != nil {
		if s, ok := memo.TeacherScores(world); ok {
			return s, nil
		}
	}
	teacherScoreRuns.Add(1)
	s, err := (&distill.Evaluator{Dataset: ds}).Measure(teachers)
	if err != nil {
		return nil, err
	}
	if memo != nil {
		memo.SetTeacherScores(world, s)
	}
	return s, nil
}
