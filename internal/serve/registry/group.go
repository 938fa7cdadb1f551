package registry

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/api"
	"repro/internal/engine"
	"repro/internal/fingerprint"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/serve/batcher"
)

// group is a set of models served by one batcher over one engine pool
// running one compiled plan. Every model belongs to exactly one group; a
// model that shares with nobody is a group of one, whose plan has no stem.
// Two or more members share a stem, whose memo and statistics carry over
// when the group is rebuilt: memo entries are keyed by stem fingerprint,
// so a replaced stem's activations age out of the LRU instead of poisoning
// the new one. A group is immutable once published; every topology change
// builds new ones.
type group struct {
	members []*Model // registration order; a member's index is its batcher tag
	bat     *batcher.Batcher
	// fused are the pool's engines, all running plan; the batcher runs
	// them through the first member's Wrap. report summarizes plan.
	fused  []*engine.Fused
	plan   *plan.Plan
	report plan.Report
	memo   *plan.StemMemo
	stats  *plan.StemStats
	// view is the membership Snapshot reports, nil exactly when the plan
	// has no stem.
	view *SharedStemInfo
}

// SharedStemInfo is the serving view of a model's shared-stem group,
// surfaced through Snapshot and ModelStats and served as is by the v2 API.
// Counters are group-wide: every member reports the same numbers.
type SharedStemInfo = api.SharedStem

// sharedStats is the group's view with its counters filled in, nil for a
// group of one. mixed is the group batcher's MixedBatches.
func (g *group) sharedStats(mixed int64) *SharedStemInfo {
	if g.view == nil {
		return nil
	}
	info := *g.view
	s := g.memo.Stats()
	info.MemoHits, info.MemoMisses = s.Hits, s.Misses
	info.MemoEvictions, info.MemoEntries, info.MemoFiltered = s.Evictions, s.Entries, s.Filtered
	info.MixedBatches = mixed
	info.StemBatchHist = g.stats.Hist()
	return &info
}

// member pins what one model serves in a group being built: its current
// deployment's graph and identity, or the new ones a swap brings.
type member struct {
	m        *Model
	g        *graph.Graph
	chain    []uint64 // prefix fingerprint chain; nil unless m shares stems
	checksum string
	source   string
	version  int
}

func (m *Model) member(g *graph.Graph, checksum, source string, version int) member {
	mb := member{m: m, g: g, checksum: checksum, source: source, version: version}
	if m.opts.ShareStem > 0 {
		mb.chain = fingerprint.PrefixHashes(g)
	}
	return mb
}

// current returns what g's members serve now, in g's order.
func (g *group) current() []member {
	out := make([]member, len(g.members))
	for i, m := range g.members {
		out[i] = m.cur.Load().member
	}
	return out
}

// union merges two member lists into registration order.
func union(a, b []member) []member {
	out := append(append([]member(nil), a...), b...)
	sort.Slice(out, func(i, j int) bool { return out[i].m.seq < out[j].m.seq })
	return out
}

// fits reports whether members may serve as one group — the cheap test
// before its plan is compiled. A lone model always may. Two or more must
// all have opted into stem sharing, with prefix chains that agree for at
// least the largest ShareStem among them; prefix agreement is transitive,
// so comparing against the first chain suffices.
func fits(members []member) bool {
	if len(members) == 1 {
		return true
	}
	need := 0
	for _, mb := range members {
		if mb.m.opts.ShareStem <= 0 {
			return false
		}
		need = max(need, mb.m.opts.ShareStem)
	}
	for _, mb := range members[1:] {
		if fingerprint.SharedDepth(members[0].chain, mb.chain) < need {
			return false
		}
	}
	return true
}

// build compiles one group's deployments, in members' order; it is the
// only place a deployment is made. The members must fit. They compile
// once, into one plan (plan.CompileShared: a lone graph's own plan, or two
// and more sharing a stem as deep as their chains agree), and run Pool
// (the largest among them) engines over it, with prev's stem memo and
// statistics carried over so a regroup keeps a warm memo; the memo grows
// to the largest StemMemoCap. The first member's batching options and Wrap
// apply to the group.
func build(members []member, prev *group) ([]*deployment, error) {
	if !fits(members) {
		return nil, errors.New("registry: stems do not match deeply enough to share")
	}
	grp := &group{}
	graphs := make([]*graph.Graph, len(members))
	pool, memoCap := 0, 0
	for i, mb := range members {
		grp.members = append(grp.members, mb.m)
		graphs[i] = mb.g
		pool = max(pool, mb.m.opts.Pool)
		memoCap = max(memoCap, mb.m.opts.StemMemoCap)
	}
	p, err := plan.CompileShared(graphs, 0)
	if err != nil {
		return nil, err
	}
	grp.plan, grp.report = p, p.Report()
	if prev != nil {
		grp.memo, grp.stats = prev.memo, prev.stats
	}
	if memoCap > 0 && (grp.memo == nil || grp.memo.Stats().Cap < memoCap) {
		grp.memo = plan.NewStemMemo(memoCap) // grow: fresh LRU at the larger cap
	}
	if grp.stats == nil {
		grp.stats = plan.NewStemStats()
	}
	opts := members[0].m.opts
	engines := make([]engine.Engine, pool)
	for i := range engines {
		f := engine.NewFused(p, grp.memo, grp.stats)
		grp.fused = append(grp.fused, f)
		engines[i] = f
		if opts.Wrap != nil {
			engines[i] = opts.Wrap(f)
		}
	}
	if p.StemDepth > 0 {
		grp.view = &SharedStemInfo{Depth: p.StemDepth, Fingerprint: fmt.Sprintf("%016x", p.StemFingerprint)}
		for _, m := range grp.members {
			grp.view.Members = append(grp.view.Members, m.name)
		}
	}
	shape := graphs[0].Root.InputShape
	grp.bat, err = batcher.New(shape, engines, batcher.Options{
		MaxBatch: opts.MaxBatch,
		MaxWait:  opts.MaxWait,
		QueueCap: opts.QueueCap,
	})
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	per := 1
	for _, dim := range shape {
		per *= dim
	}
	ds := make([]*deployment, len(members))
	for i, mb := range members {
		d := &deployment{member: mb, group: grp, tag: i, shape: shape.Clone(), per: per}
		d.tasks = make(map[int]int, len(p.Models[i].TaskMap))
		for local, global := range p.Models[i].TaskMap {
			d.tasks[global] = local
		}
		if len(shape) == 1 {
			d.vocab = graph.VocabOf(mb.g)
		}
		ds[i] = d
	}
	return ds, nil
}

// publish makes each deployment its model's current one — new arrivals
// land on it immediately — and returns the batchers it replaced. Caller
// holds topoMu.
func publish(ds []*deployment) []*batcher.Batcher {
	var replaced []*batcher.Batcher
	for _, d := range ds {
		if old := d.m.cur.Swap(d); old != nil {
			replaced = append(replaced, old.group.bat)
		}
	}
	return replaced
}

// place decides which group m serves in with its next state, then builds
// and publishes it. m keeps its current group while the new graph still
// shares the group's stem. Otherwise m departs, the partners it leaves
// regroup among themselves (two or more stay grouped, one is a group of
// one), and both are offered to every other group. It returns the replaced
// batchers no model serves from any more; the caller drains them after
// releasing topoMu, so requests they admitted complete while new arrivals
// already land on the new deployments. Caller holds topoMu.
func (r *Registry) place(m *Model, next member) ([]*batcher.Batcher, error) {
	var prev *group
	var rest []member
	if d := m.cur.Load(); d != nil {
		prev = d.group
		for _, mm := range prev.members {
			if pd := mm.cur.Load(); mm != m && pd.group == prev {
				rest = append(rest, pd.member)
			}
		}
	}
	if len(rest) > 0 {
		if ds, err := build(union(rest, []member{next}), prev); err == nil {
			return r.idle(publish(ds)), nil
		}
	}
	replaced, err := r.join([]member{next}, nil)
	if err != nil {
		return nil, err
	}
	if len(rest) > 0 {
		// Partners that cannot regroup keep serving from prev, whose
		// batcher idle then leaves running.
		if more, err := r.join(rest, prev); err == nil {
			replaced = append(replaced, more...)
		}
	}
	return r.idle(replaced), nil
}

// join publishes unit — models that serve together — merged into the first
// other group, scanning share-enabled models in registration order, whose
// members it fits with, or on its own when none fits. prev seeds the memo
// of a unit that stays on its own. Returns the batchers the publish
// replaced. Caller holds topoMu.
func (r *Registry) join(unit []member, prev *group) ([]*batcher.Batcher, error) {
	seen := map[*group]bool{}
	for _, mb := range unit {
		if d := mb.m.cur.Load(); d != nil {
			seen[d.group] = true
		}
	}
	// A unit of two or more already serves together, so all of it opted in.
	if unit[0].m.opts.ShareStem > 0 {
		for _, c := range r.Models() {
			d := c.cur.Load()
			if d == nil || seen[d.group] || c.opts.ShareStem <= 0 {
				continue
			}
			seen[d.group] = true
			if ds, err := build(union(unit, d.group.current()), d.group); err == nil {
				return publish(ds), nil
			}
		}
	}
	ds, err := build(unit, prev)
	if err != nil {
		return nil, err
	}
	return publish(ds), nil
}

// idle drops the batchers some model still serves from, so a drain never
// stops a live group.
func (r *Registry) idle(bats []*batcher.Batcher) []*batcher.Batcher {
	live := map[*batcher.Batcher]bool{}
	for _, m := range r.Models() {
		if d := m.cur.Load(); d != nil {
			live[d.group.bat] = true
		}
	}
	out := bats[:0]
	for _, b := range bats {
		if !live[b] {
			out = append(out, b)
		}
	}
	return out
}

// drainBatchers stops each batcher once, bounded by ctx: requests it
// admitted still complete. Returns how many requests the drains abandoned
// and the first Stop error.
func drainBatchers(ctx context.Context, bats []*batcher.Batcher) (abandoned int, err error) {
	seen := map[*batcher.Batcher]bool{}
	for _, b := range bats {
		if seen[b] {
			continue
		}
		seen[b] = true
		if e := b.Stop(ctx); e != nil && err == nil {
			err = e
		}
		abandoned += b.Pending()
	}
	return abandoned, err
}
