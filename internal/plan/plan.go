// Package plan compiles a trained abstract graph into a static execution
// plan: a flat, topologically ordered op list with all fusion decisions
// (conv+BN+ReLU folding, linear+bias, residual add+ReLU) made at lowering
// time, a wave schedule that turns branch parallelism into precomputed
// stages, and a liveness-based buffer plan that maps every intermediate
// tensor onto a small set of reusable arena-backed slabs.
//
// The package realizes the compiler-runtime split GMorph assumes of its
// serving substrate (the paper's TensorRT comparison, and DNNFusion-style
// fusion-plus-memory-planning): Compile runs once per model, Instance
// executes arbitrarily many forwards with zero steady-state tensor
// allocations and no per-call graph walk.
//
//	Plan     — immutable compile artifact: ops, values, waves, slab sizes.
//	Instance — per-goroutine runtime state: slab leases, registers, timers.
//
// One plan type serves one model or many. CompileShared lowers several
// graphs whose weight-inclusive prefixes agree into one plan: the common
// stem once, then each graph's divergent suffix as its own head family —
// the serving-time version of GMorph's offline fusion (Jeong et al.).
// Compile is its one-graph case: no stem, the graph's own task ids and op
// names.
//
// Instances are NOT safe for concurrent use (outputs live in plan-owned
// slabs); run one instance per concurrent stream, as the serving layer's
// engine pool does.
package plan

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/fingerprint"
	"repro/internal/graph"
)

// Value is one tensor in the plan: the graph input, an op output, or op
// scratch. Shapes are per-sample; the batch dimension is bound at run time.
type Value struct {
	ID int
	// Shape is the per-sample shape. When Cols2D is set the runtime layout
	// is [Shape[0], batch*Shape[1]] (channel-major unfold columns and conv
	// GEMM rows carry the batch on their column axis) instead of
	// [batch, Shape...].
	Shape  []int
	Cols2D bool
	// Producer is the op that writes the value; -1 for the graph input.
	Producer int
	// Scratch marks op-private workspace (dead as soon as its op retires).
	Scratch bool
	// Head is the task id when the value is a task output, else -1. Head
	// values are never recycled.
	Head int
	// Born and Dies delimit the value's liveness in wave indices:
	// written during wave Born, last read during wave Dies.
	Born, Dies int
	// Slab is the buffer the value is assigned to; -1 for the graph input,
	// which aliases the caller's tensor.
	Slab int
}

// Elems returns the value's per-sample element count.
func (v *Value) Elems() int {
	n := 1
	for _, d := range v.Shape {
		n *= d
	}
	return n
}

// Op is one fused operation in the flat program.
type Op struct {
	ID int
	// Name locates the op in reports, e.g. "t0/op2 conv3x3(6->12)+bn+relu+pool".
	Name string
	// Kind is the kernel family: conv, bn, relu, maxpool, avgpool, addrelu,
	// linear, interp, tokenmean, copy, ln, addln, attn, patch, embed,
	// tokeninterp, gelu (plus qconv/qlinear for the int8 twins). A
	// linear's row epilogue may apply GELU or add a residual (In2); its Name
	// then ends in "+gelu" or "+residual".
	Kind string
	// In is the main input value; In2 is the second input of the two-operand
	// ops (addrelu, addln, and a linear/qlinear with a residual epilogue;
	// -1 otherwise).
	In, In2 int
	// Out is the output value.
	Out int
	// Out2 is the secondary output of dual-result ops (addln publishes both
	// the residual sum and its layer norm). 0 means absent: value 0 is
	// always the graph input, never an op output.
	Out2 int
	// Scratch lists op-private workspace values.
	Scratch []int
	// Wave is the stage the op executes in; ops sharing a wave have no data
	// dependencies and run concurrently.
	Wave int

	spec spec
}

// Precision reports the op's execution precision, derived from its kind:
// int8 for the quantized kernels, f32 for everything else.
func (o *Op) Precision() string {
	if o.Kind == "qconv" || o.Kind == "qlinear" {
		return "int8"
	}
	return "f32"
}

// spec is the compile-time kernel description; build binds it to an
// instance's registers, returning the op's runner.
type spec interface {
	build(inst *Instance, o *Op) func()
}

// Plan is the immutable compile artifact. All slices are indexed by the
// respective ID fields.
type Plan struct {
	// InShape is the per-sample input shape the plan accepts.
	InShape []int
	// InValue is the value id aliasing the caller's input tensor.
	InValue int

	Values []*Value
	Ops    []*Op
	// Waves groups op ids into execution stages in dependency order.
	Waves [][]int
	// SlabElems is each slab's per-sample element capacity; a slab's byte
	// size at batch B is SlabElems[i]*B*4.
	SlabElems []int
	// Heads maps plan task id to its output value id.
	Heads map[int]int
	// QuantTargets lists every op the int8 path could lower, in op order —
	// the worklist internal/quant calibrates and prunes.
	QuantTargets []QuantTarget

	// StemDepth is the number of shared stem nodes lowered once; 0 for a
	// plan without a stem (every one-graph plan).
	StemDepth int
	// StemWaves splits the schedule at the stem boundary: waves
	// [0, StemWaves) compute the stem, the rest the heads. 0 without a stem.
	StemWaves int
	// StemValue is the value id holding the stem output — the register a
	// memoised execution fills instead of running the stem waves. It is
	// InValue without a stem.
	StemValue int
	// StemFingerprint is the prefix-chain entry at StemDepth, the stem
	// memo key's model-independent half; 0 without a stem.
	StemFingerprint uint64
	// Models maps each source graph's tasks into the plan, in argument
	// order.
	Models []Model
}

// Model records how one source graph's tasks map into the plan.
type Model struct {
	// Prefix namespaces the graph's op names ("m0/..."); "" in a one-graph
	// plan.
	Prefix string
	// TaskMap maps the graph's own task ids to plan task ids — the
	// identity in a one-graph plan.
	TaskMap map[int]int
}

// StemElems returns the stem output's per-sample element count.
func (p *Plan) StemElems() int { return p.Values[p.StemValue].Elems() }

// headAlive marks head values immortal in liveness analysis.
const headAlive = math.MaxInt32

// Compile lowers a trained graph into an execution plan: CompileShared's
// one-graph case, whose ops, task ids, waves and slabs are the graph's own.
// The graph is not modified; folded weights are private copies. Like
// graph.Forward, Compile panics on structurally invalid graphs (Validate
// catches those earlier).
func Compile(g *graph.Graph) *Plan {
	return lower([]*graph.Graph{g}, 0, 0)
}

// CompileShared lowers graphs sharing a structural-and-weight prefix into
// one multi-head plan. depth selects how many stem nodes to share; depth <=
// 0 means "as deep as the fingerprint chains allow". A lone graph shares
// nothing, so its plan is Compile's. Two or more graphs must share a
// usable stem (at least max(depth,1) chain entries in common, lowering to
// at least one op); otherwise CompileShared errs, so callers can serve
// them apart.
//
// The stem is lowered from gs[0]; since sharing requires bit-identical
// weights the choice only matters for int8 annotations, which live on
// layers and are taken from gs[0]'s stem. Task ids move into one plan-wide
// space, each graph's ids offset past the previous graph's (see
// Model.TaskMap); op names gain a per-graph "m<i>/" prefix, the stem's a
// "stem/" prefix.
func CompileShared(gs []*graph.Graph, depth int) (*Plan, error) {
	if len(gs) == 0 {
		return nil, errors.New("plan: CompileShared needs at least one graph")
	}
	if len(gs) == 1 {
		if depth > 0 {
			return nil, fmt.Errorf("plan: a lone graph shares no stem, need %d nodes", depth)
		}
		return Compile(gs[0]), nil
	}
	chains := make([][]uint64, len(gs))
	for i, g := range gs {
		chains[i] = fingerprint.PrefixHashes(g)
	}
	shared := len(chains[0])
	for _, c := range chains[1:] {
		shared = min(shared, fingerprint.SharedDepth(chains[0], c))
	}
	if depth <= 0 {
		depth = shared
	}
	if depth == 0 || shared < depth {
		return nil, fmt.Errorf("plan: graphs share %d stem nodes, need %d", shared, max(depth, 1))
	}
	p := lower(gs, depth, chains[0][depth-1])
	if p.StemWaves == 0 {
		// A stem whose layers all lower to no op (an empty Sequential, a
		// RescaleTokens that neither resamples nor projects) shares no
		// compute.
		return nil, fmt.Errorf("plan: %d-node stem lowered to zero ops", depth)
	}
	return p, nil
}

// lower is the one lowering behind Compile and CompileShared: the first
// depth stem nodes of gs[0] once, then every graph's remainder against the
// stem output (the graph input when depth is 0).
func lower(gs []*graph.Graph, depth int, stemFP uint64) *Plan {
	c := &compiler{
		p: &Plan{
			InShape:         append([]int(nil), gs[0].Root.InputShape...),
			Heads:           make(map[int]int),
			StemDepth:       depth,
			StemFingerprint: stemFP,
		},
	}
	p := c.p
	p.InValue = c.newValue(p.InShape, false, -1)
	p.StemValue = p.InValue
	if depth > 0 {
		c.prefix = "stem/"
		for _, n := range fingerprint.StemNodes(gs[0])[:depth] {
			p.StemValue = c.lowerNode(n, p.StemValue)
		}
	}
	stemOps := len(p.Ops)

	for i, g := range gs {
		m := Model{TaskMap: make(map[int]int, len(g.Heads))}
		if len(gs) > 1 {
			m.Prefix = fmt.Sprintf("m%d/", i)
		}
		next := c.base
		for t := range g.Heads {
			m.TaskMap[t] = c.base + t
			next = max(next, c.base+t+1)
		}
		anchor := g.Root
		if depth > 0 {
			anchor = fingerprint.StemNodes(g)[depth-1]
		}
		c.prefix = m.Prefix
		c.lowerChildren(anchor, p.StemValue)
		c.base = next
		p.Models = append(p.Models, m)
	}

	c.markQuantHeads()
	c.schedule()
	c.liveness()
	c.assignSlabs()

	// The stem/head wave partition split execution relies on: every stem
	// op schedules strictly before every suffix op, because the stem is a
	// dependency chain and each suffix op transitively reads its final value.
	for _, o := range p.Ops[:stemOps] {
		p.StemWaves = max(p.StemWaves, o.Wave+1)
	}
	for _, o := range p.Ops {
		if (o.ID < stemOps) != (o.Wave < p.StemWaves) {
			panic(fmt.Sprintf("plan: op %d (%s) violates the stem wave partition", o.ID, o.Name))
		}
	}
	return p
}

// compiler accumulates plan state during lowering.
type compiler struct {
	p *Plan
	// prefix namespaces the op names of the graph being lowered; base
	// offsets its task ids into the plan's task space.
	prefix string
	base   int
}

// newValue appends a value and returns its id.
func (c *compiler) newValue(shape []int, cols2d bool, producer int) int {
	v := &Value{
		ID:       len(c.p.Values),
		Shape:    append([]int(nil), shape...),
		Cols2D:   cols2d,
		Producer: producer,
		Head:     -1,
		Slab:     -1,
	}
	c.p.Values = append(c.p.Values, v)
	return v.ID
}

// addOp appends an op (with Out/Scratch producers patched) and returns the
// output value id.
func (c *compiler) addOp(o *Op) int {
	o.ID = len(c.p.Ops)
	c.p.Ops = append(c.p.Ops, o)
	c.p.Values[o.Out].Producer = o.ID
	if o.Out2 > 0 {
		c.p.Values[o.Out2].Producer = o.ID
	}
	for _, s := range o.Scratch {
		sv := c.p.Values[s]
		sv.Producer = o.ID
		sv.Scratch = true
	}
	return o.Out
}

// lowerChildren lowers each child branch of n, feeding them the value that
// holds n's output.
func (c *compiler) lowerChildren(n *graph.Node, inVal int) {
	for _, child := range n.Children {
		out := c.lowerNode(child, inVal)
		if child.IsHead() {
			t := c.base + child.TaskID
			c.p.Values[out].Head = t
			c.p.Heads[t] = out
			continue
		}
		c.lowerChildren(child, out)
	}
}

// schedule assigns each op to a wave: one past the latest wave among its
// producers (ASAP leveling). Ops are appended in topological order during
// lowering, so a single pass suffices. Sibling branches naturally interleave
// into shared waves; the runtime executes each wave's ops concurrently.
func (c *compiler) schedule() {
	valWave := func(id int) int {
		if id < 0 {
			return -1
		}
		v := c.p.Values[id]
		if v.Producer < 0 {
			return -1 // graph input is ready before wave 0
		}
		return c.p.Ops[v.Producer].Wave
	}
	maxWave := -1
	for _, o := range c.p.Ops {
		w := valWave(o.In)
		if o.In2 >= 0 {
			if w2 := valWave(o.In2); w2 > w {
				w = w2
			}
		}
		o.Wave = w + 1
		if o.Wave > maxWave {
			maxWave = o.Wave
		}
	}
	c.p.Waves = make([][]int, maxWave+1)
	for _, o := range c.p.Ops {
		c.p.Waves[o.Wave] = append(c.p.Waves[o.Wave], o.ID)
	}
}

// liveness computes each value's [Born, Dies] wave interval. Scratch lives
// only during its op's wave; head outputs never die (the caller reads them
// after Execute returns).
func (c *compiler) liveness() {
	for _, v := range c.p.Values {
		if v.Producer < 0 {
			v.Born, v.Dies = -1, -1
		} else {
			v.Born = c.p.Ops[v.Producer].Wave
			v.Dies = v.Born // scratch default: dies with its own wave
		}
		if v.Head >= 0 {
			v.Dies = headAlive
		}
	}
	for _, o := range c.p.Ops {
		for _, in := range []int{o.In, o.In2} {
			if in < 0 {
				continue
			}
			v := c.p.Values[in]
			if v.Producer >= 0 && v.Dies != headAlive && o.Wave > v.Dies {
				v.Dies = o.Wave
			}
		}
	}
}

// assignSlabs maps values onto reusable slabs with a greedy linear scan
// over the wave schedule: entering wave w releases every slab whose value
// made its last read at wave w-1, then each value written during w takes a
// free slab (or opens a new one). A slab's capacity is the max per-sample
// element count over the values it ever hosts. Correctness argument: a
// wave-w op only reads values with Dies >= w, which by construction are
// never in the free list when wave w's outputs are placed — so no op's
// output or scratch can alias anything read in the same or a later wave.
func (c *compiler) assignSlabs() {
	// expire[w] lists values whose final read is in wave w.
	expire := make([][]int, len(c.p.Waves))
	for _, v := range c.p.Values {
		if v.Producer >= 0 && v.Dies != headAlive {
			expire[v.Dies] = append(expire[v.Dies], v.ID)
		}
	}
	var free []int
	for w, ops := range c.p.Waves {
		if w > 0 {
			for _, vid := range expire[w-1] {
				free = append(free, c.p.Values[vid].Slab)
			}
		}
		for _, oid := range ops {
			o := c.p.Ops[oid]
			place := func(vid int) {
				v := c.p.Values[vid]
				if len(free) > 0 {
					v.Slab = free[len(free)-1]
					free = free[:len(free)-1]
				} else {
					v.Slab = len(c.p.SlabElems)
					c.p.SlabElems = append(c.p.SlabElems, 0)
				}
				if e := v.Elems(); e > c.p.SlabElems[v.Slab] {
					c.p.SlabElems[v.Slab] = e
				}
			}
			for _, s := range o.Scratch {
				place(s)
			}
			place(o.Out)
			if o.Out2 > 0 {
				place(o.Out2)
			}
		}
	}
}

// OpReport describes one op for inspection tooling.
type OpReport struct {
	ID       int
	Name     string
	Kind     string
	Wave     int
	Slab     int
	OutShape []int
	// OutBytes is the per-sample output footprint.
	OutBytes int64
	// Precision is "int8" for quantized ops, "f32" otherwise.
	Precision string
}

// Report summarizes the plan's schedule and memory economics.
type Report struct {
	Ops   []OpReport
	Waves [][]int
	Slabs int
	// PeakBytes is the planned per-sample footprint: the sum of slab
	// capacities. NaiveBytes is what per-op allocation would use: every
	// value (outputs and scratch alike) with its own buffer.
	PeakBytes  int64
	NaiveBytes int64
}

// Report derives the plan's inspection summary.
func (p *Plan) Report() Report {
	r := Report{Waves: p.Waves, Slabs: len(p.SlabElems)}
	for _, o := range p.Ops {
		out := p.Values[o.Out]
		r.Ops = append(r.Ops, OpReport{
			ID: o.ID, Name: o.Name, Kind: o.Kind, Wave: o.Wave,
			Slab:      out.Slab,
			OutShape:  out.Shape,
			OutBytes:  int64(out.Elems()) * 4,
			Precision: o.Precision(),
		})
	}
	for _, e := range p.SlabElems {
		r.PeakBytes += int64(e) * 4
	}
	for _, v := range p.Values {
		if v.Producer >= 0 {
			r.NaiveBytes += int64(v.Elems()) * 4
		}
	}
	return r
}

// String renders the op list, wave schedule, and slab summary — the
// `inspect --plan` report body.
func (p *Plan) String() string {
	r := p.Report()
	var b strings.Builder
	fmt.Fprintf(&b, "execution plan: %d ops, %d waves, %d slabs\n",
		len(p.Ops), len(p.Waves), r.Slabs)
	fmt.Fprintf(&b, "planned bytes/sample: %d (naive per-op allocation: %d, %.1fx)\n",
		r.PeakBytes, r.NaiveBytes, float64(r.NaiveBytes)/float64(r.PeakBytes))
	for w, ops := range p.Waves {
		width := ""
		if len(ops) > 1 {
			width = fmt.Sprintf("  [%d ops in parallel]", len(ops))
		}
		fmt.Fprintf(&b, "wave %d%s\n", w, width)
		for _, oid := range ops {
			o := p.Ops[oid]
			out := p.Values[o.Out]
			fmt.Fprintf(&b, "  %-3d %-10s slab %-2d out %-14s %s\n",
				o.ID, o.Kind, out.Slab, fmt.Sprint(out.Shape), o.Name)
		}
	}
	return b.String()
}
