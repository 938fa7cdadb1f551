package plan

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/tensor"
)

// Instance is the runtime state for executing one Plan: arena-leased slabs,
// tensor registers viewing them, prebuilt op runners, and per-op timing
// counters. Building the register file and runner closures happens once (and
// again only when the batch size changes), so a steady-state Execute
// performs zero tensor allocations: every op writes into its planned slab
// through a pre-wired kernel.
//
// An Instance is not safe for concurrent Execute calls — returned outputs
// alias plan-owned slabs that the next Execute overwrites. The timing
// counters ARE safe to read concurrently (they are atomics, because wave
// ops run on pool workers and stats endpoints poll during execution).
type Instance struct {
	p     *Plan
	batch int // bound batch size; 0 before the first Execute

	slabs []*[]float32     // arena leases, one per plan slab
	regs  []*tensor.Tensor // value id -> tensor view over its slab
	outs  map[int]*tensor.Tensor

	runners    []func()           // op id -> bound kernel
	waveBodies []func(lo, hi int) // per wave, the ParallelFor body running its ops [lo, hi)
	waveWork   []int              // per wave, the floats one of its ops touches per sample

	nanos []atomic.Int64 // op id -> cumulative execution nanoseconds
	calls []atomic.Int64 // op id -> cumulative invocations

	// obs, when set, observes each op's main input just before the op
	// runs; internal/quant's calibration pass records activation ranges
	// through it. Ops in a shared wave run concurrently, so the callback
	// must be safe for concurrent use.
	obs func(opID int, in *tensor.Tensor)

	// memo and stats, when set on a plan with a stem, split Execute at the
	// stem boundary (see SetStemMemo). The slices are per-call scratch for
	// that split, reused across calls.
	memo   *StemMemo
	stats  *StemStats
	keys   []uint64    // per-row input hashes
	cached [][]float32 // per-row memo rows (nil = miss)
	miss   []int       // miss row indices
}

// NewInstance builds runtime state for the plan. Buffers are leased lazily
// on the first Execute, so idle pool slots cost nothing.
func (p *Plan) NewInstance() *Instance {
	inst := &Instance{
		p:     p,
		slabs: make([]*[]float32, len(p.SlabElems)),
		regs:  make([]*tensor.Tensor, len(p.Values)),
		outs:  make(map[int]*tensor.Tensor, len(p.Heads)),
		nanos: make([]atomic.Int64, len(p.Ops)),
		calls: make([]atomic.Int64, len(p.Ops)),
	}
	inst.runners = make([]func(), len(p.Ops))
	for _, o := range p.Ops {
		inst.runners[o.ID] = o.spec.build(inst, o)
	}
	inst.waveBodies = make([]func(lo, hi int), len(p.Waves))
	inst.waveWork = make([]int, len(p.Waves))
	for w, ops := range p.Waves {
		inst.waveBodies[w] = func(lo, hi int) {
			for _, id := range ops[lo:hi] {
				inst.runOp(id)
			}
		}
		for _, id := range ops { // an op's work: the floats of its main input, output and scratch
			o := p.Ops[id]
			f := p.Values[o.In].Elems() + p.Values[o.Out].Elems()
			for _, v := range o.Scratch {
				f += p.Values[v].Elems()
			}
			inst.waveWork[w] += f / len(ops)
		}
	}
	return inst
}

// Plan returns the compiled plan the instance executes.
func (inst *Instance) Plan() *Plan { return inst.p }

// bind (re)leases slabs and rebuilds the register file for a batch size.
// Called only when the batch changes; GrowBuf keeps existing leases when
// they are already large enough.
func (inst *Instance) bind(n int) {
	inst.batch = n
	for i, elems := range inst.p.SlabElems {
		inst.slabs[i] = tensor.GrowBuf(inst.slabs[i], elems*n)
	}
	for _, v := range inst.p.Values {
		if v.Producer < 0 {
			continue // the input register is rebound on every Execute
		}
		buf := (*inst.slabs[v.Slab])[:v.Elems()*n]
		if v.Cols2D {
			inst.regs[v.ID] = tensor.FromSlice(buf, v.Shape[0], n*v.Shape[1])
		} else {
			inst.regs[v.ID] = tensor.FromSlice(buf, append([]int{n}, v.Shape...)...)
		}
	}
	for task, vid := range inst.p.Heads {
		inst.outs[task] = inst.regs[vid]
	}
}

// SetObserver installs (or, with nil, removes) a pre-op hook receiving each
// op's id and main input register. The tensor aliases a plan-owned slab that
// later waves overwrite; observers needing the data past the op must copy
// it. Not safe to call concurrently with Execute.
func (inst *Instance) SetObserver(fn func(opID int, in *tensor.Tensor)) {
	inst.obs = fn
}

// SetStemMemo attaches a stem-activation memo and a stem batch-size
// histogram (either may be nil); both are safe to share across a pool of
// instances running the plan. A plan without a stem has nothing to memoise
// and ignores both. Not safe to call concurrently with Execute.
func (inst *Instance) SetStemMemo(memo *StemMemo, stats *StemStats) {
	if inst.p.StemDepth > 0 {
		inst.memo, inst.stats = memo, stats
	}
}

// runOp executes one op through its prebuilt runner, accumulating wall time.
func (inst *Instance) runOp(id int) {
	if inst.obs != nil {
		if in := inst.p.Ops[id].In; in >= 0 {
			inst.obs(id, inst.regs[in])
		}
	}
	start := time.Now()
	inst.runners[id]()
	inst.nanos[id].Add(int64(time.Since(start)))
	inst.calls[id].Add(1)
}

// Execute runs the plan on x (shape [N, InShape...]) and returns the head
// outputs by plan task id (a one-graph plan's are the graph's own; see
// Model.TaskMap). The returned tensors alias plan-owned buffers that the
// next Execute overwrites; callers that retain outputs must clone them. The
// map itself is also reused across calls.
//
// With a stem memo attached, each input row is hashed and looked up: hit
// rows feed the head waves straight from the memo, and only miss rows pay
// the stem forward, compacted into a smaller batch. Compaction rebinds the
// batch size twice, which rebuilds tensor headers, and every harvested
// stem row is a fresh copy; only the memo-less path is allocation-free.
func (inst *Instance) Execute(x *tensor.Tensor) map[int]*tensor.Tensor {
	inst.checkInput(x)
	p := inst.p
	n := x.Dim(0)
	if inst.memo == nil {
		inst.stats.record(n)
		inst.start(x)
		inst.runWaves(0, len(p.Waves))
		return inst.outs
	}

	// Hash and probe each row.
	inElems := p.Values[p.InValue].Elems()
	xd := x.Data()
	inst.keys, inst.cached, inst.miss = inst.keys[:0], inst.cached[:0], inst.miss[:0]
	for r := 0; r < n; r++ {
		k := HashRow(xd[r*inElems : (r+1)*inElems])
		act := inst.memo.Get(p.StemFingerprint, k)
		inst.keys = append(inst.keys, k)
		inst.cached = append(inst.cached, act)
		if act == nil {
			inst.miss = append(inst.miss, r)
		}
	}
	inst.stats.record(len(inst.miss))

	if len(inst.miss) == n {
		// All miss: one full-batch pass, split only to harvest memo rows.
		inst.start(x)
		inst.runWaves(0, p.StemWaves)
		inst.harvest()
		inst.runWaves(p.StemWaves, len(p.Waves))
		return inst.outs
	}
	if len(inst.miss) > 0 {
		// Mixed: run the stem on the miss rows alone, compacted.
		mx := tensor.New(append([]int{len(inst.miss)}, p.InShape...)...)
		md := mx.Data()
		for i, r := range inst.miss {
			copy(md[i*inElems:], xd[r*inElems:(r+1)*inElems])
		}
		inst.start(mx)
		inst.runWaves(0, p.StemWaves)
		inst.harvest()
	}
	// Every row's stem activation is now at hand: fill the full-batch stem
	// register and run the heads.
	inst.start(x)
	e := p.StemElems()
	stem := inst.regs[p.StemValue].Data()
	for r, act := range inst.cached {
		copy(stem[r*e:(r+1)*e], act)
	}
	inst.runWaves(p.StemWaves, len(p.Waves))
	return inst.outs
}

// start binds the batch to x's row count and points the input register at
// x.
func (inst *Instance) start(x *tensor.Tensor) {
	if n := x.Dim(0); n != inst.batch {
		inst.bind(n)
	}
	inst.regs[inst.p.InValue] = x
}

// harvest offers the stem register's rows — row i computed for input row
// miss[i] — to the memo as private copies and records them as those rows'
// activations.
func (inst *Instance) harvest() {
	p := inst.p
	e := p.StemElems()
	stem := inst.regs[p.StemValue].Data()
	for i, r := range inst.miss {
		act := make([]float32, e)
		copy(act, stem[i*e:])
		inst.memo.Put(p.StemFingerprint, inst.keys[r], act)
		inst.cached[r] = act
	}
}

// checkInput panics unless x has shape [N, InShape...].
func (inst *Instance) checkInput(x *tensor.Tensor) {
	want := inst.p.InShape
	if x.Rank() != len(want)+1 {
		panic(fmt.Sprintf("plan: Execute input %v, want [N %v]", x.Shape(), want))
	}
	for i, d := range want {
		if x.Dim(i+1) != d {
			panic(fmt.Sprintf("plan: Execute input %v, want [N %v]", x.Shape(), want))
		}
	}
}

// runWaves executes waves [lo, hi) in schedule order. Callers must have
// bound the batch and filled every register the ops read (the graph input
// for wave 0; the stem output value when execution resumes at the head
// waves).
func (inst *Instance) runWaves(lo, hi int) {
	for w := lo; w < hi; w++ {
		tensor.ParallelFor(len(inst.p.Waves[w]), inst.batch*inst.waveWork[w], inst.waveBodies[w])
	}
}

// OpStat is one op's cumulative execution record.
type OpStat struct {
	ID    int
	Name  string
	Kind  string
	Wave  int
	Calls int64
	Nanos int64
	// Precision is "int8" for quantized ops, "f32" otherwise.
	Precision string
}

// OpStats snapshots the per-op timing counters. Safe to call concurrently
// with Execute.
func (inst *Instance) OpStats() []OpStat {
	stats := make([]OpStat, len(inst.p.Ops))
	for _, o := range inst.p.Ops {
		stats[o.ID] = OpStat{
			ID: o.ID, Name: o.Name, Kind: o.Kind, Wave: o.Wave,
			Calls:     inst.calls[o.ID].Load(),
			Nanos:     inst.nanos[o.ID].Load(),
			Precision: o.Precision(),
		}
	}
	return stats
}

// ---- kernel specs ----
//
// Each spec's build returns a runner closure bound to the instance. Runners
// read inst.regs at call time (registers are swapped on batch rebinds), and
// any ParallelFor bodies are created here, once, so the hot path allocates
// nothing.

// convSpec is the fused conv(+BN)(+ReLU)(+maxpool) kernel: a channel-major
// unfold into cols [C·K·K, N·OH·OW], one GEMM W · cols that reads the
// BN-folded weight in place as the A operand and packs only the columns,
// and an epilogue per (image, channel) plane. At batch 1 without a pool the
// GEMM's [OutC, OH·OW] output already is NCHW and lands in dst; otherwise
// it lands in the rows scratch [OutC, N·OH·OW] and the epilogue writes each
// plane to dst, through the max pool when the op pools.
type convSpec struct {
	f            *FoldedConv
	relu         bool
	cols, rows   int // scratch value ids
	oh, ow       int // conv output plane
	poolK, poolS int // 0 without pooling
}

func (s *convSpec) build(inst *Instance, o *Op) func() {
	in, out := o.In, o.Out
	f, ohw := s.f, s.oh*s.ow
	var direct tensor.Tensor // dst viewed as the GEMM's [OutC, OH·OW] output
	var rd []float32         // the GEMM output the epilogue reads
	epilogue := func(lo, hi int) { s.epilogue(inst.regs[out].Data(), rd, f.Bias, inst.batch, lo, hi) }
	return func() {
		dst, rows := inst.regs[out], inst.regs[s.rows]
		tensor.Im2ColCMInto(inst.regs[s.cols], inst.regs[in], f.K, f.K, f.Stride, f.Pad)
		if inst.batch == 1 && s.poolK == 0 {
			rows = direct.Rebind(dst.Data(), f.OutC, ohw)
		}
		tensor.MatMulInto(rows, f.Weight, inst.regs[s.cols])
		rd = rows.Data()
		tensor.ParallelFor(inst.batch*f.OutC, ohw, epilogue)
	}
}

// epilogue finishes planes [lo, hi) of an n-image batch into dst. Plane
// p = ni·OutC + ch is row ch's pixels [ni·OH·OW, (ni+1)·OH·OW) of the GEMM
// output rows: tensor.BiasRow adds bias[ch] and applies the ReLU, writing
// dst's plane or, when the op pools, the row in place before max-pooling it
// into dst. The f32 conv passes its folded bias, the int8 conv its
// annotation's.
func (s *convSpec) epilogue(dst, rows, bias []float32, n, lo, hi int) {
	outC, ohw := s.f.OutC, s.oh*s.ow
	m, pohw := n*ohw, ohw
	if s.poolK > 0 {
		pohw = tensor.ConvOut(s.oh, s.poolK, s.poolS, 0) * tensor.ConvOut(s.ow, s.poolK, s.poolS, 0)
	}
	for p := lo; p < hi; p++ {
		ch := p % outC
		src := rows[ch*m+p/outC*ohw:][:ohw]
		if s.poolK == 0 {
			tensor.BiasRow(dst[p*ohw:][:ohw], src, bias[ch], s.relu)
			continue
		}
		tensor.BiasRow(src, src, bias[ch], s.relu)
		tensor.MaxPoolPlane(dst[p*pohw:][:pohw], src, s.oh, s.ow, s.poolK, s.poolS, nil)
	}
}

// bnSpec is a standalone folded batch norm (op-granularity graphs only;
// block-granularity BNs fold into their convolution).
type bnSpec struct {
	scale, shift []float32
	c, hw        int
}

func (s *bnSpec) build(inst *Instance, o *Op) func() {
	in, out := o.In, o.Out
	body := func(lo, hi int) {
		xd := inst.regs[in].Data()
		dd := inst.regs[out].Data()
		for nc := lo; nc < hi; nc++ {
			ch := nc % s.c
			sc, sh := s.scale[ch], s.shift[ch]
			xrow := xd[nc*s.hw:][:s.hw]
			drow := dd[nc*s.hw:][:s.hw]
			for i, v := range xrow {
				drow[i] = v*sc + sh
			}
		}
	}
	return func() { tensor.ParallelFor(inst.batch*s.c, s.hw, body) }
}

// ewSpec is an elementwise activation: ReLU (tensor.ReLURow, as nn.ReLU)
// when relu is set, GELU (tensor.GELURow, as nn.GELU) otherwise.
type ewSpec struct {
	relu bool
}

func (s *ewSpec) build(inst *Instance, o *Op) func() {
	in, out := o.In, o.Out
	row, work := tensor.GELURow, tensor.GELUWork
	if s.relu {
		row, work = tensor.ReLURow, 1
	}
	body := func(lo, hi int) { row(inst.regs[out].Data()[lo:hi], inst.regs[in].Data()[lo:hi]) }
	return func() { tensor.ParallelFor(inst.regs[out].Size(), work, body) }
}

// addReluSpec fuses the residual join: dst = relu(a + b).
type addReluSpec struct{}

func (s *addReluSpec) build(inst *Instance, o *Op) func() {
	a, b, out := o.In, o.In2, o.Out
	body := func(lo, hi int) {
		tensor.AddReLURow(inst.regs[out].Data()[lo:hi], inst.regs[a].Data()[lo:hi], inst.regs[b].Data()[lo:hi])
	}
	return func() { tensor.ParallelFor(inst.regs[out].Size(), 1, body) }
}

// maxPoolSpec is standalone max pooling (op-granularity graphs).
type maxPoolSpec struct {
	k, stride int
}

func (s *maxPoolSpec) build(inst *Instance, o *Op) func() {
	in, out := o.In, o.Out
	return func() { tensor.MaxPoolInto(inst.regs[out], inst.regs[in], s.k, s.stride, nil) }
}

// avgPoolSpec is global average pooling [N,C,H,W] -> [N,C].
type avgPoolSpec struct{}

func (s *avgPoolSpec) build(inst *Instance, o *Op) func() {
	in, out := o.In, o.Out
	return func() { tensor.AvgPoolGlobalInto(inst.regs[out], inst.regs[in]) }
}

// tokenMeanSpec averages tokens [N,T,D] -> [N,D] (tensor.TokenMeanRows,
// as nn.TokenMeanPool).
type tokenMeanSpec struct {
	t, d int
}

func (s *tokenMeanSpec) build(inst *Instance, o *Op) func() {
	in, out := o.In, o.Out
	return func() { tensor.TokenMeanRows(inst.regs[out].Data(), inst.regs[in].Data(), s.t, s.d) }
}

// copySpec forwards data unchanged under a new shape (Flatten).
type copySpec struct{}

func (s *copySpec) build(inst *Instance, o *Op) func() {
	in, out := o.In, o.Out
	return func() { copy(inst.regs[out].Data(), inst.regs[in].Data()) }
}

// linearSpec is a fully connected layer with folded bias; token inputs
// [N,T,D] are viewed as [N*T,D]. The weight is held only as GEMM strips
// packed at compile, shared read-only by every instance of the plan, so a
// forward never re-packs it. The 2-D views are two owned tensor headers
// rebound on every call (the graph input is a new caller tensor each
// Execute). The bias and the optional GELU or residual add run in the row
// epilogue.
type linearSpec struct {
	in, out int
	w       *tensor.PackedB // [in, out], packed at compile
	bias    []float32
	gelu    bool
}

func (s *linearSpec) build(inst *Instance, o *Op) func() {
	inV, outV := o.In, o.Out
	var x2d, y2d tensor.Tensor
	epilogue := rowEpilogue(inst, o, s.bias, s.out, s.gelu)
	return func() {
		x := inst.regs[inV]
		rows := x.Size() / s.in
		tensor.MatMulPackedInto(y2d.Rebind(inst.regs[outV].Data(), rows, s.out), x2d.Rebind(x.Data(), rows, s.in), s.w)
		epilogue(rows)
	}
}

// rowEpilogue returns the linear ops' row tail, run on the worker pool over
// the d-wide rows of o.Out once the GEMM has stored them: add bias (nil when
// the GEMM stored it, as the int8 one does), then apply GELU when gelu is
// set, or add the same row of the residual input o.In2 when the op has one.
// Each element sees the ops of Linear -> GELU or Linear -> add in the same
// order, so the fusion moves no bit; the adds run on the bound vector
// kernel (tensor.AddRow), which rounds each sum once as a scalar add does.
// It returns a no-op when there is nothing to do.
func rowEpilogue(inst *Instance, o *Op, bias []float32, d int, gelu bool) func(rows int) {
	out, res := o.Out, o.In2
	if bias == nil && !gelu && res < 0 {
		return func(int) {}
	}
	work := d
	if gelu {
		work += d * tensor.GELUWork
	}
	if res >= 0 {
		work += d
	}
	body := func(lo, hi int) {
		yd := inst.regs[out].Data()
		var rd []float32
		if res >= 0 {
			rd = inst.regs[res].Data()
		}
		for r := lo; r < hi; r++ {
			row := yd[r*d:][:d]
			if bias != nil {
				tensor.AddRow(row, bias)
			}
			if gelu {
				tensor.GELURow(row, row)
			}
			if res >= 0 {
				tensor.AddRow(row, rd[r*d:])
			}
		}
	}
	return func(rows int) { tensor.ParallelFor(rows, work, body) }
}

// interpSpec is the resampling front half of a Rescale adapter: bilinear
// over the spatial axes (Rescale2D) or linear over the token axis
// (RescaleTokens).
type interpSpec struct {
	into func(dst, x *tensor.Tensor)
}

func (s *interpSpec) build(inst *Instance, o *Op) func() {
	in, out := o.In, o.Out
	return func() { s.into(inst.regs[out], inst.regs[in]) }
}
