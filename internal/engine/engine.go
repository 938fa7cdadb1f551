// Package engine provides inference engines for trained abstract graphs,
// standing in for the paper's PyTorch vs TensorRT comparison (Table 3):
//
//   - Reference executes the graph eagerly, one layer at a time, like the
//     PyTorch eager baseline.
//   - Fused executes a compiled plan (internal/plan): BatchNorm folds into
//     the preceding convolution's weights at compile time, ReLU and the
//     residual join fuse into their producers, intermediate tensors live in
//     preplanned reusable slabs, and sibling branches run as precomputed
//     parallel waves (the CUDA multi-stream analogue).
//
// Reference is also the oracle the parity tests check Fused against.
//
// The engines exist to demonstrate the paper's claim that model fusion is
// complementary to compiler-style graph optimization: GMorph's fused
// multi-task models keep their speedup ratio under both engines.
package engine

import (
	"time"

	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/tensor"
	"repro/internal/timing"
)

// Engine runs inference for a multi-task model.
type Engine interface {
	// Name identifies the engine in reports.
	Name() string
	// Forward returns per-task outputs for a batched input.
	Forward(x *tensor.Tensor) map[int]*tensor.Tensor
}

// Reference is the eager executor.
type Reference struct {
	g *graph.Graph
}

// NewReference wraps a graph without transformation.
func NewReference(g *graph.Graph) *Reference { return &Reference{g: g} }

// Name implements Engine.
func (r *Reference) Name() string { return "reference" }

// Forward implements Engine.
func (r *Reference) Forward(x *tensor.Tensor) map[int]*tensor.Tensor {
	return r.g.Forward(x, false)
}

// Fused is the plan-backed compiled executor: a thin wrapper over one
// plan.Instance, of a one-graph plan or a multi-graph one alike. Forward
// clones the head outputs out of the instance's reused slabs, so callers
// own what they receive (Reference semantics). Because the instance's
// buffers are reused across calls, one Fused engine must not run
// concurrent Forwards — pool engines per stream, as the serving layer's
// batcher does. Engines of one pool may share one plan, memo and stats.
type Fused struct {
	inst *plan.Instance
}

// NewFused wraps one instance of a compiled plan. memo enables
// stem-activation caching and stats collects the stem batch-size histogram
// (nil disables either; a plan without a stem uses neither).
func NewFused(p *plan.Plan, memo *plan.StemMemo, stats *plan.StemStats) *Fused {
	inst := p.NewInstance()
	inst.SetStemMemo(memo, stats)
	return &Fused{inst: inst}
}

// Compile lowers a trained graph into an execution plan and wraps it as an
// engine; outputs keep the graph's task ids. The graph is not modified;
// folded weights are private copies.
func Compile(g *graph.Graph) *Fused {
	return NewFused(plan.Compile(g), nil, nil)
}

// CompileShared lowers graphs with a common stem into one plan and wraps
// it as an engine whose outputs are keyed by plan task id (see
// plan.Model.TaskMap); see plan.CompileShared for depth semantics and
// failure modes. The graphs are not modified.
func CompileShared(gs []*graph.Graph, depth int, memo *plan.StemMemo, stats *plan.StemStats) (*Fused, error) {
	p, err := plan.CompileShared(gs, depth)
	if err != nil {
		return nil, err
	}
	return NewFused(p, memo, stats), nil
}

// Name implements Engine.
func (f *Fused) Name() string { return "fused" }

// Forward implements Engine.
func (f *Fused) Forward(x *tensor.Tensor) map[int]*tensor.Tensor {
	outs := f.inst.Execute(x)
	owned := make(map[int]*tensor.Tensor, len(outs))
	for task, o := range outs {
		owned[task] = o.Clone()
	}
	return owned
}

// Plan exposes the compiled plan for inspection tooling.
func (f *Fused) Plan() *plan.Plan { return f.inst.Plan() }

// OpStats exposes the instance's cumulative per-op timings.
func (f *Fused) OpStats() []plan.OpStat { return f.inst.OpStats() }

// The one latency measurement: a batch of one sample, the minimum of
// measureRuns timed forwards after measureWarmup untimed ones (see
// internal/timing for why min, not mean).
const (
	measureBatch  = 1
	measureWarmup = 1
	measureRuns   = 5
)

// Measure times an engine on a synthetic batch of one sample of the given
// per-sample shape: Gaussian pixels for image inputs, token id zeros for
// token inputs. The batch is an arena lease — the search measures latency
// for every accepted candidate, so these short-lived batches would
// otherwise be pure GC churn.
func Measure(e Engine, shape graph.Shape) time.Duration {
	x, handle := tensor.GetTensor(append([]int{measureBatch}, shape...)...)
	defer tensor.PutBuf(handle)
	if len(shape) != 1 {
		tensor.NewRNG(1).FillNormal(x, 0, 1)
	}
	return timing.MinOfRuns(measureWarmup, measureRuns, func() { e.Forward(x) })
}

// Latency is a graph's latency as it is served: its compiled plan, timed
// by Measure. Compilation stays outside the timed region.
func Latency(g *graph.Graph) time.Duration {
	return Measure(Compile(g), g.Root.InputShape)
}
