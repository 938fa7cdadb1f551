package plan

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Transformer lowering. A TransformerBlock becomes seven planned ops:
//
//	ln -> linear(QKV) -> attn -> linear(WO) -> addln ->
//	linear(FC1)+gelu -> linear(FC2)+residual
//
// Each op's math is the tensor function nn's layer calls too (GELURow,
// LayerNormRow, FlashAttendUnits at AttendTiles, EmbedRows,
// PatchEmbedInto), so the plan differs from the eager walk only in two
// fusions: the first residual join fuses with the second layer norm into
// one dual-output op (kind "addln") that publishes both the residual sum
// x1 (Out2) and LN2(x1) (Out, feeding the MLP), and the FFN's GELU and
// closing residual add (x1, read through In2) run in the row epilogues of
// FC1 and FC2. The attention (kind "attn") reads its heads straight out of
// the packed QKV projection and works in a planned workspace slab. The
// ViT/BERT stems lower to "patch" and "embed" ops, so whole transformer
// graphs execute with zero steady-state allocations like the CNN families.

// lowerLayerNorm emits a standalone layer norm op (op-granularity graphs;
// block-granularity norms fuse into their transformer block's addln).
func (c *compiler) lowerLayerNorm(name string, l *nn.LayerNorm, inVal int) int {
	out := c.newValue(c.val(inVal).Shape, false, -1)
	return c.addOp(&Op{
		Name: name, Kind: "ln", In: inVal, In2: -1, Out: out,
		spec: &lnSpec{d: l.D, eps: l.Eps, gamma: cloneF32(l.Gamma.Value.Data()), beta: cloneF32(l.Beta.Value.Data())},
	})
}

// lowerAttention emits multi-head attention, standalone or as a
// TransformerBlock's first half: the packed QKV projection and the output
// projection WO through the shared linear lowering (so each picks up its
// int8 annotation and records its quant target like any linear), with the
// tiled attention between them.
func (c *compiler) lowerAttention(name string, m *nn.MultiHeadAttention, inVal int) int {
	in := c.val(inVal)
	t, d := in.Shape[0], m.D
	qkv := c.lowerLinear(fmt.Sprintf("%s qkv(%d->%d)", name, d, 3*d), m.QKV, inVal, false, -1)
	bq, bk := tensor.AttendTiles(t)
	ws := c.newValue([]int{m.Heads * tensor.AttendWorkspace(bq, bk)}, false, -1)
	ctx := c.newValue([]int{t, d}, false, -1)
	c.addOp(&Op{
		Name: fmt.Sprintf("%s attn(h%d,%dx%d)", name, m.Heads, bq, bk),
		Kind: "attn", In: qkv, In2: -1, Out: ctx, Scratch: []int{ws},
		spec: &attnSpec{heads: m.Heads, t: t, d: d, bq: bq, bk: bk, ws: ws},
	})
	return c.lowerLinear(name+" proj "+m.WO.Name(), m.WO, ctx, false, -1)
}

// lowerTransformer emits the pre-norm encoder block. The first residual add
// fuses with LN2 into the dual-output addln op; FC1/FC2/WO ride the shared
// linear lowering, so they pick up int8 annotations and record quant targets
// exactly like CNN classifier layers, and FC1's epilogue applies the GELU
// and FC2's adds the residual x1.
func (c *compiler) lowerTransformer(name string, b *nn.TransformerBlock, inVal int) int {
	in := c.val(inVal)
	ln1 := c.lowerLayerNorm(name+" ln1", b.LN1, inVal)
	proj := c.lowerAttention(name, b.Attn, ln1)
	// addln: Out = LN2(x + proj), Out2 = x + proj (read again by the final
	// residual add, after the MLP).
	normed := c.newValue(in.Shape, false, -1)
	x1 := c.newValue(in.Shape, false, -1)
	c.addOp(&Op{
		Name: name + " add+ln2", Kind: "addln", In: inVal, In2: proj, Out: normed, Out2: x1,
		spec: &addLNSpec{d: b.D, eps: b.LN2.Eps, gamma: cloneF32(b.LN2.Gamma.Value.Data()), beta: cloneF32(b.LN2.Beta.Value.Data())},
	})
	g := c.lowerLinear(name+" fc1 "+b.FC1.Name()+"+gelu", b.FC1, normed, true, -1)
	return c.lowerLinear(name+" fc2 "+b.FC2.Name()+"+residual", b.FC2, g, false, x1)
}

// lowerPatchEmbed emits the ViT stem as one op: a strided channel-major
// unfold writes the patches into the cols2d scratch, one Aᵀ·B GEMM projects
// them, and the epilogue adds bias and the positional embedding per token
// row.
func (c *compiler) lowerPatchEmbed(name string, pe *nn.PatchEmbed, inVal int) int {
	in := c.val(inVal)
	t := (in.Shape[1] / pe.Patch) * (in.Shape[2] / pe.Patch)
	kdim := pe.C * pe.Patch * pe.Patch
	cols := c.newValue([]int{kdim, t}, true, -1)
	out := c.newValue([]int{t, pe.D}, false, -1)
	return c.addOp(&Op{
		Name: name, Kind: "patch", In: inVal, In2: -1, Out: out, Scratch: []int{cols},
		spec: &patchSpec{
			patch: pe.Patch, d: pe.D, t: t,
			w:    pe.Proj.Weight.Value.Clone(),
			bias: cloneF32(pe.Proj.Bias.Value.Data()),
			pos:  cloneF32(pe.Pos.Value.Data()),
			cols: cols,
		},
	})
}

// lowerEmbedding emits the BERT stem: a table gather plus positional add.
func (c *compiler) lowerEmbedding(name string, e *nn.Embedding, inVal int) int {
	out := c.newValue([]int{e.T, e.D}, false, -1)
	return c.addOp(&Op{
		Name: name, Kind: "embed", In: inVal, In2: -1, Out: out,
		spec: &embedSpec{
			d: e.D, t: e.T,
			table: cloneF32(e.Table.Value.Data()),
			pos:   cloneF32(e.Pos.Value.Data()),
		},
	})
}

func cloneF32(s []float32) []float32 { return append([]float32(nil), s...) }

// ---- transformer kernel specs ----

// lnSpec is a standalone layer norm over the last dimension.
type lnSpec struct {
	d           int
	eps         float32
	gamma, beta []float32
}

func (s *lnSpec) build(inst *Instance, o *Op) func() {
	in, out := o.In, o.Out
	body := func(lo, hi int) {
		xd := inst.regs[in].Data()
		dd := inst.regs[out].Data()
		for r := lo; r < hi; r++ {
			tensor.LayerNormRow(dd[r*s.d:][:s.d], nil, xd[r*s.d:][:s.d], s.gamma, s.beta, s.eps)
		}
	}
	return func() { tensor.ParallelFor(inst.regs[out].Size()/s.d, s.d, body) }
}

// addLNSpec fuses the residual join with the following layer norm: it
// publishes the sum In+In2 through Out2 and its layer norm through Out, one
// pass over each row instead of two ops and an extra value.
type addLNSpec struct {
	d           int
	eps         float32
	gamma, beta []float32
}

func (s *addLNSpec) build(inst *Instance, o *Op) func() {
	a, b, out, sum := o.In, o.In2, o.Out, o.Out2
	body := func(lo, hi int) {
		ad := inst.regs[a].Data()
		bd := inst.regs[b].Data()
		sd := inst.regs[sum].Data()
		dd := inst.regs[out].Data()
		for r := lo; r < hi; r++ {
			srow := sd[r*s.d:][:s.d]
			arow := ad[r*s.d:][:s.d]
			brow := bd[r*s.d:][:s.d]
			for i := range srow {
				srow[i] = arow[i] + brow[i]
			}
			tensor.LayerNormRow(dd[r*s.d:][:s.d], nil, srow, s.gamma, s.beta, s.eps)
		}
	}
	return func() { tensor.ParallelFor(inst.regs[out].Size()/s.d, s.d, body) }
}

// attnSpec runs tiled flash attention over the packed [T, 3D] QKV
// projection through tensor.FlashAttendUnits: each (sample, head) unit
// reads its head's bands at stride 3D, writes its band of the [T, D]
// context and owns a disjoint slice of the planned workspace slab, so the
// units parallelize freely.
type attnSpec struct {
	heads, t, d int
	bq, bk      int
	ws          int // workspace scratch value id
}

func (s *attnSpec) build(inst *Instance, o *Op) func() {
	in, out := o.In, o.Out
	body := func(lo, hi int) {
		tensor.FlashAttendUnits(inst.regs[out].Data(), inst.regs[in].Data(), inst.regs[s.ws].Data(),
			s.t, s.d, s.heads, s.bq, s.bk, lo, hi)
	}
	return func() { tensor.ParallelFor(inst.batch*s.heads, s.t*s.t*(s.d/s.heads), body) }
}

// patchSpec is the ViT stem, tensor.PatchEmbedInto over the cols2d
// scratch. The 2-D output view is rebuilt only on batch rebinds.
type patchSpec struct {
	patch, d, t int
	w           *tensor.Tensor // [C*P*P, D], plan-owned copy
	bias, pos   []float32
	cols        int // cols2d scratch value id, [C*P*P, T] per sample
}

func (s *patchSpec) build(inst *Instance, o *Op) func() {
	in, out := o.In, o.Out
	var y2d *tensor.Tensor
	bound := -1
	return func() {
		if bound != inst.batch {
			y2d = tensor.FromSlice(inst.regs[out].Data(), inst.batch*s.t, s.d)
			bound = inst.batch
		}
		tensor.PatchEmbedInto(y2d, inst.regs[s.cols], inst.regs[in], s.w, s.bias, s.pos, s.patch)
	}
}

// embedSpec is the BERT stem, tensor.EmbedRows. It runs on the Execute
// goroutine (not the worker pool) so an out-of-vocab panic surfaces to the
// caller exactly like nn.Embedding.Forward's.
type embedSpec struct {
	d, t       int
	table, pos []float32
}

func (s *embedSpec) build(inst *Instance, o *Op) func() {
	in, out := o.In, o.Out
	return func() {
		tensor.EmbedRows(inst.regs[out].Data(), inst.regs[in].Data(), s.table, s.pos, s.d, s.t)
	}
}
