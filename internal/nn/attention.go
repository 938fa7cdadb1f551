package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// MultiHeadAttention is scaled dot-product self-attention over [N, T, D]
// token tensors with H heads.
type MultiHeadAttention struct {
	D, Heads int

	// QKV is the packed Q|K|V projection D -> 3D: output columns [0, D)
	// are the queries, [D, 2D) the keys and [2D, 3D) the values, so one
	// GEMM projects all three and head h reads its band of each at stride
	// 3D. WO projects the concatenated heads back to D.
	QKV, WO *Linear

	// forward cache: the packed projection [N, T, 3D] the backward
	// recomputes the attention probabilities from
	qkv     *tensor.Tensor
	inShape []int
}

// NewMultiHeadAttention constructs self-attention with model dim d and
// heads h (d must be divisible by h). The Q, K, V and output projections
// draw from rng in that order, each as its own D×D Xavier-uniform matrix,
// the first three into their bands of QKV.
func NewMultiHeadAttention(rng *tensor.RNG, d, heads int) *MultiHeadAttention {
	if d%heads != 0 {
		panic(fmt.Sprintf("nn: attention dim %d not divisible by %d heads", d, heads))
	}
	m := &MultiHeadAttention{
		D: d, Heads: heads,
		QKV: &Linear{In: d, Out: 3 * d, Weight: NewParam("weight", d, 3*d), Bias: NewParam("bias", 3*d)},
	}
	w := tensor.New(d, d)
	for band := 0; band < 3; band++ {
		xavier(rng, w, d, d)
		m.PackQKVBand(band, w.Data(), nil)
	}
	m.WO = NewLinear(rng, d, d)
	return m
}

// PackQKVBand copies a D -> D projection's [D, D] weight w and bias b (nil
// leaves the band's bias as it is) into column band i of QKV: 0 for the
// queries, 1 the keys, 2 the values.
func (m *MultiHeadAttention) PackQKVBand(i int, w, b []float32) {
	d := m.D
	wd := m.QKV.Weight.Value.Data()
	for p := 0; p < d; p++ {
		copy(wd[p*3*d+i*d:][:d], w[p*d:][:d])
	}
	copy(m.QKV.Bias.Value.Data()[i*d:][:d], b)
}

// Forward implements Layer.
func (m *MultiHeadAttention) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 3 || x.Dim(2) != m.D {
		panic(fmt.Sprintf("nn: MultiHeadAttention(%d) got input %v", m.D, x.Shape()))
	}
	n, t := x.Dim(0), x.Dim(1)
	m.inShape = append([]int(nil), x.Shape()...)
	m.qkv = m.QKV.Forward(x, train)

	ctx := tensor.New(n, t, m.D)
	bq, bk := tensor.AttendTiles(t)
	ws := tensor.GetBufDirty(n * m.Heads * tensor.AttendWorkspace(bq, bk))
	qkv, cd := m.qkv.Data(), ctx.Data()
	tensor.ParallelFor(n*m.Heads, t*t*(m.D/m.Heads), func(lo, hi int) {
		tensor.FlashAttendUnits(cd, qkv, *ws, t, m.D, m.Heads, bq, bk, lo, hi)
	})
	tensor.PutBuf(ws)
	return m.WO.Forward(ctx, train)
}

// Backward implements Layer.
func (m *MultiHeadAttention) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	n, t := m.inShape[0], m.inShape[1]
	gCtx := m.WO.Backward(gradOut) // [N,T,D]
	gQKV := tensor.New(n, t, 3*m.D)
	ws := tensor.GetBufDirty(n * m.Heads * tensor.AttendBackwardWorkspace(t))
	g, gc, qkv := gQKV.Data(), gCtx.Data(), m.qkv.Data()
	tensor.ParallelFor(n*m.Heads, t*t*(m.D/m.Heads), func(lo, hi int) {
		tensor.AttendBackwardUnits(g, gc, qkv, *ws, t, m.D, m.Heads, lo, hi)
	})
	tensor.PutBuf(ws)
	m.qkv = nil
	return m.QKV.Backward(gQKV)
}

// Params implements Layer.
func (m *MultiHeadAttention) Params() []*Param {
	return append(m.QKV.Params(), m.WO.Params()...)
}

// OutShape implements Layer.
func (m *MultiHeadAttention) OutShape(in []int) []int { return append([]int(nil), in...) }

// FLOPs implements Layer.
func (m *MultiHeadAttention) FLOPs(in []int) int64 {
	t := int64(in[0])
	d := int64(m.D)
	return 8*t*d*d + 4*t*t*d
}

// Clone implements Layer.
func (m *MultiHeadAttention) Clone() Layer {
	return &MultiHeadAttention{
		D: m.D, Heads: m.Heads,
		QKV: m.QKV.Clone().(*Linear), WO: m.WO.Clone().(*Linear),
	}
}

// Name implements Layer.
func (m *MultiHeadAttention) Name() string {
	return fmt.Sprintf("MultiHeadAttention(d%d,h%d)", m.D, m.Heads)
}

// TransformerBlock is a pre-norm encoder block:
// x + MHA(LN(x)) followed by x + MLP(LN(x)).
type TransformerBlock struct {
	D, Heads, MLPDim int

	LN1, LN2 *LayerNorm
	Attn     *MultiHeadAttention
	FC1, FC2 *Linear
	Act      *GELU

	// forward caches for the two residual additions
	x1 *tensor.Tensor
}

// NewTransformerBlock constructs a block with model dim d, h heads, and an
// MLP hidden dim.
func NewTransformerBlock(rng *tensor.RNG, d, heads, mlpDim int) *TransformerBlock {
	return &TransformerBlock{
		D: d, Heads: heads, MLPDim: mlpDim,
		LN1: NewLayerNorm(d), LN2: NewLayerNorm(d),
		Attn: NewMultiHeadAttention(rng, d, heads),
		FC1:  NewLinear(rng, d, mlpDim), FC2: NewLinear(rng, mlpDim, d),
		Act: NewGELU(),
	}
}

// Forward implements Layer.
func (b *TransformerBlock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	a := b.Attn.Forward(b.LN1.Forward(x, train), train)
	x1 := tensor.Add(x, a)
	b.x1 = x1
	h := b.FC2.Forward(b.Act.Forward(b.FC1.Forward(b.LN2.Forward(x1, train), train), train), train)
	return tensor.Add(x1, h)
}

// Backward implements Layer.
func (b *TransformerBlock) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	gMLP := b.LN2.Backward(b.FC1.Backward(b.Act.Backward(b.FC2.Backward(gradOut))))
	gx1 := tensor.Add(gradOut, gMLP)
	gAttn := b.LN1.Backward(b.Attn.Backward(gx1))
	b.x1 = nil
	return tensor.Add(gx1, gAttn)
}

// Params implements Layer.
func (b *TransformerBlock) Params() []*Param {
	var ps []*Param
	ps = append(ps, b.LN1.Params()...)
	ps = append(ps, b.Attn.Params()...)
	ps = append(ps, b.LN2.Params()...)
	ps = append(ps, b.FC1.Params()...)
	ps = append(ps, b.FC2.Params()...)
	return ps
}

// OutShape implements Layer.
func (b *TransformerBlock) OutShape(in []int) []int { return append([]int(nil), in...) }

// FLOPs implements Layer.
func (b *TransformerBlock) FLOPs(in []int) int64 {
	t := int64(in[0])
	return b.Attn.FLOPs(in) + 4*t*int64(b.D)*int64(b.MLPDim) + b.LN1.FLOPs(in)*2
}

// Clone implements Layer.
func (b *TransformerBlock) Clone() Layer {
	return &TransformerBlock{
		D: b.D, Heads: b.Heads, MLPDim: b.MLPDim,
		LN1: b.LN1.Clone().(*LayerNorm), LN2: b.LN2.Clone().(*LayerNorm),
		Attn: b.Attn.Clone().(*MultiHeadAttention),
		FC1:  b.FC1.Clone().(*Linear), FC2: b.FC2.Clone().(*Linear),
		Act: NewGELU(),
	}
}

// Name implements Layer.
func (b *TransformerBlock) Name() string {
	return fmt.Sprintf("TransformerBlock(d%d,h%d,mlp%d)", b.D, b.Heads, b.MLPDim)
}

// PatchEmbed converts an image [N,C,H,W] into patch tokens [N, T, D] with a
// learned linear projection of flattened P×P patches plus a learned
// positional embedding. It is the ViT stem.
type PatchEmbed struct {
	C, Patch, D int
	Proj        *Linear // its weight and bias; PatchEmbed runs the projection itself
	Pos         *Param  // [T, D], lazily sized on first forward

	inShape []int
	tokens  int
	cols    *tensor.Tensor // cached channel-major patch columns [C*P*P, N*T]
}

// NewPatchEmbed builds a patch embedding for inC channels, patch size p,
// and model dim d. numTokens fixes the positional table size.
func NewPatchEmbed(rng *tensor.RNG, inC, patch, d, numTokens int) *PatchEmbed {
	pe := &PatchEmbed{
		C: inC, Patch: patch, D: d,
		Proj: NewLinear(rng, inC*patch*patch, d),
		Pos:  NewParam("pos", numTokens, d),
	}
	rng.FillNormal(pe.Pos.Value, 0, 0.02)
	return pe
}

// Forward implements Layer.
func (pe *PatchEmbed) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	if c != pe.C || h%pe.Patch != 0 || w%pe.Patch != 0 {
		panic(fmt.Sprintf("nn: PatchEmbed(c%d,p%d) got input %v", pe.C, pe.Patch, x.Shape()))
	}
	pe.inShape = append([]int(nil), x.Shape()...)
	ph, pw := h/pe.Patch, w/pe.Patch
	t := ph * pw
	pe.tokens = t
	if t != pe.Pos.Value.Dim(0) {
		panic(fmt.Sprintf("nn: PatchEmbed expects %d tokens, input yields %d", pe.Pos.Value.Dim(0), t))
	}
	cols := tensor.New(c*pe.Patch*pe.Patch, n*t)
	out := tensor.New(n, t, pe.D)
	tensor.PatchEmbedInto(out.Reshape(n*t, pe.D), cols, x, pe.Proj.Weight.Value, pe.Proj.Bias.Value.Data(), pe.Pos.Value.Data(), pe.Patch)
	pe.cols = cols
	return out
}

// Backward implements Layer.
func (pe *PatchEmbed) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	n, t := pe.inShape[0], pe.tokens
	g := gradOut.Reshape(n*t, pe.D)
	gd, pg, bg := g.Data(), pe.Pos.Grad().Data(), pe.Proj.Bias.Grad().Data()
	for r := 0; r < n*t; r++ {
		row, prow := gd[r*pe.D:][:pe.D], pg[r%t*pe.D:][:pe.D]
		for j, v := range row {
			prow[j] += v
			bg[j] += v
		}
	}
	// dW += cols · g; dcols = W · gᵀ, folded back onto the image.
	dw := tensor.New(pe.Proj.In, pe.D)
	tensor.MatMulInto(dw, pe.cols, g)
	pe.Proj.Weight.Grad().AddScaled(1, dw)
	gCols := tensor.New(pe.cols.Shape()...)
	tensor.MatMulTransBInto(gCols, pe.Proj.Weight.Value, g)
	pe.cols = nil
	gi := tensor.New(pe.inShape...)
	tensor.Col2ImCMInto(gi, gCols, pe.Patch, pe.Patch, pe.Patch, 0)
	return gi
}

// Params implements Layer.
func (pe *PatchEmbed) Params() []*Param {
	return append(pe.Proj.Params(), pe.Pos)
}

// OutShape implements Layer.
func (pe *PatchEmbed) OutShape(in []int) []int {
	return []int{(in[1] / pe.Patch) * (in[2] / pe.Patch), pe.D}
}

// FLOPs implements Layer.
func (pe *PatchEmbed) FLOPs(in []int) int64 {
	t := int64((in[1] / pe.Patch) * (in[2] / pe.Patch))
	return 2 * t * int64(pe.C*pe.Patch*pe.Patch) * int64(pe.D)
}

// Clone implements Layer.
func (pe *PatchEmbed) Clone() Layer {
	return &PatchEmbed{C: pe.C, Patch: pe.Patch, D: pe.D, Proj: pe.Proj.Clone().(*Linear), Pos: pe.Pos.Clone()}
}

// Name implements Layer.
func (pe *PatchEmbed) Name() string { return fmt.Sprintf("PatchEmbed(p%d,d%d)", pe.Patch, pe.D) }

// Embedding maps integer token ids, provided as a [N, T] tensor of float32
// holding integral values, to [N, T, D] vectors plus positional embeddings.
// It is the BERT stem.
type Embedding struct {
	Vocab, D, T int
	Table       *Param // [Vocab, D]
	Pos         *Param // [T, D]

	ids *tensor.Tensor // the forward's [N, T] token ids
}

// NewEmbedding builds an embedding with the given vocabulary size, model
// dim, and sequence length.
func NewEmbedding(rng *tensor.RNG, vocab, d, t int) *Embedding {
	e := &Embedding{Vocab: vocab, D: d, T: t, Table: NewParam("table", vocab, d), Pos: NewParam("pos", t, d)}
	rng.FillNormal(e.Table.Value, 0, 0.05)
	rng.FillNormal(e.Pos.Value, 0, 0.02)
	return e
}

// Forward implements Layer.
func (e *Embedding) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 2 || x.Dim(1) != e.T {
		panic(fmt.Sprintf("nn: Embedding(T=%d) got input %v", e.T, x.Shape()))
	}
	out := tensor.New(x.Dim(0), e.T, e.D)
	tensor.EmbedRows(out.Data(), x.Data(), e.Table.Value.Data(), e.Pos.Value.Data(), e.D, e.T)
	e.ids = x
	return out
}

// Backward implements Layer.
func (e *Embedding) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	gd, tg, pg := gradOut.Data(), e.Table.Grad().Data(), e.Pos.Grad().Data()
	for i, x := range e.ids.Data() {
		id := int(x)
		src := gd[i*e.D : (i+1)*e.D]
		dst := tg[id*e.D : (id+1)*e.D]
		pos := pg[(i%e.T)*e.D : (i%e.T+1)*e.D]
		for p := 0; p < e.D; p++ {
			dst[p] += src[p]
			pos[p] += src[p]
		}
	}
	// Token ids are not differentiable; return a zero grad of input shape.
	return tensor.New(e.ids.Shape()...)
}

// Params implements Layer.
func (e *Embedding) Params() []*Param { return []*Param{e.Table, e.Pos} }

// OutShape implements Layer.
func (e *Embedding) OutShape(in []int) []int { return []int{e.T, e.D} }

// FLOPs implements Layer.
func (e *Embedding) FLOPs(in []int) int64 { return int64(e.T) * int64(e.D) }

// Clone implements Layer.
func (e *Embedding) Clone() Layer {
	return &Embedding{Vocab: e.Vocab, D: e.D, T: e.T, Table: e.Table.Clone(), Pos: e.Pos.Clone()}
}

// Name implements Layer.
func (e *Embedding) Name() string { return fmt.Sprintf("Embedding(v%d,d%d,t%d)", e.Vocab, e.D, e.T) }

// TokenMeanPool averages token vectors: [N, T, D] -> [N, D].
type TokenMeanPool struct {
	t int
}

// NewTokenMeanPool builds the pooling layer.
func NewTokenMeanPool() *TokenMeanPool { return &TokenMeanPool{} }

// Forward implements Layer.
func (tp *TokenMeanPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	n, t, d := x.Dim(0), x.Dim(1), x.Dim(2)
	tp.t = t
	out := tensor.New(n, d)
	tensor.TokenMeanRows(out.Data(), x.Data(), t, d)
	return out
}

// Backward implements Layer.
func (tp *TokenMeanPool) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	n, d := gradOut.Dim(0), gradOut.Dim(1)
	gi := tensor.New(n, tp.t, d)
	gd, god := gi.Data(), gradOut.Data()
	inv := 1 / float32(tp.t)
	for ni := 0; ni < n; ni++ {
		src := god[ni*d : (ni+1)*d]
		for ti := 0; ti < tp.t; ti++ {
			dst := gd[(ni*tp.t+ti)*d : (ni*tp.t+ti+1)*d]
			for p := 0; p < d; p++ {
				dst[p] = src[p] * inv
			}
		}
	}
	return gi
}

// Params implements Layer.
func (tp *TokenMeanPool) Params() []*Param { return nil }

// OutShape implements Layer.
func (tp *TokenMeanPool) OutShape(in []int) []int { return []int{in[1]} }

// FLOPs implements Layer.
func (tp *TokenMeanPool) FLOPs(in []int) int64 { return prod(in) }

// Clone implements Layer.
func (tp *TokenMeanPool) Clone() Layer { return &TokenMeanPool{} }

// Name implements Layer.
func (tp *TokenMeanPool) Name() string { return "TokenMeanPool" }
