package parser

import (
	"bufio"
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/nn"
)

// Quantization payloads (format versions 3 and 4).
//
// Every layer's parameters are followed by one optional Quant8 block per
// Conv2d or Linear part (quantParts): a presence flag, then Rows, K,
// InScale, the per-channel WScale, the folded Bias, and the raw int8
// weights. Scales and biases are written as exact f32 bit patterns and
// weights as raw bytes, outside the tensor encoding, so a quantized model
// round-trips bit-exactly. Version 3 wrote the block only for a bare
// Conv2d or Linear.
//
// After the node tree, the graph-level QuantNote records the accuracy
// budget and the per-task metrics measured before and after quantization.

// quantParts lists the Conv2d and Linear parts of l whose annotations
// follow its parameters, in stream order: the layer itself for a Conv2d or
// Linear, the projections the plan lowers as convs or linears for an
// attention, a transformer block or an adapter. Layers a container encodes
// as sublayers of their own (ConvBlock, ResidualBlock, Sequential) are not
// parts. Any other layer is its own only part and, having no annotation
// slot, writes none; PatchEmbed's Proj only holds the patch op's weights.
func quantParts(l nn.Layer) []nn.Layer {
	switch v := l.(type) {
	case *nn.MultiHeadAttention:
		return []nn.Layer{v.QKV, v.WO}
	case *nn.TransformerBlock:
		return []nn.Layer{v.Attn.QKV, v.Attn.WO, v.FC1, v.FC2}
	case *nn.Rescale2D:
		if v.Proj != nil {
			return []nn.Layer{v.Proj}
		}
		return nil
	case *nn.RescaleTokens:
		if v.Proj != nil {
			return []nn.Layer{v.Proj}
		}
		return nil
	}
	return []nn.Layer{l}
}

// writeQuant8 appends a layer's quantization annotation.
func writeQuant8(w *bufio.Writer, q *nn.Quant8) {
	if q == nil {
		writeU32(w, 0)
		return
	}
	writeU32(w, 1)
	writeI32(w, int32(q.Rows))
	writeI32(w, int32(q.K))
	writeU32(w, math.Float32bits(q.InScale))
	for _, s := range q.WScale {
		writeU32(w, math.Float32bits(s))
	}
	writeU32(w, uint32(len(q.Bias)))
	for _, b := range q.Bias {
		writeU32(w, math.Float32bits(b))
	}
	raw := make([]byte, len(q.W))
	for i, v := range q.W {
		raw[i] = byte(v)
	}
	w.Write(raw)
}

// quant8 reads one optional quantization block. Pre-v3 streams have no
// block; absence decodes to nil.
func (r *reader) quant8() *nn.Quant8 {
	if r.ver < 3 || r.err != nil {
		return nil
	}
	if r.u32() == 0 {
		return nil
	}
	rows, k := r.dim(), r.dim()
	n := mulDims(rows, k)
	// Weights cost 1 byte each and scales 4 per row, all still unread.
	if r.err == nil && (n > len(r.buf)-r.off || rows > (len(r.buf)-r.off)/4) {
		r.err = fmt.Errorf("quant block %dx%d exceeds %d remaining bytes", rows, k, len(r.buf)-r.off)
	}
	if r.err != nil {
		return nil
	}
	q := &nn.Quant8{
		Rows: rows, K: k,
		InScale: math.Float32frombits(r.u32()),
		WScale:  make([]float32, rows),
	}
	for i := range q.WScale {
		q.WScale[i] = math.Float32frombits(r.u32())
	}
	nb := r.count(4)
	q.Bias = make([]float32, nb)
	for i := range q.Bias {
		q.Bias[i] = math.Float32frombits(r.u32())
	}
	raw := r.bytes(n)
	if r.err != nil {
		return nil
	}
	q.W = make([]int8, n)
	for i, b := range raw {
		q.W[i] = int8(b)
	}
	return q
}

// writeQuantNote appends the graph-level quantization summary.
func writeQuantNote(w *bufio.Writer, q *graph.QuantNote) {
	if q == nil {
		writeU32(w, 0)
		return
	}
	writeU32(w, 1)
	writeU64(w, math.Float64bits(q.Budget))
	writeMetricMap(w, q.Baseline)
	writeMetricMap(w, q.Quantized)
}

func writeMetricMap(w *bufio.Writer, m map[int]float64) {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	writeU32(w, uint32(len(ids)))
	for _, id := range ids {
		writeI32(w, int32(id))
		writeU64(w, math.Float64bits(m[id]))
	}
}

func readQuantNote(r *reader) *graph.QuantNote {
	if r.err != nil || r.u32() == 0 {
		return nil
	}
	q := &graph.QuantNote{Budget: math.Float64frombits(r.u64())}
	q.Baseline = readMetricMap(r)
	q.Quantized = readMetricMap(r)
	if r.err != nil {
		return nil
	}
	return q
}

func readMetricMap(r *reader) map[int]float64 {
	n := r.count(12) // id + f64 per entry
	m := make(map[int]float64, n)
	for i := 0; i < n; i++ {
		id := int(r.i32())
		m[id] = math.Float64frombits(r.u64())
	}
	return m
}
