package parser

import (
	"fmt"
	"io"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Layer type tags used in the checkpoint stream.
const (
	tagConv2d      = "Conv2d"
	tagLinear      = "Linear"
	tagReLU        = "ReLU"
	tagGELU        = "GELU"
	tagBatchNorm   = "BatchNorm2d"
	tagLayerNorm   = "LayerNorm"
	tagMaxPool     = "MaxPool2d"
	tagGlobalAvg   = "GlobalAvgPool"
	tagFlatten     = "Flatten"
	tagMHA         = "MultiHeadAttention"
	tagTransformer = "TransformerBlock"
	tagPatchEmbed  = "PatchEmbed"
	tagEmbedding   = "Embedding"
	tagTokenPool   = "TokenMeanPool"
	tagRescale2D   = "Rescale2D"
	tagRescaleTok  = "RescaleTokens"
	tagConvBlock   = "ConvBlock"
	tagResidual    = "ResidualBlock"
	tagSequential  = "Sequential"
)

// encodeLayer writes a tagged, self-describing encoding of the layer.
func encodeLayer(w io.Writer, l nn.Layer) error {
	switch v := l.(type) {
	case *nn.Conv2d:
		writeString(w, tagConv2d)
		for _, d := range []int{v.InC, v.OutC, v.Kernel, v.Stride, v.Pad} {
			writeI32(w, int32(d))
		}
		writeParams(w, v)
	case *nn.Linear:
		writeString(w, tagLinear)
		writeI32(w, int32(v.In))
		writeI32(w, int32(v.Out))
		writeParams(w, v)
	case *nn.ReLU:
		writeString(w, tagReLU)
	case *nn.GELU:
		writeString(w, tagGELU)
	case *nn.BatchNorm2d:
		writeString(w, tagBatchNorm)
		writeI32(w, int32(v.C))
		writeParams(w, v)
		writeTensor(w, v.RunningMean)
		writeTensor(w, v.RunningVar)
	case *nn.LayerNorm:
		writeString(w, tagLayerNorm)
		writeI32(w, int32(v.D))
		writeParams(w, v)
	case *nn.MaxPool2d:
		writeString(w, tagMaxPool)
		writeI32(w, int32(v.Kernel))
		writeI32(w, int32(v.Stride))
	case *nn.GlobalAvgPool:
		writeString(w, tagGlobalAvg)
	case *nn.Flatten:
		writeString(w, tagFlatten)
	case *nn.MultiHeadAttention:
		writeString(w, tagMHA)
		writeI32(w, int32(v.D))
		writeI32(w, int32(v.Heads))
		writeParams(w, v)
	case *nn.TransformerBlock:
		writeString(w, tagTransformer)
		for _, d := range []int{v.D, v.Heads, v.MLPDim} {
			writeI32(w, int32(d))
		}
		writeParams(w, v)
	case *nn.PatchEmbed:
		writeString(w, tagPatchEmbed)
		for _, d := range []int{v.C, v.Patch, v.D, v.Pos.Value.Dim(0)} {
			writeI32(w, int32(d))
		}
		writeParams(w, v)
	case *nn.Embedding:
		writeString(w, tagEmbedding)
		for _, d := range []int{v.Vocab, v.D, v.T} {
			writeI32(w, int32(d))
		}
		writeParams(w, v)
	case *nn.TokenMeanPool:
		writeString(w, tagTokenPool)
	case *nn.Rescale2D:
		writeString(w, tagRescale2D)
		for _, d := range []int{v.InC, v.OutC, v.OutH, v.OutW} {
			writeI32(w, int32(d))
		}
		writeParams(w, v)
	case *nn.RescaleTokens:
		writeString(w, tagRescaleTok)
		for _, d := range []int{v.InT, v.InD, v.OutT, v.OutD} {
			writeI32(w, int32(d))
		}
		writeParams(w, v)
	case *nn.ConvBlock:
		writeString(w, tagConvBlock)
		hasBN, hasPool := int32(0), int32(0)
		if v.BN != nil {
			hasBN = 1
		}
		if v.Pool != nil {
			hasPool = 1
		}
		writeI32(w, hasBN)
		writeI32(w, hasPool)
		if err := encodeLayer(w, v.Conv); err != nil {
			return err
		}
		if v.BN != nil {
			if err := encodeLayer(w, v.BN); err != nil {
				return err
			}
		}
		if v.Pool != nil {
			if err := encodeLayer(w, v.Pool); err != nil {
				return err
			}
		}
	case *nn.ResidualBlock:
		writeString(w, tagResidual)
		hasDown := int32(0)
		if v.Down != nil {
			hasDown = 1
		}
		writeI32(w, hasDown)
		subs := []nn.Layer{v.Conv1, v.BN1, v.Conv2, v.BN2}
		if v.Down != nil {
			subs = append(subs, v.Down, v.DownBN)
		}
		for _, s := range subs {
			if err := encodeLayer(w, s); err != nil {
				return err
			}
		}
	case *nn.Sequential:
		writeString(w, tagSequential)
		writeString(w, v.ID)
		writeU32(w, uint32(len(v.Layers)))
		for _, s := range v.Layers {
			if err := encodeLayer(w, s); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("parser: cannot encode layer %T", l)
	}
	return nil
}

// as checks that a decoded sub-layer has the kind its container expects.
// A corrupt stream that survives the CRC must fail with an error here, not
// a type-assertion panic.
func as[T nn.Layer](l nn.Layer, what string) (T, error) {
	v, ok := l.(T)
	if !ok {
		return v, fmt.Errorf("parser: %s decoded as %T, not the expected layer kind", what, l)
	}
	return v, nil
}

// dimPos reads a dimension that must be at least 1 (strides, pooling
// kernels, attention head counts — values a later shape computation
// divides by).
func (r *reader) dimPos() int {
	v := r.dim()
	if r.err == nil && v < 1 {
		r.err = fmt.Errorf("layer dimension must be positive, got %d", v)
	}
	if r.err != nil {
		return 1
	}
	return v
}

// decodeLayer reads one tagged layer. An empty tag decodes to nil (the
// input root has no layer). Dimensions are validated against the remaining
// buffer (via dim/dimPos/elems) before they reach a constructor, so a
// corrupt stream cannot trigger huge allocations or divide-by-zero panics.
func decodeLayer(r *reader) (nn.Layer, error) {
	tag := r.str()
	if r.err != nil {
		return nil, r.err
	}
	// Fresh layers are constructed with a throwaway RNG; weights are then
	// overwritten from the stream.
	rng := tensor.NewRNG(1)
	switch tag {
	case "":
		return nil, nil
	case tagConv2d:
		inC, outC, k, s, p := r.dim(), r.dim(), r.dim(), r.dimPos(), r.dim()
		if !r.elems(mulDims(outC, inC, k, k)) {
			return nil, r.err
		}
		l := nn.NewConv2d(rng, inC, outC, k, s, p)
		return l, r.readParams(l)
	case tagLinear:
		in, out := r.dim(), r.dim()
		if !r.elems(mulDims(in, out)) {
			return nil, r.err
		}
		l := nn.NewLinear(rng, in, out)
		return l, r.readParams(l)
	case tagReLU:
		return nn.NewReLU(), nil
	case tagGELU:
		return nn.NewGELU(), nil
	case tagBatchNorm:
		c := r.dim()
		if !r.elems(c) {
			return nil, r.err
		}
		l := nn.NewBatchNorm2d(c)
		if err := r.readParams(l); err != nil {
			return nil, err
		}
		rm, rv := r.tensor(), r.tensor()
		if r.err != nil {
			return nil, r.err
		}
		if rm.Size() != c || rv.Size() != c {
			return nil, fmt.Errorf("parser: batchnorm running stats size %d/%d, want %d", rm.Size(), rv.Size(), c)
		}
		l.RunningMean.CopyFrom(rm)
		l.RunningVar.CopyFrom(rv)
		return l, nil
	case tagLayerNorm:
		d := r.dim()
		if !r.elems(d) {
			return nil, r.err
		}
		l := nn.NewLayerNorm(d)
		return l, r.readParams(l)
	case tagMaxPool:
		k, s := r.dimPos(), r.dimPos()
		if r.err != nil {
			return nil, r.err
		}
		return nn.NewMaxPool2d(k, s), nil
	case tagGlobalAvg:
		return nn.NewGlobalAvgPool(), nil
	case tagFlatten:
		return nn.NewFlatten(), nil
	case tagMHA:
		d, h := r.dim(), r.dimPos()
		if r.err == nil && d%h != 0 {
			r.err = fmt.Errorf("attention dim %d not divisible by %d heads", d, h)
		}
		if !r.elems(mulDims(d, d)) {
			return nil, r.err
		}
		l := nn.NewMultiHeadAttention(rng, d, h)
		return l, r.readParams(l)
	case tagTransformer:
		d, h, mlp := r.dim(), r.dimPos(), r.dim()
		if r.err == nil && d%h != 0 {
			r.err = fmt.Errorf("attention dim %d not divisible by %d heads", d, h)
		}
		if !r.elems(mulDims(d, d)) || !r.elems(mulDims(d, mlp)) {
			return nil, r.err
		}
		l := nn.NewTransformerBlock(rng, d, h, mlp)
		return l, r.readParams(l)
	case tagPatchEmbed:
		c, p, d, tks := r.dim(), r.dimPos(), r.dim(), r.dim()
		if !r.elems(mulDims(c, p, p, d)) || !r.elems(mulDims(tks, d)) {
			return nil, r.err
		}
		l := nn.NewPatchEmbed(rng, c, p, d, tks)
		return l, r.readParams(l)
	case tagEmbedding:
		v, d, tt := r.dim(), r.dim(), r.dim()
		if !r.elems(mulDims(v, d)) || !r.elems(mulDims(tt, d)) {
			return nil, r.err
		}
		l := nn.NewEmbedding(rng, v, d, tt)
		return l, r.readParams(l)
	case tagTokenPool:
		return nn.NewTokenMeanPool(), nil
	case tagRescale2D:
		inC, outC, oh, ow := r.dim(), r.dim(), r.dim(), r.dim()
		// The projection conv only exists (and only has stream params)
		// when the channel counts differ.
		if inC != outC && !r.elems(mulDims(inC, outC)) {
			return nil, r.err
		}
		if r.err != nil {
			return nil, r.err
		}
		l := nn.NewRescale2D(rng, inC, outC, oh, ow)
		return l, r.readParams(l)
	case tagRescaleTok:
		it, id, ot, od := r.dim(), r.dim(), r.dim(), r.dim()
		if id != od && !r.elems(mulDims(id, od)) {
			return nil, r.err
		}
		if r.err != nil {
			return nil, r.err
		}
		l := nn.NewRescaleTokens(rng, it, id, ot, od)
		return l, r.readParams(l)
	case tagConvBlock:
		hasBN, hasPool := r.i32() == 1, r.i32() == 1
		sub, err := decodeLayer(r)
		if err != nil {
			return nil, err
		}
		conv, err := as[*nn.Conv2d](sub, "conv-block conv")
		if err != nil {
			return nil, err
		}
		b := &nn.ConvBlock{Conv: conv}
		if hasBN {
			sub, err := decodeLayer(r)
			if err != nil {
				return nil, err
			}
			if b.BN, err = as[*nn.BatchNorm2d](sub, "conv-block batchnorm"); err != nil {
				return nil, err
			}
		}
		if hasPool {
			sub, err := decodeLayer(r)
			if err != nil {
				return nil, err
			}
			if b.Pool, err = as[*nn.MaxPool2d](sub, "conv-block pool"); err != nil {
				return nil, err
			}
		}
		return b, nil
	case tagResidual:
		hasDown := r.i32() == 1
		parts := make([]nn.Layer, 0, 6)
		n := 4
		if hasDown {
			n = 6
		}
		for i := 0; i < n; i++ {
			p, err := decodeLayer(r)
			if err != nil {
				return nil, err
			}
			parts = append(parts, p)
		}
		b := &nn.ResidualBlock{}
		var err error
		if b.Conv1, err = as[*nn.Conv2d](parts[0], "residual conv1"); err != nil {
			return nil, err
		}
		if b.BN1, err = as[*nn.BatchNorm2d](parts[1], "residual bn1"); err != nil {
			return nil, err
		}
		if b.Conv2, err = as[*nn.Conv2d](parts[2], "residual conv2"); err != nil {
			return nil, err
		}
		if b.BN2, err = as[*nn.BatchNorm2d](parts[3], "residual bn2"); err != nil {
			return nil, err
		}
		if hasDown {
			if b.Down, err = as[*nn.Conv2d](parts[4], "residual downsample"); err != nil {
				return nil, err
			}
			if b.DownBN, err = as[*nn.BatchNorm2d](parts[5], "residual downsample bn"); err != nil {
				return nil, err
			}
		}
		return b, nil
	case tagSequential:
		id := r.str()
		count := r.count(4) // each sub-layer costs at least a tag length
		if count > 1<<16 {
			return nil, fmt.Errorf("parser: implausible sequential length %d", count)
		}
		if r.err != nil {
			return nil, r.err
		}
		ls := make([]nn.Layer, count)
		for i := range ls {
			s, err := decodeLayer(r)
			if err != nil {
				return nil, err
			}
			ls[i] = s
		}
		return &nn.Sequential{ID: id, Layers: ls}, nil
	}
	return nil, fmt.Errorf("parser: unknown layer tag %q", tag)
}
