package nn

import (
	"fmt"
	"testing"

	"repro/internal/tensor"
)

// searchConvShapes are the fusion search's VGG-13 conv blocks at the bench
// worlds' sim width (stage widths 2, 4, 8, 16, 16 over a 32×32 input), each
// with batch norm and ReLU and, where a stage ends, a 2×2 pool.
var searchConvShapes = []struct {
	in, out, size int
	pool          bool
}{
	{3, 2, 32, false}, {2, 2, 32, true},
	{2, 4, 16, false}, {4, 4, 16, true},
	{4, 8, 8, false}, {8, 8, 8, true},
	{8, 16, 4, false}, {16, 16, 4, true},
	{16, 16, 2, true},
}

// BenchmarkConvBlockTrainStep times one ConvBlock per search layer shape:
// train is a train-mode forward and the backward with the input gradient at
// the fine-tune's batch of 16; eval is an eval-mode forward at the
// evaluator's batch of 32.
func BenchmarkConvBlockTrainStep(b *testing.B) {
	for _, sh := range searchConvShapes {
		name := fmt.Sprintf("%d-%d@%d", sh.in, sh.out, sh.size)
		rng := tensor.NewRNG(7)
		blk := NewConvBlock(rng, sh.in, sh.out, true, sh.pool)
		b.Run("train/"+name, func(b *testing.B) {
			x := tensor.New(16, sh.in, sh.size, sh.size)
			rng.FillNormal(x, 0, 1)
			g := tensor.New(append([]int{16}, blk.OutShape(x.Shape()[1:])...)...)
			rng.FillNormal(g, 0, 1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				blk.Forward(x, true)
				blk.Backward(g)
			}
		})
		b.Run("eval/"+name, func(b *testing.B) {
			x := tensor.New(32, sh.in, sh.size, sh.size)
			rng.FillNormal(x, 0, 1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				blk.Forward(x, false)
			}
		})
	}
}

// BenchmarkConvInputGrad times the input gradient of each search conv shape
// at the fine-tune's batch of 16, two ways: implicit is
// tensor.ConvInputGradInto in the form the shape takes on the bound tier;
// fold is the GEMM and fold it replaces (tensor.MatMulTransAInto into the
// columns, then tensor.Col2ImCMInto). Both work in scratch of their own,
// as the training body's lease provides it. On a shape the implicit form
// does not take (the 2×2 map, and every shape on the pure-Go tier) the two
// run the same code.
func BenchmarkConvInputGrad(b *testing.B) {
	const n, k, pad = 16, 3, 1
	for _, sh := range searchConvShapes {
		name := fmt.Sprintf("%d-%d@%d", sh.in, sh.out, sh.size)
		rng := tensor.NewRNG(7)
		w := tensor.New(sh.out, sh.in*k*k)
		dz := tensor.New(sh.out, n*sh.size*sh.size)
		rng.FillNormal(w, 0, 1)
		rng.FillNormal(dz, 0, 1)
		dx := tensor.New(n, sh.in, sh.size, sh.size)
		cols := tensor.New(sh.in*k*k, n*sh.size*sh.size)
		scratch := make([]float32, tensor.ConvInputGradScratch(n, sh.in, sh.size, sh.size, sh.out, k, 1, pad))
		b.Run("implicit/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tensor.ConvInputGradInto(dx, w, dz, scratch, k, 1, pad)
			}
		})
		b.Run("fold/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tensor.MatMulTransAInto(cols, w, dz)
				tensor.Col2ImCMInto(dx, cols, k, k, 1, pad)
			}
		})
	}
}
