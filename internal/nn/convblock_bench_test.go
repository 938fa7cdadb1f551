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
