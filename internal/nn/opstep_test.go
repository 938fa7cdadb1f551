package nn

import (
	"encoding/binary"
	"hash/fnv"
	"runtime/debug"
	"testing"

	"repro/internal/tensor"
)

// opVGG is an op-granularity VGG at the search bench's sim width: every
// Conv2d, BatchNorm2d, ReLU and MaxPool2d its own layer.
func opVGG(rng *tensor.RNG) *Sequential {
	var ls []Layer
	in := 3
	for _, c := range []struct {
		out  int
		pool bool
	}{{8, true}, {16, true}, {16, false}} {
		ls = append(ls, NewConv2d(rng, in, c.out, 3, 1, 1), NewBatchNorm2d(c.out), NewReLU())
		if c.pool {
			ls = append(ls, NewMaxPool2d(2, 2))
		}
		in = c.out
	}
	return NewSequential("op-vgg", append(ls, NewGlobalAvgPool(), NewLinear(rng, in, 4))...)
}

// opStepHashAVX2 is the FNV-64a hash of TestOpGranularityTrainStep's
// output, input gradient, parameter gradients and running statistics on
// the AVX2 tier. The layer-by-layer kernels these layers ran before the
// fused convolution body produced the same bits; a kernel change that
// alters them must update this value on purpose.
const opStepHashAVX2 = 0x324a85a77050714a

// opStepAllocs is the heap allocations of one op-granularity train step
// with the collector paused, so no sync.Pool refill after a GC is counted:
// 104 on both kernel tiers and at GOMAXPROCS 1, 2 and 4, against 190 before
// ReLU dropped its mask, MaxPool2d and BatchNorm2d stopped allocating their
// caches per step, and Conv2d moved onto the fused body's pooled state.
const opStepAllocs = 104

// TestOpGranularityTrainStep pins the op-granularity layers' train step:
// fewer allocations than before, and — on the AVX2 tier — the same bits.
func TestOpGranularityTrainStep(t *testing.T) {
	rng := tensor.NewRNG(61)
	net := opVGG(rng)
	x, g := tensor.New(16, 3, 32, 32), tensor.New(16, 4)
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(g, 0, 1)
	var out, gi *tensor.Tensor
	step := func() {
		for _, p := range net.Params() {
			p.ZeroGrad()
		}
		out = net.Forward(x, true)
		gi = net.Backward(g)
	}
	step()
	h := fnv.New64a()
	for _, ts := range [][]*tensor.Tensor{{out, gi}, net.StateTensors()} {
		for _, v := range ts {
			_ = binary.Write(h, binary.LittleEndian, v.Data()) // a hash.Hash write never fails
		}
	}
	for _, p := range net.Params() {
		_ = binary.Write(h, binary.LittleEndian, p.Grad().Data())
	}
	t.Logf("tier %s: step hash %#x", tensor.VecKind(), h.Sum64())
	if tensor.VecKind() == "avx2" && h.Sum64() != opStepHashAVX2 {
		t.Errorf("step hash %#x, want %#x", h.Sum64(), uint64(opStepHashAVX2))
	}
	if raceEnabled {
		return
	}
	// A GC empties every sync.Pool the step leases from, and the refills
	// would count as the step's own allocations: pause the collector after
	// the warm-up step above so the count is the steady state.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(5, step)
	t.Logf("%.0f allocations per step", allocs)
	if allocs > opStepAllocs {
		t.Errorf("%.0f allocations per train step, want <= %d", allocs, opStepAllocs)
	}
}
