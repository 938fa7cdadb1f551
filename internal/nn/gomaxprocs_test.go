package nn

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/tensor"
)

// gomaxprocsChildEnv marks a re-executed child of
// TestKernelsBitIdenticalAcrossGOMAXPROCS: the child only prints the hash.
const gomaxprocsChildEnv = "GMORPH_KERNEL_HASH_CHILD"

// TestKernelsBitIdenticalAcrossGOMAXPROCS pins the pool's determinism
// contract for core count, not only worker count: every training kernel must
// produce bit-identical results whether the worker pool runs one worker or
// two. The pool width is fixed at first use, so the test re-executes its own
// binary under GOMAXPROCS=1 and =2 — once per kernel tier — and compares a
// hash of the outputs within each tier (the tiers differ in rounding, so
// only same-tier hashes must agree).
func TestKernelsBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	if os.Getenv(gomaxprocsChildEnv) != "" {
		fmt.Printf("kernel-hash %s %016x\n", tensor.VecKind(), kernelHash())
		return
	}
	for _, novec := range []string{"", "1"} {
		hashes := map[string]string{}
		for _, procs := range []string{"1", "2"} {
			cmd := exec.Command(os.Args[0], "-test.run=^TestKernelsBitIdenticalAcrossGOMAXPROCS$", "-test.count=1")
			cmd.Env = append(os.Environ(), gomaxprocsChildEnv+"=1", "GOMAXPROCS="+procs, "GMORPH_NOVEC="+novec)
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("child GOMAXPROCS=%s GMORPH_NOVEC=%q: %v\n%s", procs, novec, err, out)
			}
			line := hashLine(out)
			if line == "" {
				t.Fatalf("child GOMAXPROCS=%s GMORPH_NOVEC=%q printed no hash:\n%s", procs, novec, out)
			}
			hashes[procs] = line
		}
		if hashes["1"] != hashes["2"] {
			t.Errorf("GMORPH_NOVEC=%q: GOMAXPROCS=1 gave %q, GOMAXPROCS=2 gave %q", novec, hashes["1"], hashes["2"])
		} else {
			t.Logf("GMORPH_NOVEC=%q: %s at GOMAXPROCS 1 and 2", novec, hashes["1"])
		}
	}
}

func hashLine(out []byte) string {
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "kernel-hash "); ok {
			return rest
		}
	}
	return ""
}

// kernelHash runs the training kernels at the shapes a sim-width search
// presents — batch 16 of 32x32 images, so M = 16·32·32 GEMM rows against
// 2–8 output channels — and hashes every output bit: the GEMMs, the
// channel-major unfold and fold, a fused ConvBlock and stride-2
// ResidualBlock train step, and a TransformerBlock train step over 40
// tokens, whose attention runs (sample, head) units on the pool and crosses
// the 32-row query tile.
func kernelHash() uint64 {
	h := fnv.New64a()
	put := func(ts ...*tensor.Tensor) {
		for _, t := range ts {
			_ = binary.Write(h, binary.LittleEndian, t.Data()) // a hash.Hash write never fails
		}
	}
	rng := tensor.NewRNG(99)
	const m = 16 * 32 * 32
	for _, n := range []int{2, 4, 8} {
		for _, k := range []int{18, 27, 36} {
			a, b, bt := tensor.New(m, k), tensor.New(k, n), tensor.New(n, k)
			rng.FillNormal(a, 0, 1)
			rng.FillNormal(b, 0, 1)
			rng.FillNormal(bt, 0, 1)
			d1, d2 := tensor.New(m, n), tensor.New(m, n)
			tensor.MatMulInto(d1, a, b)
			tensor.MatMulTransBInto(d2, a, bt)
			put(d1, d2)
		}
	}
	for _, mm := range []int{2, 4, 16} {
		a, b := tensor.New(m, mm), tensor.New(m, 27)
		rng.FillNormal(a, 0, 1)
		rng.FillNormal(b, 0, 1)
		dw := tensor.New(mm, 27)
		tensor.MatMulTransAInto(dw, a, b)
		put(dw)
	}
	for _, g := range []struct{ n, c, hw, k, stride, pad int }{
		{16, 4, 32, 3, 1, 1},
		{8, 3, 17, 3, 2, 1},
	} {
		x := tensor.New(g.n, g.c, g.hw, g.hw)
		rng.FillNormal(x, 0, 1)
		oh := tensor.ConvOut(g.hw, g.k, g.stride, g.pad)
		colsCM := tensor.New(g.c*g.k*g.k, g.n*oh*oh)
		tensor.Im2ColCMInto(colsCM, x, g.k, g.k, g.stride, g.pad)
		yCM := tensor.New(colsCM.Shape()...)
		rng.FillNormal(yCM, 0, 1)
		fold := tensor.New(x.Shape()...)
		tensor.Col2ImCMInto(fold, yCM, g.k, g.k, g.stride, g.pad)
		put(colsCM, fold)
	}
	for _, c := range []struct {
		l     Layer
		shape []int
	}{
		{NewConvBlock(tensor.NewRNG(5), 3, 8, true, true), []int{16, 3, 32, 32}},
		{NewResidualBlock(tensor.NewRNG(6), 8, 16, 2), []int{16, 8, 16, 16}},
		{NewTransformerBlock(tensor.NewRNG(7), 24, 3, 48), []int{4, 40, 24}},
	} {
		x := tensor.New(c.shape...)
		rng.FillNormal(x, 0, 1)
		out := c.l.Forward(x, true)
		g := tensor.New(out.Shape()...)
		rng.FillNormal(g, 0, 1)
		put(out, c.l.Backward(g))
		for _, p := range c.l.Params() {
			put(p.Grad())
		}
		put(StateTensors(c.l)...)
	}
	return h.Sum64()
}
