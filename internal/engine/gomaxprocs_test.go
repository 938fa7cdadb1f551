package engine_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// planChildEnv marks a re-executed child of
// TestPlanBitIdenticalAcrossGOMAXPROCS: the child only prints its hashes.
const planChildEnv = "GMORPH_PLAN_HASH_CHILD"

// TestPlanBitIdenticalAcrossGOMAXPROCS pins the plan executor's
// determinism contract for core count: a compiled forward — its per-op
// parallel splits and its wave-parallel branches — returns the same bits
// whether the worker pool runs one worker or two. The pool width is fixed
// at first use, so the test re-executes its own binary under GOMAXPROCS=1
// and =2, once per kernel tier, and compares within each tier (the tiers
// round differently).
func TestPlanBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	if os.Getenv(planChildEnv) != "" {
		fmt.Printf("plan-hash %s %s\n", tensor.VecKind(), planHashes(t))
		return
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, novec := range []string{"", "1"} {
		hashes := map[string]string{}
		for _, procs := range []string{"1", "2"} {
			cmd := exec.Command(os.Args[0], "-test.run=^TestPlanBitIdenticalAcrossGOMAXPROCS$", "-test.count=1")
			cmd.Env = append(os.Environ(), planChildEnv+"=1", "GOMAXPROCS="+procs, "GMORPH_NOVEC="+novec)
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("child GOMAXPROCS=%s GMORPH_NOVEC=%q: %v\n%s", procs, novec, err, out)
			}
			sc := bufio.NewScanner(bytes.NewReader(out))
			for sc.Scan() {
				if rest, ok := strings.CutPrefix(sc.Text(), "plan-hash "); ok {
					hashes[procs] = rest
				}
			}
			if hashes[procs] == "" {
				t.Fatalf("child GOMAXPROCS=%s GMORPH_NOVEC=%q printed no hash:\n%s", procs, novec, out)
			}
		}
		if hashes["1"] != hashes["2"] {
			t.Errorf("GMORPH_NOVEC=%q: GOMAXPROCS=1 gave %q, GOMAXPROCS=2 gave %q", novec, hashes["1"], hashes["2"])
		} else {
			t.Logf("GMORPH_NOVEC=%q: %s at GOMAXPROCS 1 and 2", novec, hashes["1"])
		}
	}
}

// planHashes compiles five worlds — ResNet18 at batch 1 and 3, a ViT over
// 48x48 images (36 tokens) at batch 1, BERT-Base at batch 2, and an int8
// TinyMultiDNN at batch 1, 4 and 8, whose qconv and qlinear ops split their
// GEMM over weight rows and activation columns — and returns one hash of
// every output bit per forward.
func planHashes(t *testing.T) string {
	single := func(seed uint64, cfg models.Config, arch string, in graph.Shape) *graph.Graph {
		g, err := models.SingleTask(tensor.NewRNG(seed), cfg, arch, in, graph.DomainRaw, 4)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	resnet := single(4, models.Config{}, models.ResNet18, cifar)
	primeBN(resnet, imageInput(5, 4, cifar))
	vitIn := graph.Shape{3, 48, 48}
	vit := single(6, models.Config{}, models.ViTBase, vitIn)
	bert := single(7, models.Config{Vocab: 40}, models.BERTBase, graph.Shape{12})
	ds := testutil.TinyFace(8, 32, 8)
	q := testutil.TinyMultiDNN(9, ds)
	if rep, err := quant.Apply(q, ds, quant.Config{AccuracyDrop: 1}); err != nil || rep.QuantizedOps == 0 {
		t.Fatalf("quantizing: %v (report %+v)", err, rep)
	}

	var out []string
	for _, w := range []struct {
		g *graph.Graph
		x *tensor.Tensor
	}{
		{resnet, imageInput(10, 1, cifar)},
		{resnet, imageInput(11, 3, cifar)},
		{vit, imageInput(12, 1, vitIn)},
		{bert, tokenInput(2, 12, 40)},
		{q, ds.Test.Batch(0, 1)},
		{q, ds.Test.Batch(1, 5)},
		{q, ds.Test.X},
	} {
		outs := engine.Compile(w.g).Forward(w.x)
		h := fnv.New64a()
		tasks := make([]int, 0, len(outs))
		for task := range outs {
			tasks = append(tasks, task)
		}
		slices.Sort(tasks)
		for _, task := range tasks {
			_ = binary.Write(h, binary.LittleEndian, outs[task].Data()) // a hash.Hash write never fails
		}
		out = append(out, fmt.Sprintf("%016x", h.Sum64()))
	}
	return strings.Join(out, " ")
}
