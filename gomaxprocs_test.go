package gmorph_test

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	gmorph "repro"
	"repro/internal/parser"
	"repro/internal/testutil"
)

// fuseChildEnv marks a re-executed child of
// TestFuseBitIdenticalAcrossGOMAXPROCS: the child only prints its result.
const fuseChildEnv = "GMORPH_FUSE_RESULT_CHILD"

// TestFuseBitIdenticalAcrossGOMAXPROCS pins the search's determinism
// contract for core count: a whole Fuse — teacher pretraining, fine-tuning
// on the training kernels, merge — returns the same elites with the same
// weights and the same counters whether the kernel worker pool runs one
// worker or two. The pool width is fixed at first use, so the test
// re-executes its own binary under GOMAXPROCS=1 and =2, once per kernel
// tier, and compares within each tier (the tiers round differently). The
// search ranks by FLOPs, so no timing enters the result.
func TestFuseBitIdenticalAcrossGOMAXPROCS(t *testing.T) {
	if os.Getenv(fuseChildEnv) != "" {
		fmt.Printf("fuse-result %s\n", smallFuseResult(t))
		return
	}
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, novec := range []string{"", "1"} {
		results := map[string]string{}
		for _, procs := range []string{"1", "2"} {
			cmd := exec.Command(os.Args[0], "-test.run=^TestFuseBitIdenticalAcrossGOMAXPROCS$", "-test.count=1")
			cmd.Env = append(os.Environ(), fuseChildEnv+"=1", "GOMAXPROCS="+procs, "GMORPH_NOVEC="+novec)
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("child GOMAXPROCS=%s GMORPH_NOVEC=%q: %v\n%s", procs, novec, err, out)
			}
			sc := bufio.NewScanner(bytes.NewReader(out))
			for sc.Scan() {
				if rest, ok := strings.CutPrefix(sc.Text(), "fuse-result "); ok {
					results[procs] = rest
				}
			}
			if results[procs] == "" {
				t.Fatalf("child GOMAXPROCS=%s GMORPH_NOVEC=%q printed no result:\n%s", procs, novec, out)
			}
		}
		if results["1"] != results["2"] {
			t.Errorf("GMORPH_NOVEC=%q: GOMAXPROCS=1 gave\n  %s\nGOMAXPROCS=2 gave\n  %s", novec, results["1"], results["2"])
		} else {
			t.Logf("GMORPH_NOVEC=%q: %s", novec, results["1"])
		}
	}
}

// smallFuseResult runs a small FLOPs-ranked search and renders what it
// found: each elite's fingerprint and parser.Sum (which covers its trained
// weights), and the search counters.
func smallFuseResult(t *testing.T) string {
	ds := testutil.TinyFace(151, 48, 32)
	teachers := testutil.TinyMultiDNN(152, ds)
	testutil.PretrainTeachers(teachers, ds, 4, 0.004, 153)
	res, err := gmorph.Fuse(teachers, ds, gmorph.Config{
		AccuracyDrop: 0.10, Rounds: 10, FineTuneEpochs: 4, LearningRate: 0.003,
		EvalEvery: 1, SearchBatch: 4, RuleFilter: true, EarlyTermination: true,
		OptimizeFLOPs: true, Seed: 19,
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, e := range res.Elites {
		sum, err := parser.Sum(e.Graph)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s/%s ", gmorph.Fingerprint(e.Graph), sum)
	}
	fmt.Fprintf(&b, "found=%v stats=%+v", res.Found, res.Stats)
	return b.String()
}
