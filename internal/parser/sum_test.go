package parser_test

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/parser"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// The checkpoint checksum is the model's deploy identity: Sum on the
// in-memory graph and the trailer LoadFileSum reports after SaveFile must
// agree, and any content change must produce a different identity.
func TestChecksumIdentity(t *testing.T) {
	ds := testutil.TinyFace(1, 4, 2)
	g := testutil.TinyMultiDNN(2, ds)

	want, err := parser.Sum(g)
	if err != nil {
		t.Fatalf("Sum: %v", err)
	}
	if !strings.HasPrefix(want, "crc32:") || len(want) != len("crc32:")+8 {
		t.Fatalf("checksum %q not in crc32:xxxxxxxx form", want)
	}

	path := filepath.Join(t.TempDir(), "m.gmck")
	if err := parser.SaveFile(path, g); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	g2, sum, err := parser.LoadFileSum(path)
	if err != nil {
		t.Fatalf("LoadFileSum: %v", err)
	}
	if sum != want {
		t.Fatalf("file checksum %s, Sum said %s", sum, want)
	}

	// Content changes move the identity: perturb one weight and re-save.
	g2.Params()[0].Value.Data()[0] += 1
	if err := parser.SaveFile(path, g2); err != nil {
		t.Fatalf("re-save: %v", err)
	}
	_, sum2, err := parser.LoadFileSum(path)
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	if sum2 == want {
		t.Fatal("checksum unchanged after weight change")
	}
}

// Save's encoding allocates per tensor at most, never per float: parser.Sum
// of a zoo graph (three VGG-13 branches at width scale 4, about 29 thousand
// floats) stays within a fixed number of allocations. It made one for
// every float when each write's 4-byte scratch array escaped to the heap.
func TestSumAllocsDoNotGrowWithFloats(t *testing.T) {
	g := graph.New(graph.Shape{3, 32, 32}, graph.DomainRaw)
	rng := tensor.NewRNG(3)
	for task := 0; task < 3; task++ {
		if _, err := models.AddBranch(g, rng, models.Config{WidthScale: 4}, models.VGG13, task, 4); err != nil {
			t.Fatal(err)
		}
	}
	floats := 0
	for _, p := range g.Params() {
		floats += p.Value.Size()
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := parser.Sum(g); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("parser.Sum: %.0f allocations over %d floats", allocs, floats)
	if allocs > 200 {
		t.Fatalf("parser.Sum made %.0f allocations over %d floats, want at most 200", allocs, floats)
	}
}
