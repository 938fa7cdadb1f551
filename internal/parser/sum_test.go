package parser_test

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/parser"
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
