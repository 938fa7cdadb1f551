package gmorph_test

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchModuleVets type-checks cmd/bench against this tree. cmd/bench is
// a nested module, so `go test ./...` never compiles it; without this test a
// signature change in gmorph, core, engine or internal/bench would break the
// benchmark harness unnoticed.
func TestBenchModuleVets(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	cmd := exec.Command(gobin, "vet", "-C", "cmd/bench", "./...")
	cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet -C cmd/bench ./...: %v\n%s", err, out)
	}
}
