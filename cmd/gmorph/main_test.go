package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLISmoke drives the built binaries end to end on a tiny B1 world:
// a search with every output flag, inspect over what it wrote, a re-run
// that replays the memo, and the config and flag errors that must stop a
// run before it searches.
func TestCLISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	dir := t.TempDir()
	gmorphBin, inspectBin := filepath.Join(dir, "gmorph"), filepath.Join(dir, "inspect")
	for bin, pkg := range map[string]string{gmorphBin: ".", inspectBin: "../inspect"} {
		if out, err := exec.Command(goBin, "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	run := func(bin string, args ...string) (string, error) {
		out, err := exec.Command(bin, args...).CombinedOutput()
		return string(out), err
	}
	writeConfig := func(name string, extra string) string {
		path := filepath.Join(dir, name)
		cfg := `{"benchmark": "B1", "width_scale": 4, "pretrain_epochs": 1,
			"dataset": {"train": 32, "test": 16},
			"accuracy_drop": 0.1, "rounds": 4, "finetune_epochs": 1,
			"search_batch": 2, "seed": 1` + extra + `}`
		if err := os.WriteFile(path, []byte(cfg), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	config := writeConfig("fusion.json", "")
	memo, stats := filepath.Join(dir, "memo.json"), filepath.Join(dir, "stats.json")
	decisions, fused := filepath.Join(dir, "decisions.json"), filepath.Join(dir, "fused.gmck")
	search := func() map[string]int {
		t.Helper()
		if out, err := run(gmorphBin, "-config", config, "-memo", memo, "-stats", stats,
			"-decisions", decisions, "-out", fused); err != nil {
			t.Fatalf("gmorph: %v\n%s", err, out)
		}
		raw, err := os.ReadFile(stats)
		if err != nil {
			t.Fatal(err)
		}
		var st map[string]int
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("stats file: %v\n%s", err, raw)
		}
		return st
	}

	if st := search(); st["fine_tuned"] == 0 {
		t.Fatalf("the cold search fine-tuned nothing: %v", st)
	}
	if out, err := run(inspectBin, "-fusion", decisions); err != nil || !strings.Contains(out, "fusion decisions:") {
		t.Fatalf("inspect -fusion: %v\n%s", err, out)
	}
	if out, err := run(inspectBin, "-model", fused); err != nil || !strings.Contains(out, "tasks (3):") {
		t.Fatalf("inspect -model: %v\n%s", err, out)
	}
	if st := search(); st["fine_tuned"] != 0 || st["cache_hits"] == 0 {
		t.Fatalf("the re-run over the memo did not replay it: %v", st)
	}

	if out, err := run(gmorphBin, "-config", writeConfig("typo.json", `, "predict": true`),
		"-out", filepath.Join(dir, "typo.gmck")); err == nil || !strings.Contains(out, `"predict"`) {
		t.Fatalf("a config with an unknown key ran (err %v):\n%s", err, out)
	}
	if out, err := run(gmorphBin, "-config", config, "-predict",
		"-out", filepath.Join(dir, "flag.gmck")); err == nil {
		t.Fatalf("the removed -predict flag was accepted:\n%s", out)
	}
}
