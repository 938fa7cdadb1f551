package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/parser"
)

// TestCLISmoke drives the built binaries end to end on a tiny B1 world:
// a search with every output flag, inspect over what it wrote, a re-run
// that replays the memo, the config and flag errors that must stop a run
// before it searches, and serve over the fused checkpoint: its client mode
// against it, then a clean drain on SIGTERM.
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
	serveBin := filepath.Join(dir, "serve")
	for bin, pkg := range map[string]string{gmorphBin: ".", inspectBin: "../inspect", serveBin: "../serve"} {
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

	serveSmoke(t, serveBin, fused)
}

// serveSmoke serves a checkpoint on a free loopback port, runs serve's
// client mode against it, and stops it with SIGTERM, which must drain the
// queues and exit 0.
func serveSmoke(t *testing.T, serveBin, checkpoint string) {
	t.Helper()
	g, err := parser.LoadFile(checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	var log bytes.Buffer
	srv := exec.Command(serveBin, "-model", checkpoint, "-addr", addr)
	srv.Stdout, srv.Stderr = &log, &log
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	exited := false
	defer func() {
		if !exited {
			srv.Process.Kill()
			srv.Wait()
		}
	}()
	url := "http://" + addr
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		resp, err := http.Get(url + "/v1/model")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("serve never answered on %s: %v", addr, err)
		}
	}
	out, err := exec.Command(serveBin, "-url", url, "-infer-random", "3", "-info").CombinedOutput()
	if err != nil {
		t.Fatalf("serve client: %v\n%s", err, out)
	}
	if len(g.Heads) != 3 {
		t.Fatalf("the fused B1 checkpoint has %d tasks, want 3", len(g.Heads))
	}
	want := []string{"sample 2: 3 tasks"}
	for _, id := range g.Tasks() {
		want = append(want, g.TaskNames[id])
	}
	for _, w := range want {
		if !strings.Contains(string(out), w) {
			t.Fatalf("serve client output lacks %q:\n%s", w, out)
		}
	}
	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err = srv.Wait()
	exited = true
	if err != nil || !strings.Contains(log.String(), "drained cleanly") {
		t.Fatalf("serve after SIGTERM: %v\n%s", err, log.String())
	}
}
