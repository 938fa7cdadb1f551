package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestSpecByID(t *testing.T) {
	for _, id := range []string{"B1", "B2", "B3", "B4", "B5", "B6", "B7"} {
		s, err := SpecByID(id)
		if err != nil {
			t.Fatalf("SpecByID(%s): %v", id, err)
		}
		if s.ID != id || len(s.Tasks) < 2 {
			t.Fatalf("bad spec %+v", s)
		}
	}
	if _, err := SpecByID("B9"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// Building every benchmark at tiny scale must produce valid, trainable
// workloads whose teachers beat chance on every task.
func TestBuildAllBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sc := Tiny()
	for _, spec := range Benchmarks {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			w, err := Build(spec, sc)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Teacher.Validate(); err != nil {
				t.Fatal(err)
			}
			if len(w.Teacher.Heads) != len(spec.Tasks) {
				t.Fatalf("heads %d, want %d", len(w.Teacher.Heads), len(spec.Tasks))
			}
			for id, acc := range w.TeacherAcc {
				chance := 1.2 / float64(w.Dataset.Tasks[id].Classes)
				if w.Dataset.Tasks[id].Kind != 0 { // mAP / MCC have different floors
					chance = 0.0
				}
				if acc < chance {
					t.Errorf("task %d (%s) teacher metric %.3f below sanity floor %.3f",
						id, w.Dataset.Tasks[id].Name, acc, chance)
				}
			}
		})
	}
}

func TestTargetsDerivation(t *testing.T) {
	w := &Workload{TeacherAcc: map[int]float64{0: 0.9, 1: 0.8}}
	tg := w.Targets(0.02)
	if tg[0] != 0.88 || tg[1] != 0.78 {
		t.Fatalf("targets = %v", tg)
	}
}

func TestRunFigure7Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sc := Tiny()
	sc.Rounds = 4
	rows, err := RunFigure7([]string{"B1"}, []float64{0.05}, []string{VariantPlain, VariantPR}, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(rows[0].Outcomes) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].OriginalMS <= 0 {
		t.Fatal("no original latency")
	}
	txt := FormatFig7(rows)
	if !strings.Contains(txt, "B1") || !strings.Contains(txt, VariantPR) {
		t.Fatalf("format missing fields:\n%s", txt)
	}
	var buf bytes.Buffer
	if err := WriteFig7CSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != 3 {
		t.Fatalf("CSV lines = %d, want 3", lines)
	}

	t5 := Table5FromFig7(rows)
	if len(t5) != 1 || len(t5[0].Seconds) != 2 {
		t.Fatalf("table5 = %+v", t5)
	}
	if s := FormatTable5(t5); !strings.Contains(s, "B1") {
		t.Fatalf("table5 format: %s", s)
	}
}

func TestRunFigure1Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sc := Tiny()
	sc.Epochs = 2
	spec, _ := SpecByID("B4")
	points, err := RunFigure1(spec, sc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("no figure 1 points")
	}
	var similar, different bool
	for _, p := range points {
		if p.Speedup <= 0 {
			t.Fatalf("bad speedup %v", p.Speedup)
		}
		if p.Similar {
			similar = true
		} else {
			different = true
		}
	}
	if !similar || !different {
		t.Fatalf("expected both shape conditions, got similar=%v different=%v", similar, different)
	}
	var buf bytes.Buffer
	if err := WriteFig1CSV(&buf, points); err != nil {
		t.Fatal(err)
	}
}

// TestRunnerSmoke runs the figure and table runners that no other test
// drives at a micro scale: each must finish, fill its rows, and render
// through its report writer.
func TestRunnerSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	micro := Tiny()
	micro.Rounds, micro.Epochs, micro.PretrainEpochs = 4, 4, 4
	micro.Train, micro.Test = 48, 24
	for _, c := range []struct {
		name string
		run  func(sc Scale) (string, error)
	}{
		{"fig2", func(sc Scale) (string, error) {
			points, err := RunFigure2(sc, 0.05)
			if err != nil {
				return "", err
			}
			if len(points) == 0 {
				return "", fmt.Errorf("no accepted candidates")
			}
			for _, p := range points {
				if p.Speedup <= 0 || p.FineTuneSeconds <= 0 {
					return "", fmt.Errorf("bad point %+v", p)
				}
			}
			var buf bytes.Buffer
			err = WriteFig2CSV(&buf, points)
			return buf.String(), err
		}},
		{"fig3", func(sc Scale) (string, error) {
			sc.Epochs = 3
			res, err := RunFigure3(sc, 3)
			if err != nil {
				return "", err
			}
			if len(res.Drops[0]) != 3 || len(res.Drops[1]) != 3 {
				return "", fmt.Errorf("drops %v, want 3 inits per architecture", res.Drops)
			}
			var buf bytes.Buffer
			err = WriteFig3CSV(&buf, res)
			return buf.String(), err
		}},
		{"fig8", func(sc Scale) (string, error) {
			sc.Rounds = 3
			curves, err := RunFigure8(sc, 0.05)
			if err != nil {
				return "", err
			}
			if len(curves) != 4 {
				return "", fmt.Errorf("curves = %d, want 4 variants", len(curves))
			}
			for _, c := range curves {
				if len(c.LatencyMS) == 0 || c.LatencyMS[len(c.LatencyMS)-1] <= 0 {
					return "", fmt.Errorf("%s: no trajectory %+v", c.Variant, c)
				}
			}
			var buf bytes.Buffer
			err = WriteFig8CSV(&buf, curves)
			return buf.String(), err
		}},
		{"table3", func(sc Scale) (string, error) {
			rows, err := RunTable3([]string{"B1"}, 0.05, sc)
			if err != nil {
				return "", err
			}
			if len(rows) != 1 || rows[0].RefSpeedup <= 0 || rows[0].FusedSpeedup <= 0 {
				return "", fmt.Errorf("rows = %+v", rows)
			}
			return FormatTable3(rows), nil
		}},
		{"table4", func(sc Scale) (string, error) {
			rows, err := RunTable4([]string{"B1"}, 0.05, sc)
			if err != nil {
				return "", err
			}
			if len(rows) != 1 || !rows[0].Applicable || rows[0].AllSharedSpeedup <= 0 || rows[0].GMorphSpeedup <= 0 {
				return "", fmt.Errorf("rows = %+v", rows)
			}
			return FormatTable4(rows), nil
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			out, err := c.run(micro)
			if err != nil {
				t.Fatal(err)
			}
			if out == "" {
				t.Fatal("the report is empty")
			}
		})
	}
}

func TestFormatTable4Placeholders(t *testing.T) {
	rows := []Table4Row{
		{Bench: "B5", Applicable: false, GMorphDrop: 0.01, GMorphSpeedup: 1.8},
		{Bench: "B1", Applicable: true, AllSharedDrop: 0.009, AllSharedSpeedup: 2.3,
			TreeMTLDrop: 0.008, TreeMTLSpeedup: 2.3, GMorphDrop: 0.01, GMorphSpeedup: 3.0},
	}
	s := FormatTable4(rows)
	if !strings.Contains(s, "-") {
		t.Fatal("inapplicable MTL cell not rendered as '-'")
	}
	if !strings.Contains(s, "3.00x") {
		t.Fatalf("GMorph cell missing: %s", s)
	}
}

func TestRunServingSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sc := Tiny()
	sc.Rounds = 3
	sc.Epochs = 6
	rows, err := RunServing([]string{"B1"}, 0.08, sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.OriginalQPS <= 0 || r.FusedQPS <= 0 {
		t.Fatalf("no throughput: %+v", r)
	}
	if r.Found && r.Gain < 1 {
		t.Logf("note: fused model found but gain %.2f < 1 (noise at tiny scale)", r.Gain)
	}
	if s := FormatServing(rows); !strings.Contains(s, "B1") {
		t.Fatalf("format broken: %s", s)
	}
}

func TestBestModelDOT(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sc := Tiny()
	sc.Rounds = 2
	sc.Epochs = 4
	orig, fused, err := BestModelDOT("B1", 0.10, sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, dot := range []string{orig, fused} {
		if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "ConvBlock") {
			t.Fatalf("bad DOT output:\n%s", dot)
		}
	}
}

func TestRunAblationSweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	sc := Tiny()
	sc.Rounds = 2
	sc.Epochs = 4
	pts, err := RunAblationPairsPerPass(sc, 0.10, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 || pts[0].Setting != "pairs=1" {
		t.Fatalf("ablation points %+v", pts)
	}
	pts2, err := RunAblationEliteCapacity(sc, 0.10, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts2) != 1 {
		t.Fatalf("elite ablation points %+v", pts2)
	}
	if s := FormatAblation("t", append(pts, pts2...)); !strings.Contains(s, "pairs=1") {
		t.Fatalf("format: %s", s)
	}
}
