package coord_test

import (
	"bytes"
	"net/http/httptest"
	"reflect"
	"testing"

	gmorph "repro"
	"repro/internal/data"
	"repro/internal/graph"
	"repro/internal/parser"
	"repro/internal/testutil"
)

// buildWorld deterministically rebuilds the shared search world. The
// coordinator and every worker call this independently — identical seeds
// give bit-identical teachers, which is what the world checksum verifies.
func buildWorld(t testing.TB) (*graph.Graph, *data.Dataset, map[int]float64) {
	t.Helper()
	ds := testutil.TinyFace(141, 64, 32)
	teacher := testutil.TinyMultiDNN(142, ds)
	teach := testutil.PretrainTeachers(teacher, ds, 6, 0.004, 143)
	targets := map[int]float64{}
	for id, a := range teach {
		targets[id] = a - 0.15
	}
	return teacher, ds, targets
}

func searchConfig(targets map[int]float64) gmorph.Config {
	return gmorph.Config{
		Rounds:          16,
		MaxPairsPerPass: 1, // duplicate-heavy: the fixed-seed search re-samples structures
		FineTuneEpochs:  6,
		LearningRate:    0.003,
		BatchSize:       16,
		EvalEvery:       2,
		RuleFilter:      true,
		Seed:            7,
		SearchBatch:     4,
		Targets:         targets,
	}
}

// TestDistributedSearchMatchesLocal is the sharding contract, run under
// -race in CI: a coordinator fanning evaluations across two in-process HTTP
// workers must (a) measure each candidate structure at most once across the
// whole fleet, with zero overlap between workers, and (b) produce elites
// bit-identical to a single-process run — fine-tune seeds are pure
// functions of fingerprints and graphs travel losslessly, so sharding may
// change wall-clock but never the search.
func TestDistributedSearchMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}

	// Single-process reference.
	teachersL, dsL, targets := buildWorld(t)
	local, err := gmorph.Fuse(teachersL, dsL, searchConfig(targets))
	if err != nil {
		t.Fatal(err)
	}
	if local.Stats.FineTuned == 0 || local.Stats.CacheHits == 0 {
		t.Fatalf("fixture is degenerate (no fine-tunes or no duplicates): %+v", local.Stats)
	}
	if len(local.Elites) == 0 {
		t.Fatal("fixture produced no elites")
	}

	// Two stateless workers over independently rebuilt copies of the world.
	var workers []*gmorph.SearchWorker
	var urls []string
	for i := 0; i < 2; i++ {
		tw, dw, _ := buildWorld(t)
		w, err := gmorph.NewSearchWorker(tw, dw, searchConfig(targets), 1)
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(w.Handler())
		defer srv.Close()
		workers = append(workers, w)
		urls = append(urls, srv.URL)
	}

	teachersD, dsD, _ := buildWorld(t)
	cfg := searchConfig(targets)
	cfg.Workers = urls
	dist, err := gmorph.Fuse(teachersD, dsD, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Zero duplicate measurements: every structure at most once per worker,
	// no structure on two workers, and the fleet total equals the
	// single-process fine-tune count.
	seen := map[uint64]int{}
	total := 0
	for wi, w := range workers {
		for fp, n := range w.EvalsByFingerprint() {
			if n != 1 {
				t.Fatalf("worker %d evaluated fingerprint %016x %d times", wi, fp, n)
			}
			if prev, ok := seen[fp]; ok {
				t.Fatalf("fingerprint %016x evaluated on workers %d and %d", fp, prev, wi)
			}
			seen[fp] = wi
			total++
		}
	}
	if total != local.Stats.FineTuned {
		t.Fatalf("fleet ran %d evaluations, single-process ran %d", total, local.Stats.FineTuned)
	}
	if workers[0].Evals() == 0 || workers[1].Evals() == 0 {
		t.Fatalf("load was not sharded: worker evals %d / %d", workers[0].Evals(), workers[1].Evals())
	}

	// Identical search trajectory.
	if local.Stats != dist.Stats {
		t.Fatalf("stats differ:\nlocal: %+v\ndist:  %+v", local.Stats, dist.Stats)
	}
	if local.Evaluated != dist.Evaluated {
		t.Fatalf("Evaluated differs: %d vs %d", local.Evaluated, dist.Evaluated)
	}
	// Every record agrees on everything the search determines: all fields
	// but the wall-clock ones (Best is ranked by measured latency).
	if len(local.Traces) != len(dist.Traces) {
		t.Fatalf("trace count differs: %d vs %d", len(local.Traces), len(dist.Traces))
	}
	for i := range local.Traces {
		a, b := local.Traces[i], dist.Traces[i]
		for _, tr := range []*gmorph.Trace{&a, &b} {
			tr.Best, tr.BestLatency, tr.Elapsed, tr.FineTuneTime = false, 0, 0, 0
			if tr.Measured != nil {
				m := *tr.Measured
				m.LatencyNS = 0
				tr.Measured = &m
			}
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("trace %d differs:\nlocal: %+v\ndist:  %+v", i, a, b)
		}
	}

	// Elites must be bit-identical through the wire: same structures, same
	// trained weights, byte-for-byte equal checkpoints.
	if len(local.Elites) != len(dist.Elites) {
		t.Fatalf("elite count differs: %d vs %d", len(local.Elites), len(dist.Elites))
	}
	for i := range local.Elites {
		a, b := local.Elites[i], dist.Elites[i]
		if a.Iteration != b.Iteration || a.FLOPs != b.FLOPs || a.FromElite != b.FromElite {
			t.Fatalf("elite %d metadata differs", i)
		}
		var ab, bb bytes.Buffer
		if err := parser.Save(&ab, a.Graph); err != nil {
			t.Fatal(err)
		}
		if err := parser.Save(&bb, b.Graph); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ab.Bytes(), bb.Bytes()) {
			t.Fatalf("elite %d checkpoints differ between local and distributed runs", i)
		}
	}
}

// TestPoolRejectsMismatchedWorld guards the world checksum: a worker built
// over different teachers must be refused at pool construction.
func TestPoolRejectsMismatchedWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ds := testutil.TinyFace(151, 32, 16)
	teacher := testutil.TinyMultiDNN(152, ds)
	testutil.PretrainTeachers(teacher, ds, 2, 0.004, 153)
	targets := map[int]float64{}
	w, err := gmorph.NewSearchWorker(teacher, ds, gmorph.Config{Targets: targets}, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()

	otherDs := testutil.TinyFace(161, 32, 16)
	other := testutil.TinyMultiDNN(162, otherDs)
	cfg := gmorph.Config{Targets: targets, Workers: []string{srv.URL}, SearchBatch: 2, Rounds: 2}
	if _, err := gmorph.Fuse(other, otherDs, cfg); err == nil {
		t.Fatal("coordinator accepted a worker with a different world")
	}
}
