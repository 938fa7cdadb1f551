package gmorph_test

import (
	"path/filepath"
	"testing"

	gmorph "repro"
)

// buildTinyTeachers assembles a two-task VGG-11 pair on the synthetic face
// stream and pre-trains it. Shared across the public-API tests and the
// search benchmarks.
func buildTinyTeachers(t testing.TB) (*gmorph.Model, *gmorph.Dataset, map[int]float64) {
	t.Helper()
	ds := gmorph.NewFaceDataset(96, 48, 32, 11, "gender", "ethnicity")
	rng := gmorph.NewRNG(12)
	m := gmorph.NewModel(gmorph.Shape{3, 32, 32})
	zoo := gmorph.ZooConfig{WidthScale: 4}
	if err := gmorph.AddBranch(m, rng, zoo, gmorph.VGG11, "gender", 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := gmorph.AddBranch(m, rng, zoo, gmorph.VGG11, "ethnicity", 1, 3); err != nil {
		t.Fatal(err)
	}
	acc, err := gmorph.Pretrain(m, ds, 8, 0.004, 13)
	if err != nil {
		t.Fatal(err)
	}
	for id, a := range acc {
		if a < 0.55 {
			t.Fatalf("teacher task %d only reached %.2f", id, a)
		}
	}
	return m, ds, acc
}

func TestFuseEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	teachers, ds, teacherAcc := buildTinyTeachers(t)
	origFLOPs := gmorph.FLOPs(teachers)

	res, err := gmorph.Fuse(teachers, ds, gmorph.Config{
		AccuracyDrop:   0.08,
		Rounds:         8,
		FineTuneEpochs: 10,
		LearningRate:   0.003,
		EvalEvery:      2,
		Seed:           3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("fusion found no candidate meeting the targets")
	}
	if res.Speedup <= 1 {
		t.Fatalf("speedup = %.2f, want > 1", res.Speedup)
	}
	if gmorph.FLOPs(res.Model) >= origFLOPs {
		t.Fatal("fused model does not reduce FLOPs")
	}
	// Accuracy within the allowed drop.
	finalAcc, err := gmorph.Evaluate(res.Model, ds)
	if err != nil {
		t.Fatal(err)
	}
	for id, target := range res.Targets {
		if finalAcc[id] < target-1e-9 {
			t.Fatalf("task %d accuracy %.3f below target %.3f (teacher %.3f)",
				id, finalAcc[id], target, teacherAcc[id])
		}
	}

	// Checkpoint round trip through the public API.
	path := filepath.Join(t.TempDir(), "fused.gmck")
	if err := gmorph.Save(path, res.Model); err != nil {
		t.Fatal(err)
	}
	loaded, err := gmorph.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	reAcc, err := gmorph.Evaluate(loaded, ds)
	if err != nil {
		t.Fatal(err)
	}
	for id := range finalAcc {
		if reAcc[id] != finalAcc[id] {
			t.Fatalf("reloaded model accuracy differs: %v vs %v", reAcc, finalAcc)
		}
	}

	// The fused engine must agree with the reference on the fused model.
	ref := gmorph.ReferenceEngine(res.Model)
	fused := gmorph.CompileFused(res.Model)
	x := ds.Test.Batch(0, 4)
	a := ref.Forward(x)
	b := fused.Forward(x)
	for id := range a {
		for i := range a[id].Data() {
			d := float64(a[id].Data()[i] - b[id].Data()[i])
			if d > 1e-3 || d < -1e-3 {
				t.Fatal("fused engine diverges from reference")
			}
		}
	}
}

// TestFuseSpeedupAgainstIncumbent: a latency-objective Best had to beat
// the original's measured latency, and Fuse reports against that very
// measurement, so a found model always reads faster than the original.
func TestFuseSpeedupAgainstIncumbent(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	teachers, ds, _ := buildTinyTeachers(t)
	found := 0
	for seed := uint64(1); seed <= 3; seed++ {
		res, err := gmorph.Fuse(teachers, ds, gmorph.Config{
			AccuracyDrop:   0.10,
			Rounds:         4,
			FineTuneEpochs: 4,
			LearningRate:   0.003,
			EvalEvery:      2,
			Seed:           seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			if res.Speedup != 1 || res.FusedLatency != res.OriginalLatency {
				t.Fatalf("seed %d: nothing found but speedup %.3f, fused %v vs original %v",
					seed, res.Speedup, res.FusedLatency, res.OriginalLatency)
			}
			continue
		}
		found++
		if res.FusedLatency >= res.OriginalLatency || res.Speedup <= 1 {
			t.Fatalf("seed %d: found a model at %v against original %v (speedup %.3f)",
				seed, res.FusedLatency, res.OriginalLatency, res.Speedup)
		}
	}
	if found == 0 {
		t.Fatal("no seed found a model; the check is vacuous")
	}
}

// TestFuseSearchSmoke drives a short random-policy search through the public
// API and checks the search-speed surface added with memoization: the
// fingerprint helper, the Stats counters, and their bookkeeping identity
// (every consulted candidate is either a hit or a miss, every miss is a
// fine-tuning run when no filtering is active).
func TestFuseSearchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	teachers, ds, _ := buildTinyTeachers(t)
	fp := gmorph.Fingerprint(teachers)
	if len(fp) != 16 {
		t.Fatalf("fingerprint %q, want 16 hex digits", fp)
	}
	if gmorph.Fingerprint(teachers) != fp {
		t.Fatal("fingerprint not stable across calls")
	}

	res, err := gmorph.Fuse(teachers, ds, gmorph.Config{
		AccuracyDrop:   0.10,
		Rounds:         6,
		FineTuneEpochs: 8,
		LearningRate:   0.003,
		EvalEvery:      2,
		RandomPolicy:   true,
		Seed:           17,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.FineTuned == 0 {
		t.Fatalf("no fine-tuning recorded: %+v", st)
	}
	// No rule filter and no early termination in this config: every sampled
	// candidate consults the cache, and every miss is fine-tuned.
	if st.CacheHits+st.CacheMisses != len(res.Traces) {
		t.Fatalf("cache consultations %d+%d don't cover %d rounds", st.CacheHits, st.CacheMisses, len(res.Traces))
	}
	if st.CacheMisses != st.FineTuned {
		t.Fatalf("misses %d != fine-tuned %d", st.CacheMisses, st.FineTuned)
	}
	if res.Found && gmorph.Fingerprint(res.Model) == fp {
		t.Fatal("fused model has the original's fingerprint")
	}
}

func TestFuseRejectsEmptyModel(t *testing.T) {
	ds := gmorph.NewFaceDataset(4, 4, 16, 1)
	m := gmorph.NewModel(gmorph.Shape{3, 16, 16})
	if _, err := gmorph.Fuse(m, ds, gmorph.Config{}); err == nil {
		t.Fatal("empty model accepted")
	}
}

func TestMTLBaselinesViaPublicAPI(t *testing.T) {
	teachers, _, _ := buildTinyTeachers(t)
	shared, err := gmorph.AllShared(teachers)
	if err != nil {
		t.Fatal(err)
	}
	if gmorph.FLOPs(shared) > gmorph.FLOPs(teachers) {
		t.Fatal("all-shared cost more than original")
	}
	rec, err := gmorph.TreeMTLRecommend(teachers)
	if err != nil {
		t.Fatal(err)
	}
	if gmorph.FLOPs(rec) > gmorph.FLOPs(teachers) {
		t.Fatal("TreeMTL recommendation cost more than original")
	}
}

func TestDatasetConstructors(t *testing.T) {
	face := gmorph.NewFaceDataset(8, 4, 16, 2)
	if len(face.Tasks) != 4 {
		t.Fatalf("face tasks = %d", len(face.Tasks))
	}
	scene := gmorph.NewSceneDataset(8, 4, 16, 3)
	if len(scene.Tasks) != 2 {
		t.Fatalf("scene tasks = %d", len(scene.Tasks))
	}
	text := gmorph.NewTextDataset(8, 4, 12, 4)
	if len(text.Tasks) != 2 {
		t.Fatalf("text tasks = %d", len(text.Tasks))
	}
}

func TestFuseFLOPsMetricAndRandomPolicy(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	teachers, ds, _ := buildTinyTeachers(t)
	res, err := gmorph.Fuse(teachers, ds, gmorph.Config{
		AccuracyDrop:   0.10,
		Rounds:         5,
		FineTuneEpochs: 8,
		LearningRate:   0.003,
		EvalEvery:      2,
		OptimizeFLOPs:  true,
		RandomPolicy:   true,
		Seed:           91,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found && gmorph.FLOPs(res.Model) >= gmorph.FLOPs(teachers) {
		t.Fatal("FLOPs-optimized fusion did not reduce FLOPs")
	}
	// Traces must exist regardless of outcome.
	if len(res.Traces) == 0 {
		t.Fatal("no traces recorded")
	}
}

func TestFuseOpGranularity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ds := gmorph.NewFaceDataset(64, 32, 32, 93, "gender", "ethnicity")
	rng := gmorph.NewRNG(94)
	m := gmorph.NewModel(gmorph.Shape{3, 32, 32})
	zoo := gmorph.ZooConfig{WidthScale: 4, OpGranularity: true}
	if err := gmorph.AddBranch(m, rng, zoo, gmorph.VGG11, "gender", 0, 2); err != nil {
		t.Fatal(err)
	}
	if err := gmorph.AddBranch(m, rng, zoo, gmorph.VGG11, "ethnicity", 1, 3); err != nil {
		t.Fatal(err)
	}
	if m.NodeCount() != 60 { // 2 x (8 conv + 8 bn + 8 relu + 5 pool + head)
		t.Fatalf("op-granularity node count %d, want 60", m.NodeCount())
	}
	if _, err := gmorph.Pretrain(m, ds, 6, 0.004, 95); err != nil {
		t.Fatal(err)
	}
	res, err := gmorph.Fuse(m, ds, gmorph.Config{
		AccuracyDrop:   0.10,
		Rounds:         5,
		FineTuneEpochs: 8,
		LearningRate:   0.003,
		EvalEvery:      2,
		Seed:           96,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found && gmorph.FLOPs(res.Model) >= gmorph.FLOPs(m) {
		t.Fatal("op-granularity fusion did not reduce cost")
	}
}
