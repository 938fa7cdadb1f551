package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
)

// AblationPoint is one configuration of an ablation sweep.
type AblationPoint struct {
	// Setting describes the varied knob (e.g. "pairs=2").
	Setting string
	// Found reports whether the search met the targets.
	Found bool
	// Speedup of the best model (1 when !Found).
	Speedup float64
	// SearchSeconds spent.
	SearchSeconds float64
	// Elites accepted.
	Elites int
}

// RunAblationPairsPerPass sweeps the MaxPairsPerPass knob (how many node
// pairs one mutation pass applies) on B1: more pairs per pass explores more
// aggressive mutations per round at the cost of lower acceptance.
func RunAblationPairsPerPass(sc Scale, drop float64, values []int) ([]AblationPoint, error) {
	return runAblation(sc, drop, values, "pairs", func(v int) core.Config {
		return core.Config{MaxPairsPerPass: v, Seed: sc.Seed ^ uint64(v)}
	})
}

// RunAblationEliteCapacity sweeps N_i, the elite list capacity of the SA
// policy (paper default 16).
func RunAblationEliteCapacity(sc Scale, drop float64, values []int) ([]AblationPoint, error) {
	return runAblation(sc, drop, values, "elites", func(v int) core.Config {
		pol := core.NewSAPolicy()
		pol.MaxElites = v
		return core.Config{Policy: pol, Seed: sc.Seed ^ uint64(0xE11+v)}
	})
}

// runAblation searches B1 once per value of the swept knob; cfg turns a
// value into the search configuration that differs from the default.
func runAblation(sc Scale, drop float64, values []int, knob string, cfg func(v int) core.Config) ([]AblationPoint, error) {
	spec, err := SpecByID("B1")
	if err != nil {
		return nil, err
	}
	w, err := Build(spec, sc)
	if err != nil {
		return nil, err
	}
	origLat := engine.Latency(w.Teacher)
	var out []AblationPoint
	for _, v := range values {
		c := cfg(v)
		c.Rounds = sc.Rounds
		res := w.search(drop, VariantPlain, c)
		p := AblationPoint{
			Setting:       fmt.Sprintf("%s=%d", knob, v),
			SearchSeconds: res.SearchTime.Seconds(),
			Elites:        len(res.Elites),
			Speedup:       1,
		}
		if res.Best != nil {
			p.Found = true
			p.Speedup = float64(origLat) / float64(res.Best.Latency)
		}
		out = append(out, p)
	}
	return out, nil
}

// FormatAblation renders an ablation sweep.
func FormatAblation(title string, points []AblationPoint) string {
	s := title + "\n"
	for _, p := range points {
		s += fmt.Sprintf("  %-12s speedup %.2fx  search %.1fs  elites %d  found=%v\n",
			p.Setting, p.Speedup, p.SearchSeconds, p.Elites, p.Found)
	}
	return s
}
