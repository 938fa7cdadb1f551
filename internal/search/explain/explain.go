// Package explain persists and renders why the fusion search accepted,
// rejected, or skipped each candidate. Every decision the optimizer takes —
// a capacity rule firing, a memo replay, a measured verdict — is recorded
// on the candidate's core.Trace; this package saves those records as a
// decision file and renders them human-readably for `inspect -fusion`.
// The motivation follows "Applying Graph Explanation to Operator Fusion"
// (PAPERS.md): a fusion system that cannot say why a share point won is
// very hard to trust or debug.
package explain

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/core"
)

// file is the on-disk shape, versioned so future fields can be added
// without breaking old readers.
type file struct {
	Version int          `json:"version"`
	Records []core.Trace `json:"decisions"`
}

// Save writes the search's records to path as JSON, atomically, so a
// crashed run cannot leave a truncated report.
func Save(path string, ds []core.Trace) error {
	if err := atomicfile.WriteJSON(path, &file{Version: 1, Records: ds}); err != nil {
		return fmt.Errorf("explain: save: %w", err)
	}
	return nil
}

// Load reads a decision report written by Save.
func Load(path string) ([]core.Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("explain: load: %w", err)
	}
	var f file
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("explain: parse %s: %w", path, err)
	}
	return f.Records, nil
}

// Render writes a human-readable fusion report: a summary of how the
// candidate stream was triaged, then one block per decision with the
// rationale (who fired, what measurement said).
func Render(w io.Writer, ds []core.Trace) {
	counts := map[string]int{}
	rules := map[string]int{}
	elites := 0
	for _, d := range ds {
		counts[d.Outcome]++
		rules[d.Rule]++
		if d.Elite {
			elites++
		}
	}
	fmt.Fprintf(w, "fusion decisions: %d candidates (%d accepted, %d rejected, %d skipped), %d elites\n",
		len(ds), counts[core.OutcomeAccepted], counts[core.OutcomeRejected], counts[core.OutcomeSkipped], elites)
	names := make([]string, 0, len(rules))
	for r := range rules {
		names = append(names, r)
	}
	sort.Strings(names)
	for _, r := range names {
		fmt.Fprintf(w, "  %-18s fired %d times\n", r, rules[r])
	}
	fmt.Fprintln(w)
	for _, d := range ds {
		renderOne(w, d)
	}
}

func renderOne(w io.Writer, d core.Trace) {
	fp := d.Fingerprint
	if fp == "" {
		fp = "----------------"
	}
	flags := ""
	if d.Elite {
		flags += " [elite]"
	}
	if d.Best {
		flags += " [best]"
	}
	fmt.Fprintf(w, "iter %4d  %s  %-8s %s%s\n", d.Iteration, fp, d.Outcome, d.Rule, flags)
	if d.Mutation != "" {
		base := "original"
		if d.FromElite {
			base = "elite"
		}
		fmt.Fprintf(w, "           mutated %s: %s\n", base, d.Mutation)
	}
	if d.Measured != nil {
		line := fmt.Sprintf("measured:  margin %+.4f", d.Measured.Margin)
		if d.Measured.LatencyNS > 0 {
			line += fmt.Sprintf(", latency %s", time.Duration(d.Measured.LatencyNS))
		}
		src := "fine-tuned"
		if d.CacheHit {
			src = "memo replay"
		}
		if d.Warm {
			src += ", warm-start"
		}
		fmt.Fprintf(w, "           %s, %d epochs (%s)\n", line, d.EpochsRun, src)
	}
	if len(d.Accuracy) > 0 {
		ids := make([]int, 0, len(d.Accuracy))
		for id := range d.Accuracy {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		line := "accuracy: "
		for i, id := range ids {
			if i > 0 {
				line += ", "
			}
			line += fmt.Sprintf("task %d %.4f", id, d.Accuracy[id])
		}
		fmt.Fprintf(w, "           %s\n", line)
	}
	if d.Detail != "" {
		fmt.Fprintf(w, "           %s\n", d.Detail)
	}
}
