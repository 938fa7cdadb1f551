// Package explain records why the fusion search accepted, rejected, or
// skipped each candidate. Every decision the optimizer takes — a capacity
// rule firing, a predictor veto, a memo replay, a measured verdict — is
// captured as one structured FusionDecision, persisted alongside the
// search result, and rendered human-readably by `inspect -fusion`. The
// motivation follows "Applying Graph Explanation to Operator Fusion"
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
)

// Rule names: which filter, budget, or verdict decided a candidate's fate.
const (
	// RuleCapacity marks a candidate rejected by the capacity rule filter
	// before fine-tuning (the paper's "GMorph w P+R" skip).
	RuleCapacity = "capacity-rule"
	// RulePredictor marks a candidate the learned pre-ranker predicted to
	// violate the accuracy budget by more than the configured margin.
	RulePredictor = "predictor-margin"
	// RuleMemo marks a candidate whose outcome replayed from the
	// fingerprint memo instead of being re-measured.
	RuleMemo = "memo-replay"
	// RuleAccuracyMet marks a measured candidate that reached every
	// per-task accuracy target.
	RuleAccuracyMet = "accuracy-met"
	// RuleAccuracyBudget marks a measured candidate that missed at least
	// one per-task accuracy target.
	RuleAccuracyBudget = "accuracy-budget"
	// RuleEvalError marks a candidate whose evaluation failed outright
	// (e.g. a worker transport error in a distributed search).
	RuleEvalError = "eval-error"
)

// Outcome values.
const (
	OutcomeAccepted = "accepted"
	OutcomeRejected = "rejected"
	OutcomeSkipped  = "skipped"
)

// Scores is a (margin, latency) score pair. Margin is the minimum per-task
// accuracy headroom over the targets — negative means the budget is
// violated. LatencyNS is 0 when unknown (the search only measures latency
// for candidates that meet the targets).
type Scores struct {
	Margin    float64 `json:"margin"`
	LatencyNS float64 `json:"latency_ns,omitempty"`
}

// Decision is one per-candidate fusion decision: what was tried, what the
// predictor said, what the measurement said, and which rule fired.
type Decision struct {
	// Iteration is the search round that sampled the candidate.
	Iteration int `json:"iteration"`
	// Fingerprint is the candidate's canonical structural hash (empty for
	// rule-skipped candidates, whose fingerprint is never computed).
	Fingerprint string `json:"fingerprint,omitempty"`
	// FromElite tells whether the base graph was an elite.
	FromElite bool `json:"from_elite,omitempty"`
	// Mutation describes the share-point pairs the mutation pass merged.
	Mutation string `json:"mutation,omitempty"`
	// Outcome is accepted, rejected, or skipped.
	Outcome string `json:"outcome"`
	// Rule names the filter, budget, or verdict that decided the outcome.
	Rule string `json:"rule"`
	// CacheHit is true when the verdict replayed from the fingerprint memo.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Warm is true when fine-tuning ran under the warm-start budget.
	Warm bool `json:"warm,omitempty"`
	// Forced is true when the predictor wanted to skip the candidate but
	// periodic forced exploration measured it anyway.
	Forced bool `json:"forced,omitempty"`
	// Predicted holds the pre-ranker's scores (nil before it is trained).
	Predicted *Scores `json:"predicted,omitempty"`
	// Measured holds the measured scores (nil for skipped candidates).
	Measured *Scores `json:"measured,omitempty"`
	// Accuracy is the fine-tuned per-task metric (met candidates only).
	Accuracy map[int]float64 `json:"accuracy,omitempty"`
	// EpochsRun counts the fine-tuning epochs spent (or replayed).
	EpochsRun int `json:"epochs_run,omitempty"`
	// Elite is true when the candidate joined the elite list.
	Elite bool `json:"elite,omitempty"`
	// Best is true when the candidate became the incumbent best when it
	// was merged.
	Best bool `json:"best,omitempty"`
	// Detail carries extra context (error text, replay provenance).
	Detail string `json:"detail,omitempty"`
}

// file is the on-disk shape, versioned so future fields can be added
// without breaking old readers.
type file struct {
	Version   int        `json:"version"`
	Decisions []Decision `json:"decisions"`
}

// Save writes decisions to path as JSON, atomically, so a crashed run
// cannot leave a truncated report.
func Save(path string, ds []Decision) error {
	if err := atomicfile.WriteJSON(path, &file{Version: 1, Decisions: ds}); err != nil {
		return fmt.Errorf("explain: save: %w", err)
	}
	return nil
}

// Load reads a decision report written by Save.
func Load(path string) ([]Decision, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("explain: load: %w", err)
	}
	var f file
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("explain: parse %s: %w", path, err)
	}
	return f.Decisions, nil
}

// Render writes a human-readable fusion report: a summary of how the
// candidate stream was triaged, then one block per decision with the
// rationale (who fired, what the predictor guessed, what measurement said).
func Render(w io.Writer, ds []Decision) {
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
		len(ds), counts[OutcomeAccepted], counts[OutcomeRejected], counts[OutcomeSkipped], elites)
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

func renderOne(w io.Writer, d Decision) {
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
	if d.Forced {
		flags += " [forced-explore]"
	}
	fmt.Fprintf(w, "iter %4d  %s  %-8s %s%s\n", d.Iteration, fp, d.Outcome, d.Rule, flags)
	if d.Mutation != "" {
		base := "original"
		if d.FromElite {
			base = "elite"
		}
		fmt.Fprintf(w, "           mutated %s: %s\n", base, d.Mutation)
	}
	if d.Predicted != nil {
		line := fmt.Sprintf("predictor: margin %+.4f", d.Predicted.Margin)
		if d.Predicted.LatencyNS > 0 {
			line += fmt.Sprintf(", latency %s", time.Duration(d.Predicted.LatencyNS))
		}
		if d.Measured != nil {
			line += fmt.Sprintf(" (residual %+.4f)", d.Predicted.Margin-d.Measured.Margin)
		}
		fmt.Fprintf(w, "           %s\n", line)
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
