package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/engine"
	"repro/internal/parser"
)

// SearchState is the persistent form of an in-progress search: the elite
// candidates (the paper's History Database of well-trained abs-graphs and
// weights) plus the iteration counter driving the temperature schedule.
// It allows a long search to be stopped and resumed.
type SearchState struct {
	// Iteration is the last iteration the search sampled.
	Iteration int `json:"iteration"`
	// Elites describes the persisted candidates, in order.
	Elites []EliteMeta `json:"elites"`
}

// EliteMeta is the serializable part of an Elite; the graph itself is
// stored as a sibling checkpoint file. Latency is not persisted: it belongs
// to the machine and the measurement, so LoadState re-measures it (files
// that still carry a latency_ns field load; the field is ignored).
type EliteMeta struct {
	File       string          `json:"file"`
	FLOPs      int64           `json:"flops"`
	Accuracy   map[int]float64 `json:"accuracy"`
	FromElite  bool            `json:"from_elite"`
	FineTuneNS int64           `json:"finetune_ns"`
	Iteration  int             `json:"iteration"`
}

// SaveState persists a search result into dir: one checkpoint per elite
// plus a state.json manifest. The directory is created if needed.
func SaveState(dir string, res *Result, lastIteration int) error {
	st := SearchState{Iteration: lastIteration}
	for i, e := range res.Elites {
		name := fmt.Sprintf("elite_%03d.gmck", i)
		if err := parser.SaveFile(filepath.Join(dir, name), e.Graph); err != nil {
			return fmt.Errorf("core: saving elite %d: %w", i, err)
		}
		st.Elites = append(st.Elites, EliteMeta{
			File: name, FLOPs: e.FLOPs,
			Accuracy: e.Accuracy, FromElite: e.FromElite,
			FineTuneNS: int64(e.FineTuneTime), Iteration: e.Iteration,
		})
	}
	return atomicfile.WriteJSON(filepath.Join(dir, "state.json"), st)
}

// ErrNoState reports a directory that holds no saved search (no
// state.json): a fresh start, unlike a manifest or an elite that fails to
// load.
var ErrNoState = errors.New("core: no saved search state")

// LoadState restores a persisted search state: the elites (with their
// trained graphs) and the last completed iteration. Each elite's latency is
// measured afresh (engine.Latency), so a resumed search ranks its saved
// elites against new candidates on one measurement. A missing state.json
// is ErrNoState.
func LoadState(dir string) ([]*Elite, int, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "state.json"))
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, fmt.Errorf("%w in %s", ErrNoState, dir)
	}
	if err != nil {
		return nil, 0, err
	}
	var st SearchState
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, 0, fmt.Errorf("core: parsing state.json: %w", err)
	}
	elites := make([]*Elite, 0, len(st.Elites))
	for _, m := range st.Elites {
		g, err := parser.LoadFile(filepath.Join(dir, m.File))
		if err != nil {
			return nil, 0, fmt.Errorf("core: loading %s: %w", m.File, err)
		}
		elites = append(elites, &Elite{
			Graph: g, Latency: engine.Latency(g), FLOPs: m.FLOPs,
			Accuracy: m.Accuracy, FromElite: m.FromElite,
			FineTuneTime: time.Duration(m.FineTuneNS), Iteration: m.Iteration,
		})
	}
	return elites, st.Iteration, nil
}
