package coord

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/parser"
)

// workerRef is one registered worker endpoint.
type workerRef struct {
	url   string
	slots int
}

// Pool fans evaluation batches across worker processes. It implements
// core.BatchEvaluator: the optimizer hands it a round's jobs, the pool
// serializes each candidate, posts it to a worker slot, and reassembles
// outcomes in job order. All search state stays on the coordinator; the
// workers are stateless evaluators.
type Pool struct {
	workers []workerRef
	client  *http.Client
	slots   int
}

// NewPool probes each worker URL's /info, verifies its world checksum
// against worldSum, and returns the pool. A mismatched or unreachable
// worker is an error — silently dropping it would change capacity, and a
// wrong-world worker would corrupt the search.
func NewPool(urls []string, worldSum string) (*Pool, error) {
	if len(urls) == 0 {
		return nil, fmt.Errorf("coord: no worker urls")
	}
	p := &Pool{client: &http.Client{Timeout: 10 * time.Minute}}
	for _, u := range urls {
		u = strings.TrimRight(u, "/")
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		info, err := p.fetchInfo(u)
		if err != nil {
			return nil, fmt.Errorf("coord: worker %s: %w", u, err)
		}
		if worldSum != "" && info.World != worldSum {
			return nil, fmt.Errorf("coord: worker %s world %s does not match coordinator %s",
				u, info.World, worldSum)
		}
		slots := info.Slots
		if slots <= 0 {
			slots = 1
		}
		p.workers = append(p.workers, workerRef{url: u, slots: slots})
		p.slots += slots
	}
	return p, nil
}

func (p *Pool) fetchInfo(url string) (*Info, error) {
	resp, err := p.client.Get(url + "/info")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("info: HTTP %d", resp.StatusCode)
	}
	var info Info
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, fmt.Errorf("info: %w", err)
	}
	return &info, nil
}

// Slots returns the pool's total evaluation concurrency.
func (p *Pool) Slots() int { return p.slots }

// Workers returns the registered worker URLs.
func (p *Pool) Workers() []string {
	urls := make([]string, len(p.workers))
	for i, w := range p.workers {
		urls[i] = w.url
	}
	return urls
}

// EvaluateBatch implements core.BatchEvaluator. Jobs are pulled from a
// shared index queue by one goroutine per worker slot, so a fast worker
// naturally takes more of the batch. Outcome order is job order; per-job
// results are independent of which worker ran them (seeded fine-tuning,
// lossless wire format), so scheduling cannot change the search.
func (p *Pool) EvaluateBatch(jobs []core.EvalJob) []core.EvalOutcome {
	outs := make([]core.EvalOutcome, len(jobs))
	idx := make(chan int, len(jobs))
	for i := range jobs {
		idx <- i
	}
	close(idx)
	var wg sync.WaitGroup
	for _, w := range p.workers {
		for s := 0; s < w.slots; s++ {
			wg.Add(1)
			go func(url string) {
				defer wg.Done()
				for i := range idx {
					outs[i] = p.evalOne(url, jobs[i])
				}
			}(w.url)
		}
	}
	wg.Wait()
	return outs
}

// evalOne runs one job on one worker, retrying once on transport errors
// (a retry is safe: evaluation is a pure function of the request).
func (p *Pool) evalOne(url string, job core.EvalJob) core.EvalOutcome {
	enc, err := parser.SaveBase64(job.Cand)
	if err != nil {
		return core.EvalOutcome{Err: fmt.Errorf("encode candidate: %w", err)}
	}
	req := EvalRequest{Graph: enc, Seed: job.Seed, Warm: job.Warm}
	body, err := json.Marshal(req)
	if err != nil {
		return core.EvalOutcome{Err: err}
	}
	var reply *EvalReply
	for attempt := 0; ; attempt++ {
		reply, err = p.postEval(url, body)
		if err == nil || attempt >= 1 {
			break
		}
	}
	if err != nil {
		return core.EvalOutcome{Err: fmt.Errorf("worker %s: %w", url, err)}
	}
	if reply.Error != "" {
		return core.EvalOutcome{Err: fmt.Errorf("worker %s: %s", url, reply.Error)}
	}
	out := core.EvalOutcome{Met: reply.Met, Report: reply.Report}
	if reply.Met && reply.Trained != "" {
		g, err := parser.LoadBase64(reply.Trained)
		if err != nil {
			return core.EvalOutcome{Err: fmt.Errorf("worker %s: decode trained graph: %w", url, err)}
		}
		out.Trained = g
	}
	return out
}

func (p *Pool) postEval(url string, body []byte) (*EvalReply, error) {
	resp, err := p.client.Post(url+"/eval", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("eval: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	var reply EvalReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return nil, fmt.Errorf("eval: %w", err)
	}
	return &reply, nil
}
