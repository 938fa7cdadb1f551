// Command serve exposes saved (fused) model checkpoints over HTTP — the
// paper's model-serving deployment scenario — with dynamic request
// batching, per-model admission, and hot reload.
//
// Server mode (repeat -model to serve a fleet from one process):
//
//	serve -model face=face.gmck -model nlp=nlp.gmck -default nlp \
//	      -addr :8080 -pool 2 -max-batch 8 -max-wait 2ms -queue 64 \
//	      -slo 50ms -deadline 2s
//
// A bare -model path (no name=) serves the checkpoint as "default".
// Each model gets its own batcher and bounded queue: concurrent
// /v2/models/{name}/infer requests coalesce into batched forward passes
// of up to -max-batch samples. -max-wait is an upper bound: requests that
// queued behind a busy engine ride its next pass, and an idle engine
// leaves as soon as the callers it has seen are in. A full queue
// sheds with 429; when -slo is set, arrivals predicted to queue past the
// budget shed with 503; a request exceeding -deadline fails with 503.
// The /v1/* routes alias the default model. SIGHUP re-reads every
// checkpoint and hot-swaps models whose checksum changed — in-flight
// requests drain on the old weights, new arrivals run the new ones.
// SIGINT/SIGTERM drains all queues before exit.
//
// Client mode (typed repro/api client, no hand-rolled JSON):
//
//	serve -url http://localhost:8080 -models           # fleet listing
//	serve -url http://localhost:8080 -info             # model + stats
//	serve -url http://localhost:8080 -name face -infer-random 3
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/api"
	"repro/internal/graph"
	"repro/internal/httpapi"
	"repro/internal/quant"
	"repro/internal/serve/registry"
)

// modelFlags collects repeatable -model name=path arguments.
type modelFlags []struct{ name, path string }

func (m *modelFlags) String() string {
	var parts []string
	for _, e := range *m {
		parts = append(parts, e.name+"="+e.path)
	}
	return strings.Join(parts, ",")
}

func (m *modelFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok {
		// Bare path: derive the name from the file, or "default" when it
		// is the only model.
		path = v
		name = strings.TrimSuffix(filepath.Base(v), filepath.Ext(v))
		if len(*m) == 0 {
			name = httpapi.DefaultModelName
		}
	}
	if name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*m = append(*m, struct{ name, path string }{name, path})
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("serve: ")
	var models modelFlags
	flag.Var(&models, "model", "checkpoint to serve, as name=path; repeat for a fleet (bare path = \"default\")")
	defaultName := flag.String("default", "", "model the /v1/* surface aliases (default: first -model)")
	addr := flag.String("addr", ":8080", "listen address")
	pool := flag.Int("pool", 2, "compiled engine instances per model (in-flight batches)")
	maxBatch := flag.Int("max-batch", 8, "samples coalesced per forward pass")
	maxWait := flag.Duration("max-wait", 2*time.Millisecond, "upper bound on a batch's wait to fill; an idle engine leaves as soon as the callers it has seen are in")
	queueCap := flag.Int("queue", 0, "per-model pending-request queue bound (0 = 8*max-batch)")
	slo := flag.Duration("slo", 0, "per-model SLO budget: shed arrivals predicted to queue past it (0 = off)")
	deadline := flag.Duration("deadline", 0, "per-request time budget (0 = none)")
	drain := flag.Duration("drain", 10*time.Second, "shutdown drain budget")
	quantized := flag.Bool("quant", false, "serve each checkpoint's int8 quantization (error if absent); default strips annotations and serves f32")
	shareStem := flag.Int("share-stem", 0, "fuse models whose weight-identical prefix reaches this depth into one shared-stem plan (0 = off)")
	stemMemo := flag.Int("stem-memo", 0, "stem-activation memo entries per shared group (0 = no memoisation)")

	url := flag.String("url", "", "server URL (client mode)")
	name := flag.String("name", "", "client: model name to target (default: server's default model)")
	listModels := flag.Bool("models", false, "client: list every served model")
	info := flag.Bool("info", false, "client: print model metadata and stats")
	inferRandom := flag.Int("infer-random", 0, "client: send N random samples")
	flag.Parse()

	switch {
	case *url != "":
		if err := runClient(*url, *name, *listModels, *info, *inferRandom); err != nil {
			log.Fatal(err)
		}
	case len(models) > 0:
		opts := registry.ModelOptions{
			Pool:        *pool,
			MaxBatch:    *maxBatch,
			MaxWait:     *maxWait,
			QueueCap:    *queueCap,
			SLOBudget:   *slo,
			Prepare:     prepare(*quantized),
			ShareStem:   *shareStem,
			StemMemoCap: *stemMemo,
		}
		if err := runServer(models, *defaultName, *addr, opts, *deadline, *drain); err != nil {
			log.Fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// prepare returns the per-load graph hook: serve the int8 quantization
// when asked (refusing checkpoints without one), otherwise strip the
// annotations and serve f32. Runs again on every SIGHUP reload.
func prepare(quantized bool) func(*graph.Graph) error {
	return func(g *graph.Graph) error {
		if quantized {
			n := quant.QuantizedOps(g)
			if n == 0 {
				return fmt.Errorf("checkpoint carries no int8 quantization (run gmorph.Quantize and re-save)")
			}
			log.Printf("int8 serving: %d quantized ops", n)
			if q := g.Quant; q != nil {
				for id, base := range q.Baseline {
					log.Printf("  task %d metric %.4f -> %.4f (budget %.4f)", id, base, q.Quantized[id], q.Budget)
				}
			}
		} else if n := quant.Strip(g); n > 0 {
			log.Printf("stripped %d int8 annotations (pass -quant to serve them)", n)
		}
		return nil
	}
}

func runServer(models modelFlags, defaultName, addr string, opts registry.ModelOptions, deadline, drain time.Duration) error {
	reg := registry.New()
	for _, e := range models {
		m, err := reg.Load(e.name, e.path, opts)
		if err != nil {
			return fmt.Errorf("loading %s: %w", e.name, err)
		}
		snap, err := m.Snapshot()
		if err != nil {
			return err
		}
		log.Printf("model %s (%s): %d tasks, %d blocks, input %v, plan %d ops",
			e.name, snap.Checksum, len(snap.Graph.Heads), snap.Graph.NodeCount(),
			snap.InputShape, snap.PlanOps)
	}
	if defaultName != "" {
		if err := reg.SetDefault(defaultName); err != nil {
			return err
		}
	}
	for _, m := range reg.Models() {
		if snap, err := m.Snapshot(); err == nil && snap.Shared != nil {
			log.Printf("model %s shares a depth-%d stem (%s) with %v",
				m.Name(), snap.Shared.Depth, snap.Shared.Fingerprint, snap.Shared.Members)
		}
	}

	apiSrv := httpapi.NewRegistry(reg, deadline)
	srv := &http.Server{
		Addr:              addr,
		Handler:           apiSrv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGHUP: checksum-diff reload. Unchanged checkpoints are no-ops;
	// changed ones hot-swap with the old deployment draining in place.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			for _, m := range reg.Models() {
				swapCtx, cancel := context.WithTimeout(context.Background(), drain)
				swapped, rec, err := m.Reload(swapCtx)
				cancel()
				switch {
				case err != nil:
					log.Printf("reload %s: %v", m.Name(), err)
				case swapped:
					log.Printf("reload %s: v%d -> v%d (%s), drained in %dus",
						m.Name(), rec.FromVersion, rec.ToVersion, rec.ToChecksum, rec.DrainMicros)
				default:
					log.Printf("reload %s: checksum unchanged", m.Name())
				}
			}
		}
	}()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	log.Printf("listening on %s: %d model(s), default %q (pool=%d max-batch=%d max-wait=%v slo=%v)",
		addr, len(reg.Names()), reg.DefaultName(), opts.Pool, opts.MaxBatch, opts.MaxWait, opts.SLOBudget)

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	log.Printf("shutting down: draining batch queues (budget %v)", drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := apiSrv.Shutdown(shutdownCtx); err != nil {
		// The drain budget expired with requests still in flight; those
		// clients never get an answer, which deserves a hard failure.
		return fmt.Errorf("drain timed out, abandoning %d in-flight requests: %w", apiSrv.Pending(), err)
	}
	log.Printf("drained cleanly")
	return nil
}

// histString renders a batch-size histogram as "size:count" pairs in
// ascending size order.
func histString(h map[int]int64) string {
	sizes := make([]int, 0, len(h))
	for s := range h {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)
	var parts []string
	for _, s := range sizes {
		parts = append(parts, fmt.Sprintf("%d:%d", s, h[s]))
	}
	return strings.Join(parts, " ")
}

func runClient(url, name string, listModels, info bool, inferRandom int) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := api.NewClient(url)

	if listModels {
		list, err := c.Models(ctx)
		if err != nil {
			return err
		}
		for _, m := range list.Models {
			def := " "
			if m.Default {
				def = "*"
			}
			fmt.Printf("%s %-16s v%-3d %s input %v tasks %v plan %d ops queue %d requests %d\n",
				def, m.Name, m.Version, m.Checksum, m.InputShape, m.Tasks,
				m.PlanOps, m.QueueDepth, m.Requests)
		}
		return nil
	}

	// Resolve metadata from the named model, or the v1 default surface.
	var model *api.ModelInfo
	var err error
	if name != "" {
		model, err = c.ModelInfo(ctx, name)
	} else {
		model, err = c.Model(ctx)
	}
	if err != nil {
		return err
	}
	if info || inferRandom == 0 {
		if model.Name != "" {
			fmt.Printf("model: %s v%d %s\n", model.Name, model.Version, model.Checksum)
		}
		fmt.Printf("input shape: %v\nblocks: %d\nparameters: %d\nflops/sample: %d\n",
			model.InputShape, model.Blocks, model.Params, model.FLOPs)
		for taskName, classes := range model.Tasks {
			fmt.Printf("task %-12s -> %d outputs\n", taskName, classes)
		}
		if ss := model.SharedStem; ss != nil {
			fmt.Printf("shared stem: depth %d fingerprint %s members %v\n",
				ss.Depth, ss.Fingerprint, ss.Members)
		}
	}
	if inferRandom > 0 {
		per := 1
		for _, d := range model.InputShape {
			per *= d
		}
		rng := rand.New(rand.NewSource(time.Now().UnixNano()))
		for i := 0; i < inferRandom; i++ {
			input := make([]float32, per)
			for j := range input {
				if model.Vocab > 0 {
					input[j] = float32(rng.Intn(model.Vocab))
				} else {
					input[j] = rng.Float32()
				}
			}
			var resp *api.InferResponse
			if name != "" {
				resp, err = c.InferModel(ctx, name, input)
			} else {
				resp, err = c.Infer(ctx, input)
			}
			if err != nil {
				return err
			}
			fmt.Printf("sample %d: %d tasks, %dus\n", i, len(resp.Outputs), resp.Micros)
		}
	}
	if name != "" {
		st, err := c.ModelStats(ctx, name)
		if err != nil {
			return err
		}
		fmt.Printf("stats: %d requests, %d rejected, %d slo-shed, %d expired, queue %d, mean batch %.2f, p50 %.0fus p95 %.0fus p99 %.0fus\n",
			st.Requests, st.Rejected, st.SLOShed, st.Expired, st.QueueDepth, st.MeanBatch,
			st.P50Micros, st.P95Micros, st.P99Micros)
		if ss := st.SharedStem; ss != nil {
			total := ss.MemoHits + ss.MemoMisses
			rate := 0.0
			if total > 0 {
				rate = float64(ss.MemoHits) / float64(total) * 100
			}
			fmt.Printf("shared stem: members %v depth %d, memo %d/%d hits (%.1f%%), %d evictions, %d entries, %d mixed batches\n",
				ss.Members, ss.Depth, ss.MemoHits, total, rate, ss.MemoEvictions, ss.MemoEntries, ss.MixedBatches)
			if len(ss.StemBatchHist) > 0 {
				fmt.Printf("stem batches: %s\n", histString(ss.StemBatchHist))
			}
		}
		for _, rec := range st.Swaps {
			fmt.Printf("swap: v%d -> v%d (%s) drain %dus abandoned %d\n",
				rec.FromVersion, rec.ToVersion, rec.ToChecksum, rec.DrainMicros, rec.Abandoned)
		}
		return nil
	}
	st, err := c.Stats(ctx)
	if err != nil {
		return err
	}
	fmt.Printf("stats: %d requests, %d rejected, %d expired, queue %d, mean batch %.2f, p50 %.0fus p95 %.0fus p99 %.0fus\n",
		st.Requests, st.Rejected, st.Expired, st.QueueDepth, st.MeanBatch,
		st.P50Micros, st.P95Micros, st.P99Micros)
	if st.Registry != nil {
		fmt.Printf("fleet: %d models, %d swaps (cumulative drain %dus)\n",
			st.Registry.ModelsLoaded, st.Registry.SwapsCompleted, st.Registry.SwapDrainMicros)
	}
	return nil
}
