package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"repro/api"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/httpapi"
	"repro/internal/models"
	"repro/internal/serve/registry"
	"repro/internal/tensor"
)

const (
	// sharedDepth is how many leading blocks the serve.shared pair shares.
	sharedDepth = 6
	// sharedCallers drive serve.shared; serve.solo uses nproc callers.
	sharedCallers = 8
	// hotFrames is the serve.shared hot set; the other half of its frames
	// are unique.
	hotFrames = 64
	// checkEvery samples one response in this many for the reference check.
	checkEvery = 50
)

// servedModel is one registered model and what a response must contain.
type servedModel struct {
	name string
	g    *graph.Graph
}

// serveFixture is a registry of deployed models behind the HTTP surface.
type serveFixture struct {
	srv     *httpapi.Server
	handler http.Handler
	// ts and client exist when callers go over loopback sockets.
	ts     *httptest.Server
	client *http.Client
	models []servedModel
}

func (fx *serveFixture) close() {
	if fx == nil {
		return
	}
	if fx.ts != nil {
		fx.ts.Close()
		fx.client.CloseIdleConnections()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = fx.srv.Shutdown(ctx) // teardown; every request was already answered
}

func simWidth(o options) models.Config {
	if o.smoke {
		return models.Config{WidthScale: 4}
	}
	return models.Config{WidthScale: 1}
}

// soloGraph builds B1 (3xVGG-13 over 3x32x32) at sim width, fused like the
// infer fixtures. Serving needs no trained weights.
func soloGraph(o options) (*graph.Graph, error) {
	orig, err := zooGraph(graph.Shape{3, 32, 32}, simWidth(o),
		[]string{models.VGG13, models.VGG13, models.VGG13},
		[]string{"age", "gender", "ethnicity"}, []int{4, 2, 3})
	if err != nil {
		return nil, err
	}
	return shareTrunk(orig)
}

// sharedPair builds two single-head VGG-13 models cut from one set of
// weights: the first sharedDepth blocks are bit-identical, everything after
// them differs, as two fine-tunes of one backbone would.
func sharedPair(o options) ([]servedModel, error) {
	var pair []servedModel
	for i, name := range []string{"a", "b"} {
		g, err := zooGraph(graph.Shape{3, 32, 32}, simWidth(o), []string{models.VGG13}, []string{name}, []int{4 - i})
		if err != nil {
			return nil, err
		}
		pair = append(pair, servedModel{name: name, g: g})
	}
	rng := tensor.NewRNG(fixtureSeed + 1)
	for _, n := range pair[1].g.Path(pair[1].g.Heads[0])[sharedDepth:] {
		for _, p := range n.Layer.Params() {
			rng.FillNormal(p.Value, 0, 0.05)
		}
	}
	return pair, nil
}

// buildServe registers the models and puts the HTTP surface in front of
// them, over a loopback listener when sockets is set.
func buildServe(tr *tracer, served []servedModel, opts registry.ModelOptions, sockets bool) (*serveFixture, error) {
	reg := registry.New()
	for _, m := range served {
		if _, err := reg.Register(m.name, m.g, opts); err != nil {
			return nil, err
		}
	}
	fx := &serveFixture{srv: httpapi.NewRegistry(reg, 0), models: served}
	fx.handler = fx.srv.Handler()
	if tr != nil {
		fx.handler = tr.wrap("httpapi.handler", fx.handler)
	}
	if sockets {
		fx.ts = httptest.NewServer(fx.handler)
		fx.client = &http.Client{Transport: spanTransport{&http.Transport{MaxIdleConnsPerHost: 64}}}
	}
	if opts.ShareStem > 0 {
		m, err := reg.Get(served[0].name)
		if err == nil && m.Stats().Shared == nil {
			err = fmt.Errorf("models %q and %q did not form a shared-stem group", served[0].name, served[1].name)
		}
		if err != nil {
			fx.close()
			return nil, err
		}
	}
	return fx, nil
}

// infer sends one frame to a model and decodes the reply. hdr, when set,
// carries the caller's span to the handler.
func (fx *serveFixture) infer(model string, frame []float32, hdr string) (*api.InferResponse, error) {
	if fx.ts != nil {
		ctx := context.Background()
		if hdr != "" {
			ctx = context.WithValue(ctx, spanKey{}, hdr)
		}
		c := api.Client{BaseURL: fx.ts.URL, HTTPClient: fx.client}
		return c.InferModel(ctx, model, frame)
	}
	body, err := json.Marshal(api.InferRequest{Input: frame})
	if err != nil {
		return nil, err
	}
	req := httptest.NewRequest(http.MethodPost, "/v2/models/"+model+"/infer", bytes.NewReader(body))
	if hdr != "" {
		req.Header.Set(spanHeader, hdr)
	}
	rec := httptest.NewRecorder()
	fx.handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	var resp api.InferResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// complete reports whether a response carries one row per task of m.
func complete(m servedModel, resp *api.InferResponse) bool {
	if len(resp.Outputs) != len(m.g.Heads) {
		return false
	}
	for id, head := range m.g.Heads {
		rows := resp.Outputs[m.g.TaskNames[id]]
		if len(rows) != 1 || len(rows[0]) != graph.OutShapeOf(head)[0] {
			return false
		}
	}
	return true
}

// call is one request a caller makes: a frame of the pool to a model.
type call struct{ model, frame int }

// sampled is a response kept for the reference check after the window.
type sampled struct {
	call
	resp *api.InferResponse
}

// callerLog is what one caller goroutine saw.
type callerLog struct {
	samples   []float64
	attempted int
	errs      []string
	checks    []sampled
}

// drive runs the closed loop: callers goroutines, each asking next for its
// i-th iteration's calls and making them one after another, until the
// window ends. It returns the merged logs' reference samples.
func (fx *serveFixture) drive(rep *report, o options, tr *tracer, pool *framePool, callers int,
	next func(c, i int, rng *tensor.RNG) []call) []sampled {
	window := time.Duration(o.seconds * float64(time.Second))
	logs := make([]callerLog, callers)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			log := &logs[c]
			rng := tensor.NewRNG(o.seed*1000 + uint64(c))
			for i := 0; time.Since(start) < window; i++ {
				for _, cl := range next(c, i, rng) {
					m := fx.models[cl.model]
					req := int64(c)<<32 | int64(log.attempted)
					id := tr.begin("api.InferModel", -1, req)
					hdr := ""
					if tr != nil {
						hdr = fmt.Sprintf("%d:%d", id, req)
					}
					t0 := time.Now()
					resp, err := fx.infer(m.name, pool.frame(cl.frame), hdr)
					d := time.Since(t0)
					tr.end(id)
					log.attempted++
					switch {
					case err != nil:
						log.errs = append(log.errs, err.Error())
					case !complete(m, resp):
						log.errs = append(log.errs, "response is missing a task output")
					default:
						log.samples = append(log.samples, float64(d)/1e6)
						if log.attempted%checkEvery == 1 {
							log.checks = append(log.checks, sampled{cl, resp})
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()
	rep.window = time.Since(start).Seconds()

	var checks []sampled
	for _, log := range logs {
		rep.attempted += log.attempted
		rep.samples = append(rep.samples, log.samples...)
		checks = append(checks, log.checks...)
		if len(log.errs) > 0 {
			rep.fail(len(log.errs), "%d requests failed, first: %s", len(log.errs), log.errs[0])
		}
	}
	return checks
}

// checkSamples compares the sampled responses to a direct eager forward of
// the same frame through the same model.
func (fx *serveFixture) checkSamples(rep *report, pool *framePool, samples []sampled) {
	refs := make([]*engine.Reference, len(fx.models))
	for i, m := range fx.models {
		refs[i] = engine.NewReference(m.g)
	}
	for _, s := range samples {
		m := fx.models[s.model]
		frame := append([]float32(nil), pool.frame(s.frame)...)
		want := refs[s.model].Forward(tensor.FromSlice(frame, append([]int{1}, m.g.Root.InputShape...)...))
		ok := true
		for id, w := range want {
			ok = ok && relErr(s.resp.Outputs[m.g.TaskNames[id]][0], w.Data()) <= 1e-3
		}
		rep.check(ok, "model %s frame %d: response differs from a direct eager forward", m.name, s.frame)
	}
}

func runServeSolo(o options, tr *tracer) (*report, error) {
	rep := &report{}
	opts := registry.ModelOptions{Pool: 1, MaxBatch: 8, MaxWait: 500 * time.Microsecond}
	fx, err := setupN(rep, o, func() (*serveFixture, error) {
		g, err := soloGraph(o)
		if err != nil {
			return nil, err
		}
		return buildServe(tr, []servedModel{{name: "b1", g: g}}, opts, true)
	}, (*serveFixture).close)
	if err != nil {
		return nil, err
	}
	defer fx.close()

	pool := newFramePool(o.seed, 3*32*32)
	callers := runtime.GOMAXPROCS(0)
	// Every frame distinct: caller c's i-th request takes frame c + i*callers.
	samples := fx.drive(rep, o, tr, pool, callers, func(c, i int, _ *tensor.RNG) []call {
		return []call{{0, c + i*callers}}
	})
	fx.checkSamples(rep, pool, samples)
	if tr != nil {
		serveLayerMetrics(rep, o, tr, fx, pool)
	}
	return rep, nil
}

func runServeShared(o options, tr *tracer) (*report, error) {
	rep := &report{}
	opts := registry.ModelOptions{
		Pool: 1, MaxBatch: 8, MaxWait: 500 * time.Microsecond,
		ShareStem: sharedDepth, StemMemoCap: 256,
	}
	fx, err := setupN(rep, o, func() (*serveFixture, error) {
		pair, err := sharedPair(o)
		if err != nil {
			return nil, err
		}
		return buildServe(tr, pair, opts, false)
	}, (*serveFixture).close)
	if err != nil {
		return nil, err
	}
	defer fx.close()

	pool := newFramePool(o.seed, 3*32*32)
	// Each caller sends every frame to both models. Half the frames come
	// from the hot set (frames 0..hotFrames-1), half are unique to their
	// caller and iteration, so the stem memo sees hits, misses and
	// doorkeeper-filtered first sightings in one run.
	samples := fx.drive(rep, o, tr, pool, sharedCallers, func(c, i int, rng *tensor.RNG) []call {
		frame := hotFrames + c + i*sharedCallers
		if rng.Intn(2) == 0 {
			frame = rng.Intn(hotFrames)
		}
		return []call{{0, frame}, {1, frame}}
	})
	fx.checkSamples(rep, pool, samples)
	if tr != nil {
		serveLayerMetrics(rep, o, tr, fx, pool)
	}
	return rep, nil
}

// serveLayerMetrics fills the httpapi, batcher and registry rows from the
// request spans and the counters the serving layers export.
func serveLayerMetrics(rep *report, o options, tr *tracer, fx *serveFixture, pool *framePool) {
	m := map[string]float64{}

	// httpapi + api: the handler span is the caller span's child; what the
	// caller saw beyond it is transport (client encode, the HTTP hop,
	// client decode).
	spans := tr.snapshot()
	var caller, handler, transport []float64
	for _, s := range spans {
		if s.Name != "httpapi.handler" || s.Parent < 0 {
			continue
		}
		p := spans[s.Parent]
		h, c := float64(s.End-s.Start)/1e3, float64(p.End-p.Start)/1e3
		caller, handler, transport = append(caller, c), append(handler, h), append(transport, c-h)
	}
	m["handler_us"], m["transport_us"] = median(handler), median(transport)
	rep.check(math.Abs(median(caller)-m["handler_us"]-m["transport_us"]) <= 0.1*median(caller),
		"caller latency %.0f us is not handler %.0f us + transport %.0f us within 10%%",
		median(caller), m["handler_us"], m["transport_us"])

	// The same payloads through the api types, timed standalone.
	first := fx.models[0]
	body, _ := json.Marshal(api.InferRequest{Input: pool.frame(0)})
	resp, err := fx.infer(first.name, pool.frame(0), "")
	if err == nil {
		var req api.InferRequest
		m["json_decode_us"] = 1e3 * timeMedian(200, func() { _ = json.Unmarshal(body, &req) })
		m["json_encode_us"] = 1e3 * timeMedian(200, func() { _, _ = json.Marshal(resp) })
	}

	// batcher + registry counters. A shared-stem group has one batcher, so
	// its counters are read once, from the first member.
	mod, err := fx.srv.Registry().Get(first.name)
	if err != nil {
		rep.fail(1, "reading stats: %v", err)
		return
	}
	st := mod.Stats()
	bat := st.Batcher
	m["mean_batch"] = bat.MeanBatch
	for size := range bat.BatchHist {
		m["max_batch"] = max(m["max_batch"], float64(size))
	}
	m["expired"] = float64(bat.Expired)
	for _, sm := range fx.models {
		if mm, err := fx.srv.Registry().Get(sm.name); err == nil {
			s := mm.Stats()
			m["rejected"] += float64(s.Rejected)
			m["slo_shed"] += float64(s.Shed)
		}
	}
	m["handler_self_us"] = m["handler_us"] - bat.MeanMicros
	// What httpapi and api cost a request between them: everything the
	// caller waited for outside the batcher.
	m["httpapi_share"] = (m["transport_us"] + m["handler_self_us"]) / median(caller)

	// forwardUS is one batch's forward: op nanos per batch for a solo
	// model, a standalone shared-plan forward at the mean batch for a group
	// (the registry does not export a group's op counters).
	var forwardUS float64
	if sh := st.Shared; sh != nil {
		if n := sh.MemoHits + sh.MemoMisses; n > 0 {
			m["stem_memo_hit_ratio"] = float64(sh.MemoHits) / float64(n)
		}
		m["memo_filtered"] = float64(sh.MemoFiltered)
		if bat.Batches > 0 {
			m["mixed_batch_ratio"] = float64(sh.MixedBatches) / float64(bat.Batches)
		}
		eng, err := engine.CompileShared([]*graph.Graph{fx.models[0].g, fx.models[1].g}, sh.Depth, nil, nil)
		if err == nil {
			rows := max(1, int(math.Round(bat.MeanBatch)))
			x := tensor.New(rows, 3, 32, 32)
			for r := 0; r < rows; r++ {
				copy(x.Data()[r*pool.per:], pool.frame(r))
			}
			eng.Forward(x)
			forwardUS = 1e3 * timeMedian(30, func() { eng.Forward(x) })
			var stem, all float64
			for _, op := range eng.OpStats() {
				all += float64(op.Nanos)
				if op.Wave < eng.Plan().StemWaves {
					stem += float64(op.Nanos)
				}
			}
			if all > 0 {
				m["stem_busy_share"], m["heads_busy_share"] = stem/all, 1-stem/all
			}
		}
	} else if bat.Batches > 0 {
		var nanos float64
		for _, f := range mod.Fused() {
			for _, op := range f.OpStats() {
				nanos += float64(op.Nanos)
			}
		}
		forwardUS = nanos / 1e3 / float64(bat.Batches)
		if probe, err := runSerialProbe(o); err != nil {
			rep.notes = append(rep.notes, "serial probe skipped: "+err.Error())
		} else {
			m["plan_overhead_us"] = probe.overheadUS()
			rep.check(probe.overheadUS() >= 0,
				"serial forward %.0f us is less than its op nanos %.0f us", probe.MeanUS, probe.OpSumUS)
		}
	}
	m["queue_wait_us"] = bat.MeanMicros - forwardUS
	if st.Shared != nil {
		rep.expect(bat.MeanBatch > 2, fmt.Sprintf("mean_batch %.2f > 2", bat.MeanBatch))
		rep.expect(m["stem_memo_hit_ratio"] >= 0.35 && m["stem_memo_hit_ratio"] <= 0.65,
			fmt.Sprintf("stem_memo_hit_ratio %.2f in [0.35, 0.65]", m["stem_memo_hit_ratio"]))
	} else {
		rep.expect(bat.MeanBatch <= float64(runtime.GOMAXPROCS(0)), fmt.Sprintf("mean_batch %.2f <= nproc", bat.MeanBatch))
		rep.expect(m["httpapi_share"] >= 0.2, fmt.Sprintf("httpapi_share %.2f >= 0.2: JSON and the HTTP hop are a visible part of the request", m["httpapi_share"]))
	}
	rep.layer = m
	rep.notes = append(rep.notes, fmt.Sprintf("batch_hist=%v batcher_mean_us=%.0f forward_us=%.0f", bat.BatchHist, bat.MeanMicros, forwardUS))
}
