package batcher_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/serve/batcher"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

func tinyEngines(t *testing.T, n int) ([]engine.Engine, *graph.Graph) {
	t.Helper()
	ds := testutil.TinyFace(1, 8, 4)
	g := testutil.TinyMultiDNN(2, ds)
	engines := make([]engine.Engine, n)
	for i := range engines {
		engines[i] = engine.Compile(g)
	}
	return engines, g
}

func stopped(t *testing.T, b *batcher.Batcher) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.Stop(ctx); err != nil {
		t.Fatalf("stop: %v", err)
	}
}

// distinctInput builds a deterministic per-client input so scatter bugs
// (rows delivered to the wrong waiter) are detectable.
func distinctInput(client int, shape graph.Shape) *tensor.Tensor {
	x := tensor.New(append([]int{1}, shape...)...)
	tensor.NewRNG(uint64(client+1)).FillNormal(x, 0, 1)
	return x
}

// Every concurrent request must receive exactly its own output rows,
// matching a serial single-request reference.
func TestScatterCorrectness(t *testing.T) {
	engines, g := tinyEngines(t, 2)
	shape := g.Root.InputShape
	b, err := batcher.New(shape, engines, batcher.Options{MaxBatch: 4, MaxWait: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer stopped(t, b)

	// Serial reference on a private engine.
	ref := engine.Compile(g)
	const clients = 16
	want := make([]map[int]*tensor.Tensor, clients)
	for c := 0; c < clients; c++ {
		want[c] = ref.Forward(distinctInput(c, shape))
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			outs, err := b.Submit(context.Background(), distinctInput(c, shape))
			if err != nil {
				errs <- err
				return
			}
			for id, w := range want[c] {
				got, ok := outs[id]
				if !ok || got.Size() != w.Size() {
					errs <- fmt.Errorf("client %d task %d: missing or misshaped output", c, id)
					return
				}
				for k, v := range w.Data() {
					if got.Data()[k] != v {
						errs <- fmt.Errorf("client %d task %d elem %d: batched %v, serial %v", c, id, k, got.Data()[k], v)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := b.Stats()
	if st.Requests != clients {
		t.Fatalf("requests %d, want %d", st.Requests, clients)
	}
	var rows int64
	for size, n := range st.BatchHist {
		rows += int64(size) * n
	}
	if rows != clients {
		t.Fatalf("batch histogram accounts for %d rows, want %d", rows, clients)
	}
}

// Concurrent load must actually coalesce into multi-sample passes.
func TestCoalescing(t *testing.T) {
	engines, g := tinyEngines(t, 1)
	b, err := batcher.New(g.Root.InputShape, engines, batcher.Options{MaxBatch: 8, MaxWait: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer stopped(t, b)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if _, err := b.Submit(context.Background(), distinctInput(c, g.Root.InputShape)); err != nil {
				t.Error(err)
			}
		}(c)
	}
	wg.Wait()
	st := b.Stats()
	if st.MeanBatch < 2 {
		t.Fatalf("mean batch %.2f; 8 concurrent clients with a 50ms window should coalesce", st.MeanBatch)
	}
}

// A caller's reply arrives only after its request and batch are counted:
// Stats read right after Submit returns already includes them.
func TestStatsCountBeforeReply(t *testing.T) {
	engines, g := tinyEngines(t, 1)
	b, err := batcher.New(g.Root.InputShape, engines, batcher.Options{MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer stopped(t, b)
	x := distinctInput(0, g.Root.InputShape)
	for i := 0; i < 200; i++ {
		if _, err := b.Submit(context.Background(), x); err != nil {
			t.Fatal(err)
		}
		if st := b.Stats(); st.Requests != int64(i+1) || st.Batches != int64(i+1) {
			t.Fatalf("after reply %d: requests %d, batches %d", i+1, st.Requests, st.Batches)
		}
	}
}

// slowEngine delays each forward pass without burning CPU, so concurrent
// submitters can outrun the scheduler and back the queue up. (A CPU-bound
// engine would pace arrivals to the service rate on a small machine and
// the queue would never fill.)
type slowEngine struct {
	inner engine.Engine
	delay time.Duration
}

func (s *slowEngine) Name() string { return "slow(" + s.inner.Name() + ")" }

func (s *slowEngine) Forward(x *tensor.Tensor) map[int]*tensor.Tensor {
	time.Sleep(s.delay)
	return s.inner.Forward(x)
}

func TestQueueFull(t *testing.T) {
	engines, g := tinyEngines(t, 1)
	engines[0] = &slowEngine{inner: engines[0], delay: 10 * time.Millisecond}
	b, err := batcher.New(g.Root.InputShape, engines, batcher.Options{MaxBatch: 1, MaxWait: time.Millisecond, QueueCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer stopped(t, b)
	var full, ok int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < 32; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			_, err := b.Submit(context.Background(), distinctInput(c, g.Root.InputShape))
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				ok++
			case errors.Is(err, batcher.ErrQueueFull):
				full++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}(c)
	}
	wg.Wait()
	if ok == 0 || full == 0 {
		t.Fatalf("ok=%d full=%d; want both backpressure and progress", ok, full)
	}
}

func TestSubmitRejectsBadShape(t *testing.T) {
	engines, g := tinyEngines(t, 1)
	b, err := batcher.New(g.Root.InputShape, engines, batcher.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer stopped(t, b)
	if _, err := b.Submit(context.Background(), tensor.New(1, 2, 2)); err == nil {
		t.Fatal("wrong rank accepted")
	}
	if _, err := b.Submit(context.Background(), tensor.New(1, 3, 16, 8)); err == nil {
		t.Fatal("wrong dims accepted")
	}
}

// A request whose context dies while queued is dropped at batch formation
// and reported canceled, without occupying a batch slot.
func TestCanceledRequestSkipped(t *testing.T) {
	engines, g := tinyEngines(t, 1)
	b, err := batcher.New(g.Root.InputShape, engines, batcher.Options{MaxBatch: 2, MaxWait: 40 * time.Millisecond, QueueCap: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer stopped(t, b)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // dead before it is ever collected
	if _, err := b.Submit(ctx, distinctInput(0, g.Root.InputShape)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	// A live request still completes and the canceled one shows in stats.
	if _, err := b.Submit(context.Background(), distinctInput(1, g.Root.InputShape)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		st := b.Stats()
		if st.Canceled == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("canceled request never counted: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// Stop drains queued work: every accepted request completes, and Submit
// afterwards fails with ErrStopped. Run with -race.
func TestStopDrains(t *testing.T) {
	engines, g := tinyEngines(t, 2)
	b, err := batcher.New(g.Root.InputShape, engines, batcher.Options{MaxBatch: 4, MaxWait: 20 * time.Millisecond, QueueCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	const n = 24
	results := make(chan error, n)
	for c := 0; c < n; c++ {
		go func(c int) {
			_, err := b.Submit(context.Background(), distinctInput(c, g.Root.InputShape))
			results <- err
		}(c)
	}
	time.Sleep(5 * time.Millisecond) // let some requests reach the queue
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.Stop(ctx); err != nil {
		t.Fatalf("stop: %v", err)
	}
	for i := 0; i < n; i++ {
		if err := <-results; err != nil && !errors.Is(err, batcher.ErrStopped) {
			t.Fatalf("request failed during drain: %v", err)
		}
	}
	if _, err := b.Submit(context.Background(), distinctInput(0, g.Root.InputShape)); !errors.Is(err, batcher.ErrStopped) {
		t.Fatalf("post-stop err %v, want ErrStopped", err)
	}
	// Stop is idempotent.
	if err := b.Stop(ctx); err != nil {
		t.Fatalf("second stop: %v", err)
	}
}

// A drain whose context expires leaves unanswered requests behind;
// Pending must report exactly how many were abandoned so the operator can
// log them, and must fall back to zero once the drain completes.
func TestPendingCountsAbandonedOnDrainTimeout(t *testing.T) {
	engines, g := tinyEngines(t, 1)
	engines[0] = &slowEngine{inner: engines[0], delay: 50 * time.Millisecond}
	b, err := batcher.New(g.Root.InputShape, engines, batcher.Options{MaxBatch: 1, MaxWait: time.Millisecond, QueueCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	results := make(chan error, n)
	for c := 0; c < n; c++ {
		go func(c int) {
			_, err := b.Submit(context.Background(), distinctInput(c, g.Root.InputShape))
			results <- err
		}(c)
	}
	// Wait until every request is admitted (queued or in flight).
	for deadline := time.Now().Add(5 * time.Second); b.Pending() < n; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests admitted", b.Pending(), n)
		}
		time.Sleep(time.Millisecond)
	}
	expired, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	err = b.Stop(expired)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stop with expired ctx: err %v, want deadline exceeded", err)
	}
	if got := b.Pending(); got == 0 {
		t.Fatal("drain timed out but Pending reports no abandoned requests")
	}
	// Draining continues in the background; eventually everything answers
	// and the abandoned count returns to zero.
	for i := 0; i < n; i++ {
		<-results
	}
	for deadline := time.Now().Add(5 * time.Second); b.Pending() != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("Pending stuck at %d after full drain", b.Pending())
		}
		time.Sleep(time.Millisecond)
	}
}

// Tagged submissions must coalesce across tags into one pass, deliver each
// caller only the outputs its task map selects (renamed to caller ids), and
// count the pass as mixed.
func TestSubmitTaggedScatterAndMixedCount(t *testing.T) {
	engines, g := tinyEngines(t, 1)
	shape := g.Root.InputShape
	b, err := batcher.New(shape, engines, batcher.Options{MaxBatch: 8, MaxWait: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer stopped(t, b)

	ref := engine.Compile(g)
	const clients = 6
	type reply struct {
		outs map[int]*tensor.Tensor
		err  error
	}
	inputs := make([]*tensor.Tensor, clients)
	replies := make([]reply, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		inputs[i] = distinctInput(i, shape)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Even clients act as model A (tag 1): engine task 0 renamed to 7.
			// Odd clients act as model B (tag 2): engine task 1 renamed to 0.
			tag, tasks := 1, map[int]int{0: 7}
			if i%2 == 1 {
				tag, tasks = 2, map[int]int{1: 0}
			}
			outs, err := b.SubmitTagged(context.Background(), inputs[i], tag, tasks)
			replies[i] = reply{outs, err}
		}(i)
	}
	wg.Wait()

	for i := 0; i < clients; i++ {
		r := replies[i]
		if r.err != nil {
			t.Fatalf("client %d: %v", i, r.err)
		}
		if len(r.outs) != 1 {
			t.Fatalf("client %d received %d outputs, want 1 (task-filtered)", i, len(r.outs))
		}
		want := ref.Forward(inputs[i])
		engID, callerID := 0, 7
		if i%2 == 1 {
			engID, callerID = 1, 0
		}
		got := r.outs[callerID]
		if got == nil {
			t.Fatalf("client %d missing renamed task %d", i, callerID)
		}
		wd, gd := want[engID].Data(), got.Data()
		for j := range wd {
			if wd[j] != gd[j] {
				t.Fatalf("client %d task %d elem %d: %v vs %v", i, callerID, j, gd[j], wd[j])
			}
		}
	}
	if st := b.Stats(); st.MixedBatches == 0 {
		t.Fatalf("no mixed batches recorded: %+v", st)
	}
}

// Two closed-loop callers can never fill MaxBatch 8. Once the batcher has
// seen both, an idle engine must leave as soon as both are in rather than
// sit out the 50ms window on every batch; every reply still carries
// exactly its own rows.
func TestIdleEngineClosesAtKnownConcurrency(t *testing.T) {
	engines, g := tinyEngines(t, 1)
	shape := g.Root.InputShape
	const maxWait = 50 * time.Millisecond
	b, err := batcher.New(shape, engines, batcher.Options{MaxBatch: 8, MaxWait: maxWait})
	if err != nil {
		t.Fatal(err)
	}
	defer stopped(t, b)

	const callers, rounds = 2, 30
	ref := engine.Compile(g)
	want := make([]map[int]*tensor.Tensor, callers*rounds)
	for i := range want {
		want[i] = ref.Forward(distinctInput(i, shape))
	}
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(want); i += callers {
				outs, err := b.Submit(context.Background(), distinctInput(i, shape))
				if err != nil {
					errs <- err
					return
				}
				for id, w := range want[i] {
					got := outs[id]
					if got == nil || got.Size() != w.Size() {
						errs <- fmt.Errorf("request %d task %d: missing or misshaped output", i, id)
						return
					}
					for k, v := range w.Data() {
						if got.Data()[k] != v {
							errs <- fmt.Errorf("request %d task %d elem %d: batched %v, serial %v", i, id, k, got.Data()[k], v)
							return
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := b.Stats()
	t.Logf("%d requests in %v, batches %v", st.Requests, elapsed, st.BatchHist)
	if elapsed >= 10*maxWait {
		t.Fatalf("%d closed-loop requests took %v: idle batches waited out MaxWait %v", callers*rounds, elapsed, maxWait)
	}
}

// Requests that arrive while the only engine is busy wait in the queue,
// where QueueDepth (the backlog SLO admission reads) counts them, and all
// ride the next forward together.
func TestBusyEngineBatchTakesBacklog(t *testing.T) {
	engines, g := tinyEngines(t, 1)
	shape := g.Root.InputShape
	engines[0] = &slowEngine{inner: engines[0], delay: 20 * time.Millisecond}
	b, err := batcher.New(shape, engines, batcher.Options{MaxBatch: 8, MaxWait: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer stopped(t, b)

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: pending %d, queue depth %d", what, b.Pending(), b.QueueDepth())
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	const backlog = 6
	results := make(chan error, backlog+1)
	submit := func(i int) {
		_, err := b.Submit(context.Background(), distinctInput(i, shape))
		results <- err
	}
	go submit(0)
	waitFor("the first forward to start", func() bool { return b.Pending() == 1 && b.QueueDepth() == 0 })
	for i := 1; i <= backlog; i++ {
		go submit(i)
	}
	waitFor("the backlog to be admitted", func() bool { return b.Pending() == backlog+1 })
	if got := b.QueueDepth(); got != backlog {
		t.Fatalf("queue depth %d behind a busy engine, want %d", got, backlog)
	}
	for i := 0; i <= backlog; i++ {
		if err := <-results; err != nil {
			t.Fatal(err)
		}
	}
	st := b.Stats()
	if st.Batches != 2 || st.BatchHist[1] != 1 || st.BatchHist[backlog] != 1 {
		t.Fatalf("batches %v, want one of 1 and one of %d", st.BatchHist, backlog)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("queue depth %d after every reply", st.QueueDepth)
	}
}
