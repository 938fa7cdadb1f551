package main

import (
	"math"
	"runtime"
	"time"

	"repro/internal/data"
	"repro/internal/tensor"
)

// setupN builds the workload's fixture several times, timing each build into
// rep.setup and tearing down all but the last, which it returns. Everything
// before the first timed operation belongs in build. It builds three times,
// and on while set-up is cheap (under a second in all, at most nine times),
// so that millisecond set-ups get a median worth the name.
func setupN[T any](rep *report, o options, build func() (T, error), teardown func(T)) (T, error) {
	minReps, maxReps := 3, 9
	if o.smoke {
		minReps, maxReps = 1, 1
	}
	var fx T
	var total time.Duration
	for i := 0; i < minReps || (i < maxReps && total < time.Second); i++ {
		if i > 0 {
			teardown(fx)
		}
		start := time.Now()
		var err error
		if fx, err = build(); err != nil {
			return fx, err
		}
		d := time.Since(start)
		total += d
		rep.setup = append(rep.setup, d.Seconds())
	}
	// Collect the discarded fixtures now, not inside the measured window.
	runtime.GC()
	return fx, nil
}

// timedLoop runs op in a closed loop from one caller until the window has
// elapsed (and at least minOps ran), recording the latency of every
// successful operation and the wall time of the whole loop.
func timedLoop(rep *report, seconds float64, minOps int, op func(i int) error) {
	window := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for i := 0; i < minOps || time.Since(start) < window; i++ {
		t0 := time.Now()
		err := op(i)
		d := time.Since(t0)
		rep.attempted++
		if err != nil {
			rep.fail(1, "operation %d: %v", i, err)
			continue
		}
		rep.samples = append(rep.samples, float64(d)/1e6)
	}
	rep.window = time.Since(start).Seconds()
}

// timeMedian returns the median wall time of n calls of f, in ms.
func timeMedian(n int, f func()) float64 {
	samples := make([]float64, n)
	for i := range samples {
		t0 := time.Now()
		f()
		samples[i] = float64(time.Since(t0)) / 1e6
	}
	return median(samples)
}

// framePool is the seeded source of distinct input frames: frame k is the
// window of per values starting at element k of one long noise buffer, so
// any number of distinct frames costs no generation inside the timed path.
type framePool struct {
	noise []float32
	per   int
}

// poolFrames is how many distinct frames a pool holds.
const poolFrames = 1 << 20

func newFramePool(seed uint64, per int) *framePool {
	t := tensor.New(poolFrames + per)
	tensor.NewRNG(seed).FillNormal(t, 0, 1)
	return &framePool{noise: t.Data(), per: per}
}

// frame returns frame k as a slice into the pool; callers must not modify it.
func (p *framePool) frame(k int) []float32 {
	k %= poolFrames
	return p.noise[k : k+p.per]
}

// tokenInputs draws n seeded [1,seqLen] token-id inputs below vocab.
func tokenInputs(seed uint64, n, seqLen, vocab int) []*tensor.Tensor {
	rng := tensor.NewRNG(seed)
	out := make([]*tensor.Tensor, n)
	for i := range out {
		x := tensor.New(1, seqLen)
		for j := range x.Data() {
			x.Data()[j] = float32(rng.Intn(vocab))
		}
		out[i] = x
	}
	return out
}

// faceInputs draws n seeded [1,3,size,size] face images, the distribution
// the vision fixtures' int8 activation ranges are calibrated on.
func faceInputs(seed uint64, n, size int) []*tensor.Tensor {
	ds := data.NewFace(data.FaceConfig{Train: 1, Test: n, Size: size, Noise: 0.08, Seed: seed})
	out := make([]*tensor.Tensor, n)
	for i := range out {
		out[i] = ds.Test.Batch(i, i+1)
	}
	return out
}

// relErr returns max|got-want| over max|want| (over 1 when want is all 0).
func relErr(got, want []float32) float64 {
	var diff, scale float64
	for i := range want {
		d := math.Abs(float64(got[i]) - float64(want[i]))
		// NaN compares false everywhere: make it the worst error instead.
		if math.IsNaN(d) {
			return 1
		}
		diff = max(diff, d)
		scale = max(scale, math.Abs(float64(want[i])))
	}
	if scale == 0 {
		scale = 1
	}
	return diff / scale
}
