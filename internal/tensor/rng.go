package tensor

import "math"

// RNG is a small deterministic pseudo-random generator (xorshift64*) used
// for weight initialization and synthetic data. It is deliberately
// self-contained so experiments are reproducible across Go versions.
type RNG struct {
	state uint64
	// spare holds a cached second normal variate from Box-Muller.
	spare    float64
	hasSpare bool
}

// NewRNG returns a generator seeded with seed (0 is remapped to a fixed
// nonzero constant since xorshift requires nonzero state).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next raw 64-bit value.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float32 returns a uniform value in [0,1).
func (r *RNG) Float32() float32 { return float32(r.Float64()) }

// Intn returns a uniform integer in [0,n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: RNG.Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate via Box-Muller.
func (r *RNG) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		m := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * m
		r.hasSpare = true
		return u * m
	}
}

// Perm returns a random permutation of [0,n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Split derives an independent generator from r, so that sub-tasks can get
// reproducible but decorrelated streams.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xD1B54A32D192ED03)
}

// FillUniform fills t with uniform values in [lo, hi). A nil RNG fills
// nothing: layers constructed from one keep zero parameters, for a caller
// that overwrites every one of them (the checkpoint decoder).
func (r *RNG) FillUniform(t *Tensor, lo, hi float32) {
	if r == nil {
		return
	}
	d := t.Data()
	span := hi - lo
	for i := range d {
		d[i] = lo + span*r.Float32()
	}
}

// FillNormal fills t with normal values of the given mean and stddev. A nil
// RNG fills nothing, as in FillUniform.
func (r *RNG) FillNormal(t *Tensor, mean, std float32) {
	if r == nil {
		return
	}
	d := t.Data()
	for i := range d {
		d[i] = mean + std*float32(r.NormFloat64())
	}
}
