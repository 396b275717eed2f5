// Package stats provides the deterministic random number generator used
// throughout the DRAM-Locker simulator.
//
// Every stochastic component in the simulator (fault injection, Monte-Carlo
// process variation, synthetic datasets, attack sampling) draws from an
// explicitly seeded RNG so that experiments are reproducible run-to-run.
package stats

import "math"

// RNG is a small, fast, deterministic pseudo-random number generator
// (xoshiro256** by Blackman and Vigna). It is intentionally independent of
// math/rand so that stream contents are stable across Go releases.
type RNG struct {
	s [4]uint64
	// cached spare normal deviate for Box-Muller
	hasSpare bool
	spare    float64
}

// NewRNG returns an RNG seeded from a single 64-bit seed using SplitMix64
// to fill the internal state, as recommended by the xoshiro authors.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	// Avoid the (astronomically unlikely) all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with n <= 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63 returns a non-negative 63-bit integer.
func (r *RNG) Int63() int64 { return int64(r.Uint64() >> 1) }

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / float64(1<<53))
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Normal returns a normally distributed value with the given mean and
// standard deviation, using the Box-Muller transform.
func (r *RNG) Normal(mean, stddev float64) float64 {
	if r.hasSpare {
		r.hasSpare = false
		return mean + float64(stddev*r.spare)
	}
	var u, v, s float64
	for {
		u = float64(2*r.Float64()) - 1
		v = float64(2*r.Float64()) - 1
		s = float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			break
		}
	}
	m := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * m
	r.hasSpare = true
	return mean + float64(stddev*u*m)
}

// Shuffle pseudo-randomly shuffles the first n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Fork derives an independent child RNG from this one. Forked streams are
// used to give each subsystem its own stream while staying deterministic.
func (r *RNG) Fork() *RNG { return NewRNG(r.Uint64()) }
