// Package stats provides deterministic random number generation and small
// statistics helpers used throughout the DRAM-Locker simulator.
//
// Every stochastic component in the simulator (fault injection, Monte-Carlo
// process variation, synthetic datasets, attack sampling) draws from an
// explicitly seeded RNG so that experiments are reproducible run-to-run.
package stats

import (
	"errors"
	"math"
	"sort"
)

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

// Perm returns a pseudo-random permutation of [0, n).
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

// ErrEmpty is returned by aggregate statistics on empty inputs.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs)), nil
}

// Variance returns the population variance of xs.
func Variance(xs []float64) (float64, error) {
	m, err := Mean(xs)
	if err != nil {
		return 0, err
	}
	var s float64
	for _, x := range xs {
		d := x - m
		s += float64(d * d)
	}
	return s / float64(len(xs)), nil
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) (float64, error) {
	v, err := Variance(xs)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. xs is not modified.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of range")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := float64(p / 100 * float64(len(sorted)-1))
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return float64(sorted[lo]*(1-frac)) + float64(sorted[hi]*frac), nil
}

// Max returns the maximum of xs.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Min returns the minimum of xs.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// BinomialTail returns P(X >= k) for X ~ Binomial(n, p), computed by direct
// summation in log space for numerical stability. Used by the defense-time
// model to decide when an attacker's cumulative flip probability exceeds a
// target bound.
func BinomialTail(n int, p float64, k int) float64 {
	if k <= 0 {
		return 1
	}
	if k > n || p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	// Sum P(X = i) for i in [k, n].
	logP := math.Log(p)
	logQ := math.Log(1 - p)
	var tail float64
	for i := k; i <= n; i++ {
		lg := logChoose(n, i) + float64(float64(i)*logP) + float64(float64(n-i)*logQ)
		tail += math.Exp(lg)
	}
	if tail > 1 {
		tail = 1
	}
	return tail
}

func logChoose(n, k int) float64 {
	return logFactorial(n) - logFactorial(k) - logFactorial(n-k)
}

func logFactorial(n int) float64 {
	if n < 2 {
		return 0
	}
	// Exact summation for small n; Stirling with correction beyond.
	if n <= 64 {
		var s float64
		for i := 2; i <= n; i++ {
			s += math.Log(float64(i))
		}
		return s
	}
	x := float64(n)
	return float64(x*math.Log(x)) - x + float64(0.5*math.Log(2*math.Pi*x)) + 1/(12*x)
}

// Histogram bins xs into nbins equal-width bins over [lo, hi] and returns
// the counts. Values outside the range are clamped into the edge bins.
func Histogram(xs []float64, lo, hi float64, nbins int) []int {
	counts := make([]int, nbins)
	if nbins == 0 || hi <= lo {
		return counts
	}
	w := (hi - lo) / float64(nbins)
	for _, x := range xs {
		b := int((x - lo) / w)
		if b < 0 {
			b = 0
		}
		if b >= nbins {
			b = nbins - 1
		}
		counts[b]++
	}
	return counts
}
