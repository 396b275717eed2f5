package main

import (
	"math"
	"slices"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to count as resolved: with fewer, the "p99" of a
// small sample is just its maximum.
const minBeyond = 10

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs and how many samples lie strictly after that rank.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := sorted(xs)
	// The tolerance keeps float error from bumping an exact rank
	// (99.9% of 10000 is rank 9990, not 9991).
	rank := int(math.Ceil(p/100*float64(len(s)) - 1e-9))
	rank = max(1, min(rank, len(s)))
	return s[rank-1], len(s) - rank
}

// tailPercentiles are the candidates highestTail picks from.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// highestTail returns the highest of tailPercentiles that has at least
// minBeyond samples beyond it. ok is false when even the median has
// fewer (under 20 samples); p and v are then the maximum (p = 100).
func highestTail(xs []float64) (p, v float64, ok bool) {
	for _, p := range tailPercentiles {
		if v, beyond := percentile(xs, p); beyond >= minBeyond {
			return p, v, true
		}
	}
	v, _ = percentile(xs, 100)
	return 100, v, false
}

// quartiles returns the first, second and third quartile of xs the way
// Python's statistics.quantiles(xs, n=4) computes them (the "exclusive"
// method), so spreads reported here match an external check of the same
// values. It needs at least two samples; with one, all three are it.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := len(s) + 1
	q := make([]float64, n-1)
	for i := 1; i < n; i++ {
		j := max(1, min(i*m/n, len(s)-1))
		delta := float64(i*m - j*n)
		q[i-1] = (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return q[0], q[1], q[2]
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise a bound must exceed.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}
