package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // reversed, to exercise sorting
	}
	return xs
}

func TestHighestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		p, v   float64
		wantOK bool
	}{
		{n: 10000, p: 99.9, v: 9990, wantOK: true},
		{n: 1000, p: 99, v: 990, wantOK: true},
		{n: 999, p: 95, v: 950, wantOK: true}, // p99 would have only 9 beyond
		{n: 100, p: 90, v: 90, wantOK: true},
		{n: 20, p: 50, v: 10, wantOK: true},
		{n: 19, p: 100, v: 19, wantOK: false}, // not even the median resolves
		{n: 1, p: 100, v: 1, wantOK: false},
	} {
		p, v, ok := highestTail(seq(c.n))
		if p != c.p || v != c.v || ok != c.wantOK {
			t.Errorf("n=%d: highestTail = p%g %g %v, want p%g %g %v", c.n, p, v, ok, c.p, c.v, c.wantOK)
		}
	}
}

func TestPercentileCountsSamplesBeyond(t *testing.T) {
	v, beyond := percentile(seq(1000), 99)
	if v != 990 || beyond != 10 {
		t.Fatalf("p99 of 1..1000 = %g with %d beyond, want 990 with 10", v, beyond)
	}
	if v, _ := percentile(nil, 50); !math.IsNaN(v) {
		t.Fatalf("percentile of no samples = %g, want NaN", v)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{seq(4), [3]float64{1.25, 2.5, 3.75}},
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 7}, [3]float64{4.5, 6, 7.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := spread(seq(10)); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}
