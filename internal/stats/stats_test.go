package stats

import (
	"math"
	"testing"
)

func TestRNGDeterministicPerSeed(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce the same stream")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds overlap in %d of 100 draws", same)
	}
}

func TestFloat64InUnitInterval(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %g outside [0,1)", v)
		}
	}
}

func TestIntnBoundsAndPanic(t *testing.T) {
	r := NewRNG(8)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) must panic")
		}
	}()
	r.Intn(0)
}

func TestBernoulliEdgesAndRate(t *testing.T) {
	r := NewRNG(9)
	if r.Bernoulli(0) || !r.Bernoulli(1) {
		t.Fatal("edge probabilities wrong")
	}
	hits := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.25) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.25) > 0.02 {
		t.Fatalf("Bernoulli(0.25) rate = %.3f", rate)
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(10)
	const n = 50000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.Normal(3, 2)
		sum += v
		sq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sq/n - mean*mean)
	if math.Abs(mean-3) > 0.05 {
		t.Fatalf("mean = %.3f, want 3", mean)
	}
	if math.Abs(std-2) > 0.05 {
		t.Fatalf("std = %.3f, want 2", std)
	}
}

func TestForkIndependence(t *testing.T) {
	a := NewRNG(11)
	child := a.Fork()
	if child.Uint64() == a.Uint64() {
		t.Fatal("fork should diverge from parent")
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := NewRNG(12)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make([]bool, 8)
	for _, v := range xs {
		seen[v] = true
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("value %d lost in shuffle", i)
		}
	}
}
