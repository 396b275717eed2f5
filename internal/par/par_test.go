package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// withBudget runs f under a temporary budget, restoring the default.
func withBudget(t *testing.T, n int, f func()) {
	t.Helper()
	old := Budget()
	SetBudget(n)
	defer SetBudget(old)
	f()
}

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, budget := range []int{1, 2, 8} {
		withBudget(t, budget, func() {
			for _, n := range []int{0, 1, 7, 64, 1000, 1023} {
				counts := make([]int32, n)
				For(n, 3, func(lo, hi int) {
					if lo < 0 || hi > n || lo >= hi {
						t.Errorf("budget %d n %d: bad chunk [%d,%d)", budget, n, lo, hi)
						return
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&counts[i], 1)
					}
				})
				for i, c := range counts {
					if c != 1 {
						t.Fatalf("budget %d n %d: index %d visited %d times", budget, n, i, c)
					}
				}
			}
		})
	}
}

func TestForSerialWhenBudgetExhausted(t *testing.T) {
	withBudget(t, 1, func() {
		var calls int32
		For(100, 1, func(lo, hi int) { atomic.AddInt32(&calls, 1) })
		if calls != 1 {
			t.Fatalf("budget 1 must run one serial chunk, got %d", calls)
		}
	})
}

func TestForRespectsGrain(t *testing.T) {
	withBudget(t, 16, func() {
		var chunks int32
		For(10, 5, func(lo, hi int) { atomic.AddInt32(&chunks, 1) })
		// 10 items at grain 5 allows at most 2 workers.
		if chunks > 2 {
			t.Fatalf("grain 5 over 10 items produced %d chunks, want <= 2", chunks)
		}
	})
}

func TestTryAcquireAccounting(t *testing.T) {
	withBudget(t, 4, func() {
		if got := TryAcquire(10); got != 4 {
			t.Fatalf("TryAcquire(10) = %d with budget 4", got)
		}
		if got := TryAcquire(1); got != 0 {
			t.Fatalf("TryAcquire on drained budget = %d, want 0", got)
		}
		ReleaseN(4)
		if got := TryAcquire(2); got != 2 {
			t.Fatalf("TryAcquire(2) after release = %d", got)
		}
		ReleaseN(2)
	})
}

func TestTryAcquireAfterShrink(t *testing.T) {
	withBudget(t, 4, func() {
		if got := TryAcquire(4); got != 4 {
			t.Fatalf("TryAcquire(4) = %d", got)
		}
		SetBudget(2) // avail is now negative until tokens come back
		if got := TryAcquire(1); got != 0 {
			t.Fatalf("TryAcquire after shrink = %d, want 0", got)
		}
		ReleaseN(4)
		if got := TryAcquire(5); got != 2 {
			t.Fatalf("TryAcquire(5) at budget 2 = %d, want 2", got)
		}
		ReleaseN(2)
	})
}

func TestGrain(t *testing.T) {
	if g := Grain(10, 100); g != 10 {
		t.Fatalf("Grain(10,100) = %d, want 10", g)
	}
	if g := Grain(1000, 100); g != 1 {
		t.Fatalf("Grain(1000,100) = %d, want 1", g)
	}
	if g := Grain(0, 0); g != 1 {
		t.Fatalf("Grain(0,0) = %d, want 1", g)
	}
}

// TestBudgetUnderContention exercises the token budget from many
// goroutines at once, each reserving one token as an engine worker does;
// run with -race this is the worker-budget race check. It also asserts
// the budget invariant: concurrently held tokens never exceed the budget.
func TestBudgetUnderContention(t *testing.T) {
	withBudget(t, 3, func() {
		var inFlight, maxSeen int32
		var wg sync.WaitGroup
		for g := 0; g < 16; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					for TryAcquire(1) == 0 {
						runtime.Gosched()
					}
					cur := atomic.AddInt32(&inFlight, 1)
					for {
						m := atomic.LoadInt32(&maxSeen)
						if cur <= m || atomic.CompareAndSwapInt32(&maxSeen, m, cur) {
							break
						}
					}
					// Nested kernel-style parallelism under the held token.
					For(32, 4, func(lo, hi int) {
						runtime.Gosched()
					})
					atomic.AddInt32(&inFlight, -1)
					ReleaseN(1)
				}
			}()
		}
		wg.Wait()
		if maxSeen > 3 {
			t.Fatalf("budget 3 exceeded: %d tokens held at once", maxSeen)
		}
	})
}
