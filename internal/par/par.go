// Package par is the process-wide worker budget shared by every source of
// parallelism in the repository: the experiment engine's job pool and the
// goroutine-parallel tensor/nn compute kernels.
//
// The problem it solves is oversubscription. The engine schedules up to
// NumCPU experiment jobs concurrently, and each job trains and evaluates
// DNNs whose GEMM/BatchNorm kernels can themselves fan out across cores.
// Without coordination a full sharded run would put NumCPU jobs times
// NumCPU kernel goroutines onto NumCPU cores. Instead, both layers draw
// from one token budget of size Budget() (default runtime.NumCPU()):
//
//   - The engine's workers each *reserve* one token while executing a
//     unit of work (TryAcquire/ReleaseN — non-blocking, so an explicit
//     worker count above the budget still runs as many jobs as
//     requested; they just leave no tokens spare).
//   - Kernels ask for *extra* tokens non-blockingly (For/TryAcquire). When
//     the engine has the machine saturated they get none and run serially
//     inside their job's reservation; when few jobs are running — a single
//     victim training, a direct CLI call — they pick up the idle cores.
//
// Determinism: the budget changes only *which goroutine* computes which
// slice of work, never the floating-point evaluation order inside a
// slice. Kernels built on For partition output elements disjointly and
// keep each element's accumulation order fixed, so results are
// bit-identical at any budget, worker count, or GOMAXPROCS.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// avail (guarded by mu) is the token count of record; total and
// availHint are atomic mirrors so the hot-path reads — WorthIt/Budget on
// every kernel call, TryAcquire's drained check under a saturated pool —
// never touch the mutex.
var (
	mu        sync.Mutex
	total     atomic.Int64
	avail     int
	availHint atomic.Int64
)

func init() {
	n := runtime.NumCPU()
	total.Store(int64(n))
	avail = n
	availHint.Store(int64(n))
}

// Budget returns the total worker-token budget (lock-free).
func Budget() int { return int(total.Load()) }

// SetBudget resizes the budget (minimum 1). Outstanding tokens are
// honoured: shrinking takes effect as tokens are released. Tests use this
// to pin kernels to a known parallelism; production code leaves the
// NumCPU default.
func SetBudget(n int) {
	if n < 1 {
		n = 1
	}
	mu.Lock()
	avail += n - int(total.Load())
	total.Store(int64(n))
	availHint.Store(int64(avail))
	mu.Unlock()
}

// TryAcquire takes up to n tokens without blocking and returns how many
// it got (possibly zero). Kernels use it to claim idle cores for extra
// goroutines beyond the calling one.
func TryAcquire(n int) int {
	if n <= 0 || availHint.Load() < 1 {
		// Lock-free fast path: a drained budget (the norm under a
		// saturated engine pool) answers without the mutex. The hint may
		// be momentarily stale, but a false zero only costs a serial
		// kernel pass and a false positive is re-checked under the lock.
		return 0
	}
	mu.Lock()
	got := avail // may be negative after a shrinking SetBudget
	if got > n {
		got = n
	}
	if got > 0 {
		avail -= got
		availHint.Store(int64(avail))
	} else {
		got = 0
	}
	mu.Unlock()
	return got
}

// ReleaseN returns n tokens taken by TryAcquire.
func ReleaseN(n int) {
	if n <= 0 {
		return
	}
	mu.Lock()
	avail += n
	if avail > int(total.Load()) {
		panic("par: released more worker tokens than acquired")
	}
	availHint.Store(int64(avail))
	mu.Unlock()
}

// Grain converts a per-item cost estimate into a chunking grain: the
// number of consecutive items one worker should take so a chunk is worth
// at least minWork units. It never returns less than 1.
func Grain(perItem, minWork int) int {
	if perItem < 1 {
		perItem = 1
	}
	g := (minWork + perItem - 1) / perItem
	if g < 1 {
		g = 1
	}
	return g
}

// WorthIt reports whether a loop of items at the given grain could use
// more than one worker under the current budget. Hot kernels check it
// before constructing the escaping closure For needs, so their serial
// path stays allocation-free:
//
//	if par.WorthIt(rows, grain) {
//		par.For(rows, grain, func(lo, hi int) { kernel(lo, hi) })
//	} else {
//		kernel(0, rows)
//	}
func WorthIt(items, grain int) bool {
	if grain < 1 {
		grain = 1
	}
	return items >= 2*grain && Budget() > 1
}

// For runs fn over the range [0, n) split into contiguous chunks of at
// least grain items, on the calling goroutine plus as many extra workers
// as TryAcquire grants. fn(lo, hi) must handle its half-open slice
// independently of the others; chunks never overlap and cover [0, n)
// exactly. With no spare tokens (or n <= grain) the whole range runs on
// the caller, so For never blocks and never deadlocks under nesting.
func For(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	maxWorkers := n / grain
	if cap := Budget(); maxWorkers > cap {
		// The calling goroutine is one of the workers, so it claims the
		// budget share a token would otherwise represent.
		maxWorkers = cap
	}
	if maxWorkers > 1 {
		if extra := TryAcquire(maxWorkers - 1); extra > 0 {
			forParallel(n, extra, fn)
			return
		}
	}
	fn(0, n)
}

// forParallel fans fn out over extra+1 workers. The deferred wait and
// release keep the shared budget panic-safe: a panic in the caller's
// chunk (recovered further up, e.g. by the engine) still waits for the
// spawned workers and returns the tokens.
func forParallel(n, extra int, fn func(lo, hi int)) {
	defer ReleaseN(extra)
	workers := extra + 1
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	defer wg.Wait()
	for w := 1; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	fn(0, chunk)
}
