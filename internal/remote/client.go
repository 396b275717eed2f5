package remote

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/backoff"
	"repro/internal/engine"
)

// downAfter is the number of consecutive transport failures after which a
// worker stops being selected for new tasks (it already failed its way
// out of each of those tasks via exclusion). A success resets the count.
const downAfter = 3

// reprobeAfter is how long a down-marked worker sits out before it is
// offered one probe task. On success the worker rejoins least-loaded
// selection (its failure count resets); on failure it sits out another
// (jittered) window.
const reprobeAfter = 15 * time.Second

// Options configures a RemoteExecutor.
type Options struct {
	// Fallback, when non-nil, executes tasks every remote worker failed
	// (typically a LocalExecutor over the same registry, so a dead fleet
	// degrades to the in-process pool instead of failing the run).
	Fallback engine.Executor
	// Client is the HTTP client; nil uses a default with no overall
	// request timeout (tasks legitimately run for minutes — cancellation
	// comes from the scheduler's context instead).
	Client *http.Client
}

// worker is one remote daemon the executor can dispatch to.
type worker struct {
	addr  string // base URL, e.g. "http://127.0.0.1:9740"
	name  string // advertised worker name
	slots chan struct{}
	fails atomic.Int32 // consecutive transport failures
	// retryAt is the earliest time (unix nanos) a down worker may be
	// probed again; claimed by CAS so concurrent dispatches send at most
	// one probe per backoff window.
	retryAt atomic.Int64
	// probe jitters each re-probation window (Factor 1: constant
	// amplitude, randomized phase, seeded from the worker's name) so
	// workers downed by one shared outage do not all come up for their
	// probe in the same instant. Guarded by probeMu — backoff state is
	// not safe for the concurrent dispatches that mark failures.
	probeMu sync.Mutex
	probe   *backoff.Backoff
}

// probeDelay returns the next jittered re-probation window.
func (w *worker) probeDelay() time.Duration {
	w.probeMu.Lock()
	defer w.probeMu.Unlock()
	if w.probe == nil {
		w.probe = backoff.Policy{Base: reprobeAfter, Factor: 1, Jitter: 0.5}.New(backoff.SeedString(w.name + "@" + w.addr))
	}
	return w.probe.Next()
}

func (w *worker) down() bool { return w.fails.Load() >= downAfter }

// RemoteExecutor is an engine.Executor that ships tasks to worker
// daemons over HTTP. Dispatch picks the least-loaded live worker under
// the inflight limit each worker advertises (its capacity); a transport
// failure retries the task on the remaining workers (the failed one
// excluded), and when every worker has failed it, the task falls back
// to Options.Fallback. Task-level errors (the job itself failed) are
// never retried — they are deterministic.
type RemoteExecutor struct {
	workers  []*worker
	fallback engine.Executor
	client   *http.Client
	now      func() time.Time // injectable clock for tests
}

// Dial connects to the given worker addresses ("host:port" or full
// http:// URLs), verifies each speaks the current protocol version, and
// returns an executor over them. Startup is strict — an unreachable,
// refusing or version-mismatched worker is a configuration error —
// while failures after Dial degrade via retry, exclusion and fallback.
func Dial(ctx context.Context, addrs []string, opts Options) (*RemoteExecutor, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("remote: no worker addresses")
	}
	e := &RemoteExecutor{
		fallback: opts.Fallback,
		client:   orDefaultClient(opts.Client),
		now:      time.Now,
	}
	for _, addr := range addrs {
		base := NormalizeAddr(addr)
		st, err := probeStatus(ctx, e.client, base)
		if err != nil {
			return nil, fmt.Errorf("remote: worker %s: %w", addr, err)
		}
		e.workers = append(e.workers, &worker{
			addr:  base,
			name:  st.Name,
			slots: make(chan struct{}, max(st.Capacity, 1)),
		})
	}
	return e, nil
}

// Workers lists the dialled workers as "name@addr" (for CLI logging).
func (e *RemoteExecutor) Workers() []string {
	out := make([]string, len(e.workers))
	for i, w := range e.workers {
		out[i] = w.name + "@" + w.addr
	}
	return out
}

// Execute implements engine.Executor. The spec is tried on live workers
// in least-loaded order. Retry policy keys off the typed error the
// worker returned (api.Error.Retryable), never off HTTP status codes: a
// retryable failure — transport error, draining or out-of-sync worker —
// excludes that worker for this task (and, after downAfter consecutive
// failures, for the rest of the run) and tries the next one; a
// non-retryable failure (the request itself is bad) fails the task
// immediately, because every worker would refuse it the same way.
func (e *RemoteExecutor) Execute(ctx context.Context, spec api.TaskSpec) (api.TaskResult, error) {
	excluded := make(map[*worker]bool)
	var lastErr error
	for {
		w, err := e.acquire(ctx, excluded)
		if err != nil {
			return api.TaskResult{}, err
		}
		if w == nil {
			break
		}
		res, err := e.post(ctx, w, spec)
		if err == nil {
			if verr := res.Validate(spec); verr != nil {
				// Answered, but with a mismatched echo (foreign build or
				// broken worker): count it toward down-marking (a
				// consistently mismatched worker must not get a wasted
				// round-trip per task), exclude it for this task and keep
				// trying the rest of the fleet.
				e.markFailure(w)
				lastErr = fmt.Errorf("worker %s: %w", w.addr, verr)
				excluded[w] = true
				continue
			}
			w.fails.Store(0)
			return res, nil
		}
		if ctx.Err() != nil {
			// The run was cancelled; don't burn the fleet's failure
			// budget on aborted requests.
			return api.TaskResult{}, ctx.Err()
		}
		if !api.Retryable(err) {
			// The worker positively identified our request as the
			// problem (malformed spec); trying the rest of the fleet
			// would reproduce the refusal, and the worker is healthy —
			// no failure is recorded against it.
			return api.TaskResult{}, fmt.Errorf("remote: task %s[%d]: worker %s: %w", spec.Job, spec.Shard, w.addr, err)
		}
		e.markFailure(w)
		lastErr = fmt.Errorf("worker %s: %w", w.addr, err)
		excluded[w] = true
	}
	if e.fallback != nil {
		return e.fallback.Execute(ctx, spec)
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("every worker is down")
	}
	return api.TaskResult{}, fmt.Errorf("remote: task %s[%d]: %w (no fallback executor)", spec.Job, spec.Shard, lastErr)
}

// markFailure records one transport failure against a worker; crossing
// the down threshold starts (or extends) its re-probation backoff.
func (e *RemoteExecutor) markFailure(w *worker) {
	if w.fails.Add(1) >= downAfter {
		w.retryAt.Store(e.now().Add(w.probeDelay()).UnixNano())
	}
}

// acquire reserves an inflight slot on a live, non-excluded worker,
// preferring the least loaded. The reservation happens here — not at
// dispatch time — so concurrent tasks that observe the same load spread
// across the fleet instead of piling onto one worker's queue: a worker
// with a free slot is always taken over blocking on a saturated one.
// A down worker whose re-probation backoff has elapsed is claimed for
// one probe task, dispatched ahead of the live fleet; success resets
// its failure count and restores it to normal least-loaded selection,
// failure buys it another backoff. Returns (nil, nil) when every
// candidate is excluded or down; the caller owns releasing the
// returned worker's slot.
func (e *RemoteExecutor) acquire(ctx context.Context, excluded map[*worker]bool) (*worker, error) {
	for {
		// Candidates in ascending load order (stable across the loop
		// body; load is read once per pass). A down worker whose probe is
		// due is handled first and separately: the probe window is only
		// claimed (retryAt CAS-pushed forward, so concurrent dispatches
		// send at most one probe) when this dispatch actually commits to
		// it, and a claimed probe is dispatched ahead of the live fleet —
		// deferring it behind the least-loaded sort could starve the
		// probe forever on load ties.
		var cands []*worker
		now := e.now().UnixNano()
		for _, w := range e.workers {
			if excluded[w] {
				continue
			}
			if w.down() {
				at := w.retryAt.Load()
				// at == 0: the worker just crossed the down threshold and
				// markFailure has not stored its backoff yet — not probe
				// time, a full backoff must elapse first.
				if at == 0 || now < at || !w.retryAt.CompareAndSwap(at, now+int64(w.probeDelay())) {
					continue
				}
				select {
				case w.slots <- struct{}{}:
					return w, nil
				default:
					// Still busy with pre-down work; the claimed window
					// is spent, the probe waits for the next backoff.
					continue
				}
			}
			cands = append(cands, w)
		}
		if len(cands) == 0 {
			return nil, nil
		}
		sort.SliceStable(cands, func(i, j int) bool { return len(cands[i].slots) < len(cands[j].slots) })
		// Fast path: a free slot anywhere in the fleet.
		for _, w := range cands {
			select {
			case w.slots <- struct{}{}:
				return w, nil
			default:
			}
		}
		// Whole fleet saturated: block on the least-loaded candidate,
		// but re-scan periodically in case another worker frees first.
		timer := time.NewTimer(50 * time.Millisecond)
		select {
		case cands[0].slots <- struct{}{}:
			timer.Stop()
			return cands[0], nil
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		}
	}
}

// post ships spec to w, whose inflight slot the caller has already
// reserved via acquire; the slot is released when the call returns.
// Non-200 bodies are typed api.Error JSON (see WriteError); the caller
// keys its retry/exclusion decision off the decoded code.
func (e *RemoteExecutor) post(ctx context.Context, w *worker, spec api.TaskSpec) (api.TaskResult, error) {
	defer func() { <-w.slots }()
	var res api.TaskResult
	err := PostJSON(ctx, e.client, w.addr+ExecutePath, spec, &res)
	return res, err
}
