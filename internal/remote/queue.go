package remote

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/api"
	"repro/internal/backoff"
)

// statusPollWait is the long-poll window QueueExecutor asks the broker
// to hold a job-status request open for (seconds on the wire).
const statusPollWait = 10 * time.Second

// defaultBatchLinger is how long the first submission of a wave waits
// for concurrent peers before the batch POST ships. Scheduler workers
// call Execute near-simultaneously (a sharded run fans out in one
// burst), so a couple of milliseconds coalesces a whole wave into one
// request without adding visible latency to a lone task.
const defaultBatchLinger = 2 * time.Millisecond

// submitShipTimeout bounds one batch-submit POST; the broker answers
// admission immediately, so anything longer is transport trouble the
// per-task retry loop handles.
const submitShipTimeout = 30 * time.Second

// submitRetry shapes the backoff between submit retries (transport
// failures and rate_limited rejections): start at 10ms — a refilled
// token bucket readmits quickly — and cap at 1s so a long outage
// polls about once a second, jittered so a fan-out of schedulers
// rejected together does not resubmit together.
var submitRetry = backoff.Policy{
	Base:   10 * time.Millisecond,
	Max:    time.Second,
	Jitter: 0.5,
}

// statusRetry shapes the backoff between status-poll retries when the
// broker is momentarily unreachable (the crash-recovery window): the
// job is already queued, so patience — up to 5s between polls — beats
// hammering a restarting broker.
var statusRetry = backoff.Policy{
	Base:   200 * time.Millisecond,
	Max:    5 * time.Second,
	Jitter: 0.5,
}

// maxResubmits caps how many times one task is resubmitted after its
// job vanished in a failover (admitted by a primary that died before
// the standby replicated the entry). Resubmission is safe — the
// scheduler owns seeding and dedup — but an unbounded loop would mask a
// broker that keeps losing jobs.
const maxResubmits = 5

// QueueOptions configures a QueueExecutor.
type QueueOptions struct {
	// Tenant is the fairness bucket submissions run under; empty means
	// api.DefaultTenant.
	Tenant string
	// Priority orders this scheduler's tasks within its tenant.
	Priority int
	// Client is the HTTP client; nil uses a default with no overall
	// timeout (status long-polls are the normal case).
	Client *http.Client
	// BatchLinger is how long the first submission of a wave waits for
	// concurrent peers before the batch ships: 0 means the default
	// (2ms), negative ships immediately (coalescing only what already
	// queued). Tests raise it to make batching deterministic.
	BatchLinger time.Duration
}

// QueueExecutor is an engine.Executor that routes tasks through a
// dlexec2 broker: each task is submitted as a one-task job and the
// executor long-polls the job status until a worker's result lands.
// Because the scheduler still owns seeding, ordering, merging and
// caching, a report produced through the queue is byte-identical to a
// local or push-remote run — the broker only changes who executes.
type QueueExecutor struct {
	name     string
	tenant   string
	priority int
	client   *http.Client
	linger   time.Duration
	seed     int64        // jitter seed root (broker addrs + tenant)
	seedCtr  atomic.Int64 // decorrelates concurrent retry loops

	// targets is the broker failover list; traffic moves on when the
	// current broker refuses leadership (not_leader), announces a
	// drain, or stops answering.
	targets *targets

	// Submission batcher: concurrent Executes enqueue waiters here; the
	// first one to find the batcher idle becomes responsible for
	// starting the flush loop, which ships everything queued as one
	// JobSubmitBatch POST per wave.
	mu       sync.Mutex
	pending  []*submitWaiter
	flushing bool
}

// submitWaiter is one task's submission parked in the batcher.
type submitWaiter struct {
	sub api.JobSubmit
	ch  chan submitOutcome
}

// submitOutcome is the per-job reply a waiter receives. base records
// which broker answered (or failed), so the retry loop's failover
// targets the broker that actually misbehaved — not whichever target a
// concurrent loop has already moved to.
type submitOutcome struct {
	id   string
	base string
	err  error
}

// DialQueue connects to a broker — "host:port", a full URL, or a
// comma-separated failover list — verifies it speaks the current
// protocol version, and returns an executor over it. With a single
// address startup stays strict: an unreachable, version-mismatched or
// draining broker is a configuration error. With a list, the first
// reachable primary (role "broker", not draining) wins; if only
// standbys answer — a takeover is mid-flight — the executor starts
// against a standby and follows the not_leader hints to the new
// primary once it exists.
func DialQueue(ctx context.Context, addr string, opts QueueOptions) (*QueueExecutor, error) {
	tg := newTargets(addr)
	if tg == nil {
		return nil, fmt.Errorf("remote: no broker address in %q", addr)
	}
	linger := opts.BatchLinger
	if linger == 0 {
		linger = defaultBatchLinger
	}
	e := &QueueExecutor{
		targets:  tg,
		tenant:   opts.Tenant,
		priority: opts.Priority,
		client:   orDefaultClient(opts.Client),
		linger:   linger,
		seed:     backoff.SeedString(strings.Join(tg.list, ",") + "|" + opts.Tenant),
	}
	// The executor is not shared yet, so picking the start target needs
	// no lock.
	var firstErr error
	fallback, fallbackName := -1, ""
	for i, t := range tg.list {
		st, err := probeStatus(ctx, e.client, t)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("remote: broker %s: %w", t, err)
			}
			continue
		}
		if st.Draining {
			if firstErr == nil {
				firstErr = fmt.Errorf("remote: broker %s (%s) is draining", t, st.Name)
			}
			continue
		}
		if st.Role == "broker" {
			tg.cur, e.name = i, st.Name
			return e, nil
		}
		if fallback < 0 {
			fallback, fallbackName = i, st.Name
		}
	}
	if fallback >= 0 {
		tg.cur, e.name = fallback, fallbackName
		return e, nil
	}
	return nil, firstErr
}

// Broker describes the dialled broker as "name@addr" (for CLI logging).
func (e *QueueExecutor) Broker() string { return e.name + "@" + e.targets.now() }

// Execute implements engine.Executor: submit the task as a one-task
// job, long-poll its status until done, and hand back the result. The
// result's echo is validated here (the scheduler's own defense — a
// broker or worker cannot slip a foreign result into the cache). A
// cancelled ctx best-effort cancels the job so abandoned work leaves
// the queue.
func (e *QueueExecutor) Execute(ctx context.Context, spec api.TaskSpec) (api.TaskResult, error) {
	job := api.JobSubmit{
		Proto:    api.Version,
		Tenant:   e.tenant,
		Priority: e.priority,
		Tasks:    []api.TaskSpec{spec},
	}
	id, err := e.submit(ctx, job)
	if err != nil {
		return api.TaskResult{}, fmt.Errorf("remote: task %s[%d]: submit: %w", spec.Job, spec.Shard, err)
	}
	retry := e.newRetry(statusRetry)
	misses, resubmits := 0, 0
	for {
		base := e.targets.now()
		st, err := e.jobStatus(ctx, base, id)
		if err != nil {
			if ctx.Err() != nil {
				e.cancel(id)
				return api.TaskResult{}, ctx.Err()
			}
			ae, typed := api.AsError(err)
			switch {
			case !typed:
				// Transient broker trouble: the job is already queued; keep
				// polling, rotating to the next target once the current one
				// looks dead rather than lose the job.
				e.targets.missed(&misses, base)
				retry.Sleep(ctx)
				continue
			case ae.Code == api.CodeNotFound && resubmits < maxResubmits:
				// The job fell into the replication gap: the broker that
				// admitted it died before the standby pulled the entry.
				// Submitting again is safe — the scheduler owns seeding and
				// dedup, so a re-run produces the identical result.
				misses = 0
				resubmits++
				id2, serr := e.submit(ctx, job)
				if serr != nil {
					return api.TaskResult{}, fmt.Errorf("remote: task %s[%d]: resubmit after lost job %s: %w",
						spec.Job, spec.Shard, id, serr)
				}
				id = id2
				retry.Reset()
				continue
			default:
				return api.TaskResult{}, fmt.Errorf("remote: task %s[%d]: job %s: %w", spec.Job, spec.Shard, id, err)
			}
		}
		misses = 0
		retry.Reset()
		switch st.State {
		case api.JobDone:
			if len(st.Results) != 1 {
				return api.TaskResult{}, fmt.Errorf("remote: task %s[%d]: broker %s: done job %s carries %d results, want 1",
					spec.Job, spec.Shard, base, id, len(st.Results))
			}
			res := st.Results[0]
			if verr := res.Validate(spec); verr != nil {
				return api.TaskResult{}, fmt.Errorf("remote: task %s[%d]: broker %s: %w", spec.Job, spec.Shard, base, verr)
			}
			return res, nil
		case api.JobCanceled:
			return api.TaskResult{}, api.Errf(api.CodeCanceled, "job %s was canceled", id)
		}
	}
}

// newRetry builds one retry loop's backoff off the executor's seed
// root, bumping a counter so concurrent loops jitter independently.
func (e *QueueExecutor) newRetry(p backoff.Policy) *backoff.Backoff {
	return p.New(e.seed + e.seedCtr.Add(1))
}

// submit routes one job through the batcher and waits for its per-job
// outcome, retrying with capped jittered backoff on transport failures
// (broker momentarily down — the crash-recovery window) and on the
// typed "back off and resubmit" rejections: rate_limited, not_leader,
// and (with somewhere else to go) draining. Every typed retry floors
// the backoff at the broker's own Retry-After hint —
// retrying sooner than the server's named comeback time is a
// guaranteed wasted round-trip. not_leader additionally fails over to
// the primary the error names; repeated transport failures rotate
// through the target list. Other typed errors fail fast: the broker
// positively rejected the submission.
func (e *QueueExecutor) submit(ctx context.Context, sub api.JobSubmit) (string, error) {
	retry := e.newRetry(submitRetry)
	misses := 0
	for {
		if err := ctx.Err(); err != nil {
			return "", err
		}
		w := &submitWaiter{sub: sub, ch: make(chan submitOutcome, 1)}
		e.enqueue(w)
		var out submitOutcome
		select {
		case out = <-w.ch:
		case <-ctx.Done():
			// The batch may still ship; reap the outcome and cancel the
			// orphan job so abandoned work leaves the queue.
			go func() {
				if late := <-w.ch; late.err == nil {
					e.cancel(late.id)
				}
			}()
			return "", ctx.Err()
		}
		if out.err == nil {
			return out.id, nil
		}
		ae, typed := api.AsError(out.err)
		if typed {
			misses = 0
		}
		switch {
		case !typed:
			e.targets.missed(&misses, out.base)
			retry.Sleep(ctx)
		case ae.Code == api.CodeNotLeader:
			// A standby (or fenced ex-primary) answered: go where it
			// points.
			e.targets.failover(out.base, ae.Primary)
			retry.SleepAtLeast(ctx, time.Duration(ae.RetryAfterNS))
		case ae.Code == api.CodeRateLimited:
			retry.SleepAtLeast(ctx, time.Duration(ae.RetryAfterNS))
		case ae.Code == api.CodeDraining && e.targets.size() > 1:
			// With a failover list, a draining broker is a hop, not a
			// fatal config error (which it stays for single-target runs).
			e.targets.failover(out.base, "")
			retry.SleepAtLeast(ctx, time.Duration(ae.RetryAfterNS))
		default:
			return "", out.err
		}
	}
}

// enqueue parks w in the batcher, starting the flush loop if idle.
func (e *QueueExecutor) enqueue(w *submitWaiter) {
	e.mu.Lock()
	e.pending = append(e.pending, w)
	if !e.flushing {
		e.flushing = true
		go e.flushLoop()
	}
	e.mu.Unlock()
}

// flushLoop ships submission waves until the batcher drains: linger a
// moment so a fan-out of concurrent Executes lands in one wave, take
// everything pending, POST it as one JobSubmitBatch, repeat.
func (e *QueueExecutor) flushLoop() {
	for {
		if e.linger > 0 {
			backoff.Sleep(context.Background(), e.linger)
		}
		e.mu.Lock()
		batch := e.pending
		e.pending = nil
		if len(batch) == 0 {
			e.flushing = false
			e.mu.Unlock()
			return
		}
		e.mu.Unlock()
		e.ship(batch)
	}
}

// ship POSTs one wave and distributes the per-job outcomes.
func (e *QueueExecutor) ship(batch []*submitWaiter) {
	req := api.JobSubmitBatch{Proto: api.Version, Jobs: make([]api.JobSubmit, len(batch))}
	for i, w := range batch {
		req.Jobs[i] = w.sub
	}
	ctx, cancel := context.WithTimeout(context.Background(), submitShipTimeout)
	defer cancel()
	base := e.targets.now()
	var rep api.SubmitBatchReply
	err := PostJSON(ctx, e.client, base+SubmitBatchPath, req, &rep)
	if err == nil && len(rep.Jobs) != len(batch) {
		err = fmt.Errorf("batch submit answered %d of %d jobs", len(rep.Jobs), len(batch))
	}
	for i, w := range batch {
		switch {
		case err != nil:
			w.ch <- submitOutcome{base: base, err: err}
		case rep.Jobs[i].Err != nil:
			w.ch <- submitOutcome{base: base, err: rep.Jobs[i].Err}
		default:
			w.ch <- submitOutcome{base: base, id: rep.Jobs[i].ID}
		}
	}
}

// jobStatus long-polls one job's status against base.
func (e *QueueExecutor) jobStatus(ctx context.Context, base, id string) (api.JobStatus, error) {
	var st api.JobStatus
	url := fmt.Sprintf("%s%s?id=%s&wait=%d", base, JobStatusPath, id, int(statusPollWait.Seconds()))
	err := GetJSON(ctx, e.client, url, &st)
	return st, err
}

// cancel best-effort cancels an abandoned job.
func (e *QueueExecutor) cancel(id string) {
	ctx, done := context.WithTimeout(context.Background(), 5*time.Second)
	defer done()
	PostJSON(ctx, e.client, e.targets.now()+CancelPath, api.CancelRequest{Proto: api.Version, ID: id}, nil)
}
