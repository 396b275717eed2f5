// Package queue implements the dlexec2 job broker: a persistent
// in-daemon queue that takes job submissions from schedulers and hands
// the individual tasks to workers through pull-based leases.
//
// The broker is transport-agnostic — internal/remote wraps it in HTTP —
// and deliberately knows nothing about experiments: a task is an opaque
// api.TaskSpec routed by (tenant, priority, submission order). Four
// mechanisms make it a service rather than a dispatcher:
//
//   - Weighted per-tenant fairness. Pending tasks queue per tenant, and
//     dispatch picks the tenant with the lowest virtual time
//     (served/weight, stride scheduling), so a tenant that floods the
//     queue still only gets its weighted share while others have work.
//     Priority orders tasks within a tenant, never across tenants.
//
//   - Leases. A dispatched task is not gone, it is leased: the worker
//     must finish or renew within the TTL or the task requeues. Worker
//     death needs no failure detector beyond the clock.
//
//   - Dynamic membership. Workers register (Hello), stay alive by
//     polling, renewing leases and reporting results, and leave by
//     draining. A silent worker expires after a few TTLs and its
//     leases requeue.
//
//   - Hedged re-dispatch. When a poller has capacity and the queue is
//     empty, a task whose lease has been outstanding longer than the
//     hedge threshold is dispatched a second time. This is safe — not
//     merely tolerable — because tasks are deterministic and
//     cache-keyed: the first result wins and the loser is verified to
//     be a byte-identical duplicate (observable in Metrics and DoneReply
//     as a cache hit).
//
// Every public method is safe for concurrent use. Time is injectable
// (Config.Now) and all expiry is evaluated lazily on access, so tests
// drive lease expiry, hedging and membership timeouts with a fake clock
// and zero sleeps.
package queue

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
)

// Defaults for Config zero values.
const (
	DefaultLeaseTTL = 30 * time.Second
	// defaultJobRetention is how long a finished job's status (and its
	// leases, for duplicate detection) stay queryable.
	defaultJobRetention = 10 * time.Minute
)

// workerExpiryTTLs scales LeaseTTL into how long a worker may stay
// completely silent (no poll, renew or done) before its
// registration and leases are dropped.
const workerExpiryTTLs = 3

// ResultPlane is the broker's read-side view of the fleet result store
// (internal/resultplane): Lookup answers a task's fully seeded cache
// key with the persisted result, if the plane holds one. The broker
// consults it at submit time and completes already-computed tasks
// without ever granting a lease. Implementations must degrade — a dead
// plane looks like a miss — and must tolerate being called outside any
// broker lock (lookups block on the network).
type ResultPlane interface {
	Lookup(ctx context.Context, key string) (api.CachedResult, bool)
}

// Config tunes a Broker. The zero value is usable.
type Config struct {
	// LeaseTTL is the lease duration; 0 means DefaultLeaseTTL.
	LeaseTTL time.Duration
	// HedgeAfter is how long a task's oldest lease may be outstanding
	// before an idle poller is offered a duplicate lease for it; 0
	// disables hedging. Each task gets at most one hedge at a time, and
	// never on the worker already holding it.
	HedgeAfter time.Duration
	// Weights assigns per-tenant fairness weights; tenants absent from
	// the map (and the map being nil) weigh 1. Weights below 1 read
	// as 1.
	Weights map[string]int
	// JobRetention is how long finished/canceled jobs stay queryable;
	// 0 means 10 minutes.
	JobRetention time.Duration
	// MaxQueued caps every tenant's pending queue depth (admission
	// control): a submission that would push the queue past the limit is
	// rejected with queue_full. 0 means unlimited. Requeues of
	// already-admitted tasks are never gated, and neither is journal
	// replay — limits apply to new work only.
	MaxQueued int
	// MaxQueuedTenant overrides MaxQueued per tenant (0 or negative =
	// unlimited for that tenant).
	MaxQueuedTenant map[string]int
	// MaxSubmitRate caps every tenant's sustained submission rate in
	// tasks per second (token bucket with a one-second burst): a
	// submission the bucket cannot cover is rejected with rate_limited
	// and a Retry-After hint. 0 means unlimited. Where MaxQueued bounds
	// standing backlog, this bounds arrival speed — a fleet of clients
	// in a retry storm is shed here before it can saturate the journal.
	MaxSubmitRate int
	// MaxSubmitRateTenant overrides MaxSubmitRate per tenant (0 or
	// negative = unlimited for that tenant).
	MaxSubmitRateTenant map[string]int
	// Journal, when non-nil, makes the backlog crash-safe: submissions,
	// grants, completions and cancels are journaled (see OpenJournal),
	// and New replays + compacts the journal before serving.
	Journal *Journal
	// Plane, when non-nil, makes the broker cache-aware: cache-keyed
	// tasks are looked up in the result plane at submit time, and hits
	// complete immediately (journaled like worker results) without a
	// lease. A fully plane-resident job finishes with zero workers.
	Plane ResultPlane
	// Follower starts the broker as a replication follower: read-only,
	// continuously applying a primary's journal stream (ApplyReplicated)
	// until promoted. Mutations are refused with not_leader.
	Follower bool
	// PrimaryAddr is the address a follower redirects mutations to (the
	// Primary hint on not_leader errors) while it is not the leader.
	PrimaryAddr string
	// Now is the clock; nil means time.Now. Tests inject a fake.
	Now func() time.Time
}

type taskState uint8

const (
	taskPending taskState = iota
	taskLeased
	taskDone
	taskCanceled
)

// task is one queued unit.
type task struct {
	id    string // "<job id>/<index>", for logs
	job   *job
	idx   int
	spec  api.TaskSpec
	seq   uint64 // global submission order, the FIFO tie-breaker
	state taskState
	// enqueued is when the task last entered the pending queue (submit,
	// replay or requeue); the metrics queue-age gauge reads it.
	enqueued time.Time
	// granted records that a grant entry was seen during replay or
	// replication while the task was pending: the primary had it out on
	// a lease that did not survive. Promote reports these as requeued —
	// a takeover turns live leases into expiry→requeue.
	granted bool
	// leases holds the active leases (normally one; two while hedged).
	leases map[string]*lease
	result *api.TaskResult
}

// job is one submission: tasks sharing tenant and priority.
type job struct {
	id       string
	tenant   string
	priority int
	tasks    []*task
	done     int
	failed   int
	canceled bool
	// finished closes when the job reaches JobDone or JobCanceled
	// (WaitStatus parks on it).
	finished   chan struct{}
	finishedAt time.Time
}

func (j *job) complete() bool { return j.canceled || j.done == len(j.tasks) }

func (j *job) state() api.JobState {
	switch {
	case j.canceled:
		return api.JobCanceled
	case j.done == len(j.tasks):
		return api.JobDone
	case j.done > 0 || j.running():
		return api.JobRunning
	default:
		return api.JobQueued
	}
}

func (j *job) running() bool {
	for _, t := range j.tasks {
		if t.state == taskLeased {
			return true
		}
	}
	return false
}

// lease is one grant of one task to one worker.
type lease struct {
	id       string
	t        *task
	worker   string
	start    time.Time
	deadline time.Time
	hedged   bool
	// active is false once the lease expired, was superseded by a
	// recorded result, or its worker died. Inactive leases are kept (until
	// their job is swept) so a late TaskDone is recognised as a duplicate
	// instead of an unknown lease.
	active bool
	// progress is the worker's latest heartbeat for this lease
	// (piggybacked on renewals); progressAt is when it arrived, seeded
	// with the grant time so progress age starts at lease age.
	progress   *api.TaskProgress
	progressAt time.Time
}

// workerRec is one live registration.
type workerRec struct {
	id       string
	name     string
	capacity int
	lastSeen time.Time
	draining bool
	leases   map[string]*lease
}

// tenantQ is one tenant's pending queue plus its fairness state and
// submission token bucket.
type tenantQ struct {
	name   string
	weight int
	limit  int    // admission cap on len(q); 0 = unlimited
	served uint64 // tasks dispatched, the stride-scheduling numerator
	q      []*task

	// Token bucket (rate > 0 only): refills at rate tokens/second up to
	// a one-second burst; each submitted task costs one token.
	rate     int
	tokens   float64
	refilled time.Time
}

// takeTokens refills the bucket for the time elapsed and tries to pay
// for need tasks. A full bucket always admits — even a job larger than
// the burst — letting its balance go negative (debt), so oversized
// jobs are delayed, not starved. The return value is 0 on admission,
// otherwise how long until the bucket can cover the job (the
// Retry-After hint).
func (tq *tenantQ) takeTokens(need int, now time.Time) time.Duration {
	burst := float64(tq.rate)
	if el := now.Sub(tq.refilled).Seconds(); el > 0 {
		tq.tokens += float64(el * float64(tq.rate))
		if tq.tokens > burst {
			tq.tokens = burst
		}
	}
	tq.refilled = now
	if tq.tokens >= float64(need) || tq.tokens >= burst {
		tq.tokens -= float64(need)
		return 0
	}
	// Wait until either need tokens exist or the bucket fills, whichever
	// comes first.
	deficit := float64(need) - tq.tokens
	if full := burst - tq.tokens; full < deficit {
		deficit = full
	}
	wait := time.Duration(deficit / float64(tq.rate) * float64(time.Second))
	if wait <= 0 {
		wait = time.Millisecond
	}
	return wait
}

// insert places t keeping the dispatch order invariant: priority
// descending, then submission sequence ascending. A requeued task
// re-enters at its original position relative to its peers.
func (tq *tenantQ) insert(t *task) {
	i := sort.Search(len(tq.q), func(i int) bool {
		if tq.q[i].job.priority != t.job.priority {
			return tq.q[i].job.priority < t.job.priority
		}
		return tq.q[i].seq > t.seq
	})
	tq.q = append(tq.q, nil)
	copy(tq.q[i+1:], tq.q[i:])
	tq.q[i] = t
}

// Broker is the queue service. See the package comment for semantics.
type Broker struct {
	mu  sync.Mutex
	cfg Config
	now func() time.Time

	seq     uint64 // id source (jobs, leases, workers, task order)
	jobs    map[string]*job
	leases  map[string]*lease
	workers map[string]*workerRec
	tenants map[string]*tenantQ

	// wake is closed and replaced whenever new work becomes available;
	// long-polls park on it.
	wake chan struct{}

	// Replication role state. role gates mutations (only a primary
	// accepts them); epoch is the fencing epoch (see Promote/Fence);
	// primaryAddr is the redirect hint carried on not_leader errors;
	// repl is the follower-side cursor and application counters.
	role        Role
	epoch       int64
	primaryAddr string
	repl        replState

	// stats holds the lifetime counters; Metrics adds the gauges.
	stats api.BrokerMetrics
}

// New builds a Broker from cfg (zero value fine).
func New(cfg Config) *Broker {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.JobRetention <= 0 {
		cfg.JobRetention = defaultJobRetention
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	b := &Broker{
		cfg:     cfg,
		now:     now,
		jobs:    make(map[string]*job),
		leases:  make(map[string]*lease),
		workers: make(map[string]*workerRec),
		tenants: make(map[string]*tenantQ),
		wake:    make(chan struct{}),
		// Every broker starts at epoch 1 (the implicit pre-HA epoch), so
		// the first promotion anywhere mints epoch 2 and strictly
		// outranks a zombie primary that never saw an epoch entry.
		epoch:       1,
		primaryAddr: cfg.PrimaryAddr,
	}
	if cfg.Follower {
		b.role = RoleFollower
	}
	if cfg.Journal != nil {
		b.replayJournal(cfg.Journal)
	}
	return b
}

// nextID mints a prefixed sequential id. Sequential — not random — ids
// keep broker behavior fully deterministic under test.
func (b *Broker) nextID(prefix string) string {
	b.seq++
	return fmt.Sprintf("%s%d", prefix, b.seq)
}

// wakeAll releases every parked long-poll (new work arrived).
func (b *Broker) wakeAll() {
	close(b.wake)
	b.wake = make(chan struct{})
}

// tenantFor returns (creating on demand) the tenant's queue.
func (b *Broker) tenantFor(name string) *tenantQ {
	tq := b.tenants[name]
	if tq == nil {
		w := 1
		if b.cfg.Weights != nil && b.cfg.Weights[name] > 1 {
			w = b.cfg.Weights[name]
		}
		limit := b.cfg.MaxQueued
		if l, ok := b.cfg.MaxQueuedTenant[name]; ok {
			limit = l
		}
		if limit < 0 {
			limit = 0
		}
		rate := b.cfg.MaxSubmitRate
		if r, ok := b.cfg.MaxSubmitRateTenant[name]; ok {
			rate = r
		}
		if rate < 0 {
			rate = 0
		}
		tq = &tenantQ{name: name, weight: w, limit: limit, rate: rate}
		if rate > 0 {
			// Start full: the first second's burst is free.
			tq.tokens = float64(rate)
			tq.refilled = b.now()
		}
		b.tenants[name] = tq
	}
	return tq
}

// Submit enqueues a job and returns its id. Admission control may
// reject it with queue_full (retryable); journaled brokers fsync the
// submission before replying, so an acknowledged job survives a crash.
// On a cache-aware broker, tasks the result plane already holds are
// completed at submit and never queue.
func (b *Broker) Submit(s api.JobSubmit) (api.SubmitReply, error) {
	if err := s.Validate(); err != nil {
		return api.SubmitReply{}, err
	}
	items, err := b.submitWave([]api.JobSubmit{s})
	if err != nil {
		return api.SubmitReply{}, err
	}
	if items[0].Err != nil {
		return api.SubmitReply{}, items[0].Err
	}
	return api.SubmitReply{Proto: api.Version, ID: items[0].ID}, nil
}

// prefetchPlane consults the result plane for every cache-keyed task of
// a validated submission. It runs outside b.mu — lookups block on the
// network — and any failure (or an error-carrying entry) is a miss.
func (b *Broker) prefetchPlane(s api.JobSubmit) map[int]api.CachedResult {
	p := b.cfg.Plane
	if p == nil {
		return nil
	}
	var hits map[int]api.CachedResult
	for i, spec := range s.Tasks {
		if spec.CacheKey == "" {
			continue
		}
		cr, ok := p.Lookup(context.Background(), spec.CacheKey)
		if !ok || cr.Err != "" {
			continue
		}
		if hits == nil {
			hits = make(map[int]api.CachedResult)
		}
		hits[i] = cr
	}
	return hits
}

// planeResult synthesizes the TaskResult for a submit-time plane hit:
// spec fields are echoed (so Validate passes on the scheduler side) and
// the worker stamp names the plane, making replayed completions
// distinguishable in reports and logs.
func planeResult(spec api.TaskSpec, cr api.CachedResult) api.TaskResult {
	return api.TaskResult{
		Proto: api.Version, Job: spec.Job, Shard: spec.Shard, Key: spec.Key,
		Text: cr.Text, Data: cr.Data, Err: cr.Err,
		DurationNS: cr.DurationNS, Worker: "result-plane",
	}
}

// SubmitBatch enqueues several jobs in one call with per-job outcomes:
// admission control rejects jobs individually, so one full tenant fails
// only its own submissions, and a single fsync covers the whole batch —
// the round-trip (and durability) cost of a sharded run's submission
// wave is O(1), not O(tasks).
func (b *Broker) SubmitBatch(bt api.JobSubmitBatch) (api.SubmitBatchReply, error) {
	if err := bt.Validate(); err != nil {
		return api.SubmitBatchReply{}, err
	}
	items, err := b.submitWave(bt.Jobs)
	if err != nil {
		return api.SubmitBatchReply{}, err
	}
	return api.SubmitBatchReply{Proto: api.Version, Jobs: items}, nil
}

// submitWave admits validated submissions one by one, then fsyncs and
// wakes pollers once if any was accepted. Plane lookups run first,
// outside the lock. The returned error is for the whole wave (a
// non-primary broker); per-job refusals are in the items.
func (b *Broker) submitWave(subs []api.JobSubmit) ([]api.SubmitItem, error) {
	if err := b.roleGate(); err != nil {
		return nil, err
	}
	hits := make([]map[int]api.CachedResult, len(subs))
	for i, s := range subs {
		hits[i] = b.prefetchPlane(s)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	// Re-check under the lock: the role may have flipped (a fence
	// landing) between the fast-path gate and here.
	if err := b.roleGateLocked(); err != nil {
		return nil, err
	}
	b.sweep()
	items := make([]api.SubmitItem, len(subs))
	accepted := false
	for i, s := range subs {
		id, err := b.submitLocked(s, hits[i])
		if err != nil {
			ae, ok := api.AsError(err)
			if !ok {
				ae = api.Errf(api.CodeInternal, "%v", err)
			}
			items[i] = api.SubmitItem{Err: ae}
			continue
		}
		items[i] = api.SubmitItem{ID: id}
		accepted = true
	}
	if accepted {
		b.journalSyncLocked()
		b.wakeAll()
	}
	return items, nil
}

// submitLocked admits one validated submission against its tenant's
// depth limit, enqueues it, and journals it (unsynced — the caller
// fsyncs once per submission wave before replying). hits maps task
// indices to prefetched plane results: those tasks complete at submit,
// so admission control and the rate limiter charge only the tasks that
// actually queue — cached work is free.
func (b *Broker) submitLocked(s api.JobSubmit, hits map[int]api.CachedResult) (string, error) {
	tenant := s.Tenant
	if tenant == "" {
		tenant = api.DefaultTenant
	}
	uncached := len(s.Tasks) - len(hits)
	tq := b.tenantFor(tenant)
	if tq.limit > 0 && len(tq.q)+uncached > tq.limit {
		b.stats.Rejected++
		return "", api.Errf(api.CodeQueueFull,
			"tenant %q queue is full (%d pending, limit %d, job adds %d tasks); back off and resubmit",
			tenant, len(tq.q), tq.limit, uncached)
	}
	if tq.rate > 0 && uncached > 0 {
		if wait := tq.takeTokens(uncached, b.now()); wait > 0 {
			b.stats.RateLimited++
			ae := api.Errf(api.CodeRateLimited,
				"tenant %q is over its submission rate (%d tasks/s, job adds %d); retry in %v",
				tenant, tq.rate, uncached, wait)
			ae.RetryAfterNS = int64(wait)
			return "", ae
		}
	}
	j := b.addJobLocked(b.nextID("j"), tenant, s.Priority, s.Tasks)
	for _, t := range j.tasks {
		if cr, ok := hits[t.idx]; ok {
			b.completeTaskLocked(t, planeResult(t.spec, cr))
			b.stats.PlaneHits++
		}
	}
	b.journalAppendLocked(journalEntry{
		Kind: entrySubmit, Job: j.id,
		Tenant: tenant, Priority: s.Priority, Tasks: s.Tasks,
	}, false)
	// Plane completions are journaled like worker results, so a replay
	// restores them done instead of re-queueing the tasks. The caller's
	// single fsync covers the whole wave. A job whose every task was
	// plane-resident is born finished: zero leases, zero workers.
	for _, t := range j.tasks {
		if t.state == taskDone {
			b.journalAppendLocked(journalEntry{
				Kind: entryDone, Job: j.id, Task: t.idx, Result: t.result,
			}, false)
		}
	}
	return j.id, nil
}

// addJobLocked builds job id over specs and queues every task. It is
// the one job constructor, shared by live submission, startup replay
// and replication, so their state cannot drift. Tasks take fresh
// sequence numbers in submission order (the FIFO tie-breaker), and the
// id sequence is kept ahead of id so later minted ids never collide
// with a journaled one.
func (b *Broker) addJobLocked(id, tenant string, priority int, specs []api.TaskSpec) *job {
	j := &job{id: id, tenant: tenant, priority: priority, finished: make(chan struct{})}
	tq := b.tenantFor(tenant)
	now := b.now()
	for i, spec := range specs {
		t := &task{
			id:       fmt.Sprintf("%s/%d", id, i),
			job:      j,
			idx:      i,
			spec:     spec,
			seq:      b.seq + uint64(i) + 1,
			enqueued: now,
			leases:   make(map[string]*lease),
		}
		j.tasks = append(j.tasks, t)
		tq.insert(t)
	}
	b.seq += uint64(len(specs))
	if n, ok := numericID(id, "j"); ok && n > b.seq {
		b.seq = n
	}
	b.jobs[id] = j
	b.stats.Submitted += len(j.tasks)
	return j
}

// completeTaskLocked records res as t's result. It is the one
// result-recording transition, shared by live Done, submit-time plane
// hits, startup replay and replication. t must be pending or leased: a
// pending task leaves its queue, and a leased one's remaining leases
// are released (their holders' late results come back as duplicates).
func (b *Broker) completeTaskLocked(t *task, res api.TaskResult) {
	if t.state == taskPending {
		b.tenantFor(t.job.tenant).remove(t)
	}
	b.releaseLeases(t)
	t.result = &res
	t.state = taskDone
	j := t.job
	j.done++
	b.stats.Completed++
	if res.Err != "" {
		j.failed++
		b.stats.Failed++
	}
	if j.done == len(j.tasks) {
		j.finishedAt = b.now()
		close(j.finished)
	}
}

// cancelJobLocked cancels a job that is not yet complete. It is the one
// cancel transition, shared by live Cancel, startup replay and
// replication: pending tasks leave the queue at once, leased ones keep
// running on their workers but lose their leases, so their results are
// discarded on arrival.
func (b *Broker) cancelJobLocked(j *job) {
	j.canceled = true
	j.finishedAt = b.now()
	tq := b.tenantFor(j.tenant)
	for _, t := range j.tasks {
		switch t.state {
		case taskPending:
			tq.remove(t)
			t.state = taskCanceled
		case taskLeased:
			t.state = taskCanceled
			b.releaseLeases(t)
		}
	}
	close(j.finished)
}

// journalSyncLocked makes everything appended so far durable (no-op
// without a journal).
func (b *Broker) journalSyncLocked() {
	if b.cfg.Journal != nil {
		b.cfg.Journal.sync()
	}
}

// journalAppendLocked writes one journal entry (no-op without a
// journal) and, when the append rolled the active segment over, kicks
// off background compaction. The snapshot must be taken here, under
// b.mu in the same critical section as the rotating append: every
// journal write happens after the state change it records and under
// this lock, so right now the live state equals exactly the sealed
// segments' effect (the fresh active segment is empty) — folding the
// snapshot over them neither loses nor double-counts an entry.
func (b *Broker) journalAppendLocked(e journalEntry, sync bool) {
	if jl := b.cfg.Journal; jl != nil {
		b.compactIfRotatedLocked(jl.append(e, sync))
	}
}

// compactIfRotatedLocked starts a background fold of the sealed
// segments after an append rolled the active one over (see
// journalAppendLocked for why the snapshot is taken here).
func (b *Broker) compactIfRotatedLocked(rotated bool) {
	if !rotated {
		return
	}
	jl := b.cfg.Journal
	if claimed := jl.claimSealed(); claimed != nil {
		jl.compactAsync(claimed, b.liveEntriesLocked())
	}
}

// Status reports a job's progress; Results is populated once done.
func (b *Broker) Status(id string) (api.JobStatus, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.sweep()
	j := b.jobs[id]
	if j == nil {
		return api.JobStatus{}, api.JobNotFound(id)
	}
	return b.statusLocked(j), nil
}

func (b *Broker) statusLocked(j *job) api.JobStatus {
	st := api.JobStatus{
		Proto:    api.Version,
		ID:       j.id,
		Tenant:   j.tenant,
		Priority: j.priority,
		State:    j.state(),
		Total:    len(j.tasks),
		Done:     j.done,
		Failed:   j.failed,
	}
	if st.State == api.JobDone {
		st.Results = make([]api.TaskResult, len(j.tasks))
		for i, t := range j.tasks {
			st.Results[i] = *t.result
		}
	}
	return st
}

// WaitStatus blocks until the job finishes (done or canceled), the wait
// elapses, or ctx cancels, then reports its status — the long-poll
// backing of the submit side. wait <= 0 degrades to Status.
func (b *Broker) WaitStatus(ctx context.Context, id string, wait time.Duration) (api.JobStatus, error) {
	b.mu.Lock()
	b.sweep()
	j := b.jobs[id]
	if j == nil {
		b.mu.Unlock()
		return api.JobStatus{}, api.JobNotFound(id)
	}
	if wait <= 0 || j.complete() {
		st := b.statusLocked(j)
		b.mu.Unlock()
		return st, nil
	}
	fin := j.finished
	b.mu.Unlock()

	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-fin:
	case <-timer.C:
	case <-ctx.Done():
		return api.JobStatus{}, ctx.Err()
	}
	return b.Status(id)
}

// Cancel cancels a job: pending tasks leave the queue immediately;
// leased tasks keep running on their workers but their results are
// discarded on arrival (the lease is already paid for — the broker just
// stops caring).
func (b *Broker) Cancel(req api.CancelRequest) error {
	if err := api.CheckProto(req.Proto); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.roleGateLocked(); err != nil {
		return err
	}
	b.sweep()
	j := b.jobs[req.ID]
	if j == nil {
		return api.JobNotFound(req.ID)
	}
	if j.complete() {
		if j.canceled {
			return nil // idempotent
		}
		return api.Errf(api.CodeCanceled, "job %s already finished; cancel has no effect", j.id)
	}
	b.cancelJobLocked(j)
	b.journalAppendLocked(journalEntry{Kind: entryCancel, Job: j.id}, true)
	return nil
}

// remove drops t from the pending queue (cancel path).
func (tq *tenantQ) remove(t *task) {
	for i, q := range tq.q {
		if q == t {
			tq.q = append(tq.q[:i], tq.q[i+1:]...)
			return
		}
	}
}

// Hello registers a worker. This is where a mixed-fleet upgrade fails
// loudly: an incompatible protocol revision is rejected before the
// worker ever holds a lease.
func (b *Broker) Hello(h api.WorkerHello) (api.HelloReply, error) {
	if err := h.Validate(); err != nil {
		return api.HelloReply{}, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.roleGateLocked(); err != nil {
		return api.HelloReply{}, err
	}
	b.sweep()
	w := &workerRec{
		id:       b.nextID("w"),
		name:     h.Name,
		capacity: h.Capacity,
		lastSeen: b.now(),
		leases:   make(map[string]*lease),
	}
	b.workers[w.id] = w
	return api.HelloReply{
		Proto:      api.Version,
		WorkerID:   w.id,
		LeaseTTLNS: int64(b.cfg.LeaseTTL),
	}, nil
}

// Drain marks a worker as leaving: no new leases are offered to it; its
// in-flight leases finish normally.
func (b *Broker) Drain(d api.DrainRequest) error {
	if err := api.CheckProto(d.Proto); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.roleGateLocked(); err != nil {
		return err
	}
	w := b.workers[d.WorkerID]
	if w == nil {
		return api.WorkerNotFound(d.WorkerID)
	}
	w.draining = true
	w.lastSeen = b.now()
	return nil
}

// Poll grants up to req.Max leases to the worker. With req.WaitNS > 0
// and nothing to dispatch, the call parks until work arrives, the wait
// elapses, or ctx cancels (long poll).
func (b *Broker) Poll(ctx context.Context, req api.PollRequest) (api.PollReply, error) {
	if err := api.CheckProto(req.Proto); err != nil {
		return api.PollReply{}, err
	}
	max := req.Max
	if max <= 0 {
		max = 1
	}
	deadline := time.Time{}
	if req.WaitNS > 0 {
		deadline = time.Now().Add(time.Duration(req.WaitNS))
	}
	for {
		b.mu.Lock()
		if err := b.roleGateLocked(); err != nil {
			b.mu.Unlock()
			return api.PollReply{}, err
		}
		b.sweep()
		w := b.workers[req.WorkerID]
		if w == nil {
			b.mu.Unlock()
			return api.PollReply{}, api.WorkerNotFound(req.WorkerID)
		}
		w.lastSeen = b.now()
		var leases []api.Lease
		if !w.draining {
			for len(leases) < max {
				l := b.dispatchOne(w)
				if l == nil {
					break
				}
				leases = append(leases, api.Lease{
					ID:         l.id,
					Task:       l.t.spec,
					DeadlineNS: l.deadline.UnixNano(),
					Hedged:     l.hedged,
				})
			}
		}
		wake := b.wake
		next := b.nextEventLocked()
		b.mu.Unlock()
		if len(leases) > 0 || deadline.IsZero() || !time.Now().Before(deadline) {
			return api.PollReply{Proto: api.Version, Leases: leases}, nil
		}
		// Park until new work (wake), the long-poll deadline, or the next
		// time-triggered dispatch change — a lease expiring into a requeue
		// or a straggler becoming hedge-eligible. Without the latter a
		// parked poll would sit out the whole wait while a requeued task
		// sat in the queue (expiry is evaluated lazily, on entry).
		until := time.Until(deadline)
		if !next.IsZero() {
			if d := next.Sub(b.now()) + time.Millisecond; d < until {
				until = d
			}
			if until < time.Millisecond {
				until = time.Millisecond
			}
		}
		timer := time.NewTimer(until)
		select {
		case <-wake:
			timer.Stop()
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return api.PollReply{}, ctx.Err()
		}
	}
}

// nextEventLocked returns the earliest instant (broker clock) at which
// the passage of time alone could make new dispatch possible: an active
// lease expiring (requeue) or a single-leased task crossing the hedge
// threshold. Zero when no such instant is pending.
func (b *Broker) nextEventLocked() time.Time {
	var next time.Time
	sooner := func(t time.Time) {
		if next.IsZero() || t.Before(next) {
			next = t
		}
	}
	for _, l := range b.leases {
		if !l.active {
			continue
		}
		sooner(l.deadline)
		if b.cfg.HedgeAfter > 0 && len(l.t.leases) == 1 {
			sooner(l.start.Add(b.cfg.HedgeAfter))
		}
	}
	return next
}

// dispatchOne picks the next task for w, preferring fresh pending work
// (weighted-fair across tenants, priority-then-FIFO within one) and
// falling back to hedging a straggler. Returns nil when there is
// nothing for this worker.
func (b *Broker) dispatchOne(w *workerRec) *lease {
	// Weighted fair pick: among tenants with pending work, the lowest
	// virtual time served/weight wins; ties break on tenant name so the
	// schedule is deterministic.
	var pick *tenantQ
	for _, tq := range b.tenants {
		if len(tq.q) == 0 {
			continue
		}
		if pick == nil {
			pick = tq
			continue
		}
		a, c := tq.served*uint64(pick.weight), pick.served*uint64(tq.weight)
		if a < c || (a == c && tq.name < pick.name) {
			pick = tq
		}
	}
	if pick != nil {
		t := pick.q[0]
		pick.q = pick.q[1:]
		pick.served++
		return b.grantLocked(t, w, false)
	}
	return b.hedgeOne(w)
}

// hedgeOne grants a duplicate lease for the longest-outstanding
// straggler, if hedging is on and one qualifies: its oldest active
// lease is older than HedgeAfter, it has no hedge out already, and this
// worker doesn't hold it. Candidates are scanned in task submission
// order so the choice is deterministic.
func (b *Broker) hedgeOne(w *workerRec) *lease {
	if b.cfg.HedgeAfter <= 0 {
		return nil
	}
	now := b.now()
	var cand *task
	var candStart time.Time
	for _, j := range b.jobs {
		if j.canceled {
			continue
		}
		for _, t := range j.tasks {
			if t.state != taskLeased || len(t.leases) != 1 {
				continue
			}
			var start time.Time
			mine := false
			for _, l := range t.leases {
				start = l.start
				mine = l.worker == w.id
			}
			if mine || now.Sub(start) < b.cfg.HedgeAfter {
				continue
			}
			if cand == nil || start.Before(candStart) ||
				(start.Equal(candStart) && t.seq < cand.seq) {
				cand, candStart = t, start
			}
		}
	}
	if cand == nil {
		return nil
	}
	b.stats.Hedges++
	return b.grantLocked(cand, w, true)
}

// grantLocked creates and indexes a lease of t to w.
func (b *Broker) grantLocked(t *task, w *workerRec, hedged bool) *lease {
	now := b.now()
	l := &lease{
		id:         b.nextID("l"),
		t:          t,
		worker:     w.id,
		start:      now,
		deadline:   now.Add(b.cfg.LeaseTTL),
		hedged:     hedged,
		active:     true,
		progressAt: now,
	}
	t.state = taskLeased
	t.leases[l.id] = l
	w.leases[l.id] = l
	b.leases[l.id] = l
	// Unsynced: losing a grant record only costs a redundant,
	// byte-identical re-execution after replay.
	b.journalAppendLocked(journalEntry{
		Kind: entryGrant, Job: t.job.id, Task: t.idx, Worker: w.name,
	}, false)
	return l
}

// Renew extends the still-active leases named in req; expired or
// superseded leases are simply absent from the reply.
func (b *Broker) Renew(req api.LeaseRenew) (api.RenewReply, error) {
	if err := api.CheckProto(req.Proto); err != nil {
		return api.RenewReply{}, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.roleGateLocked(); err != nil {
		return api.RenewReply{}, err
	}
	b.sweep()
	w := b.workers[req.WorkerID]
	if w == nil {
		return api.RenewReply{}, api.WorkerNotFound(req.WorkerID)
	}
	w.lastSeen = b.now()
	reply := api.RenewReply{Proto: api.Version}
	for _, id := range req.LeaseIDs {
		l := w.leases[id]
		if l == nil || !l.active {
			continue
		}
		l.deadline = b.now().Add(b.cfg.LeaseTTL)
		if p := req.Progress[id]; p != nil {
			cp := *p
			l.progress = &cp
			l.progressAt = b.now()
		}
		if reply.Deadlines == nil {
			reply.Deadlines = make(map[string]int64)
		}
		reply.Deadlines[id] = l.deadline.UnixNano()
	}
	return reply, nil
}

// Fleet snapshots the live per-worker view: every registered worker
// with its active leases and their latest progress heartbeats. Workers
// sort by name (id as tie-breaker), leases oldest first, so the
// rendering is stable across polls.
func (b *Broker) Fleet() api.FleetStatus {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.sweep()
	now := b.now()
	fs := api.FleetStatus{Proto: api.Version, Workers: []api.FleetWorker{}}
	for _, w := range b.workers {
		fw := api.FleetWorker{
			ID: w.id, Name: w.name, Capacity: w.capacity,
			Draining:      w.draining,
			LastSeenAgeNS: now.Sub(w.lastSeen).Nanoseconds(),
		}
		for _, l := range w.leases {
			if !l.active {
				continue
			}
			fl := api.FleetLease{
				ID: l.id, Job: l.t.spec.Job, Shard: l.t.spec.Shard,
				Tenant:        l.t.job.tenant,
				AgeNS:         now.Sub(l.start).Nanoseconds(),
				ProgressAgeNS: now.Sub(l.progressAt).Nanoseconds(),
			}
			if l.progress != nil {
				cp := *l.progress
				fl.Progress = &cp
			}
			fw.Leases = append(fw.Leases, fl)
		}
		sort.Slice(fw.Leases, func(i, k int) bool {
			if fw.Leases[i].AgeNS != fw.Leases[k].AgeNS {
				return fw.Leases[i].AgeNS > fw.Leases[k].AgeNS
			}
			return fw.Leases[i].ID < fw.Leases[k].ID
		})
		fs.Workers = append(fs.Workers, fw)
	}
	sort.Slice(fs.Workers, func(i, k int) bool {
		if fs.Workers[i].Name != fs.Workers[k].Name {
			return fs.Workers[i].Name < fs.Workers[k].Name
		}
		return fs.Workers[i].ID < fs.Workers[k].ID
	})
	return fs
}

// Done records a lease's result. First result wins: if the task already
// finished (a hedge or an expired-lease re-dispatch got there first),
// the reply flags a duplicate and whether its bytes matched the winner.
// Results for canceled jobs are discarded.
func (b *Broker) Done(req api.TaskDone) (api.DoneReply, error) {
	if err := api.CheckProto(req.Proto); err != nil {
		return api.DoneReply{}, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if err := b.roleGateLocked(); err != nil {
		return api.DoneReply{}, err
	}
	b.sweep()
	if w := b.workers[req.WorkerID]; w != nil {
		w.lastSeen = b.now()
	}
	l := b.leases[req.LeaseID]
	if l == nil {
		return api.DoneReply{}, api.LeaseNotFound(req.LeaseID)
	}
	t := l.t
	if err := req.Result.Validate(t.spec); err != nil {
		return api.DoneReply{}, err
	}
	b.dropLease(l)
	switch t.state {
	case taskDone:
		b.stats.Duplicates++
		hit := sameResult(*t.result, req.Result)
		if hit {
			b.stats.DupCacheHits++
		}
		return api.DoneReply{Proto: api.Version, Duplicate: true, CacheHit: hit}, nil
	case taskCanceled:
		return api.DoneReply{Proto: api.Version}, nil
	}
	// A pending task here had its lease expire and requeue, but the
	// original holder finished anyway — first result wins, so it leaves
	// the queue as it is recorded.
	b.completeTaskLocked(t, req.Result)
	// Synced before the reply: once the worker hears Accepted it
	// will never re-run this task, so the result must outlive a
	// crash.
	b.journalAppendLocked(journalEntry{
		Kind: entryDone, Job: t.job.id, Task: t.idx, Result: t.result,
	}, true)
	return api.DoneReply{Proto: api.Version, Accepted: true}, nil
}

// sameResult reports byte-identity of the fields that constitute a
// task's payload (the determinism contract: Text, Data and Err; never
// timings or worker stamps).
func sameResult(a, c api.TaskResult) bool {
	return a.Text == c.Text && a.Err == c.Err && bytes.Equal(a.Data, c.Data)
}

// dropLease deactivates l and unlinks it from its worker and task (it
// stays in b.leases for duplicate detection until its job is swept).
func (b *Broker) dropLease(l *lease) {
	if !l.active {
		return
	}
	l.active = false
	delete(l.t.leases, l.id)
	if w := b.workers[l.worker]; w != nil {
		delete(w.leases, l.id)
	}
}

// releaseLeases deactivates every remaining active lease of t (its
// result just landed, or its job was canceled). The holders keep
// computing — their TaskDone will be answered as duplicate/discarded.
func (b *Broker) releaseLeases(t *task) {
	for _, l := range t.leases {
		b.dropLease(l)
	}
}

// sweep (callers hold mu) applies the clock: expired leases requeue
// their tasks, silent workers are dropped, finished jobs past retention
// are forgotten. Lazy sweeping on every entry point keeps the broker
// timer-free and fully deterministic under an injected clock.
func (b *Broker) sweep() {
	now := b.now()
	// Silent workers first: dropping one releases all its leases.
	for id, w := range b.workers {
		if now.Sub(w.lastSeen) > workerExpiryTTLs*b.cfg.LeaseTTL {
			for _, l := range w.leases {
				b.dropLease(l)
				b.requeue(l.t)
			}
			delete(b.workers, id)
		}
	}
	for _, l := range b.leases {
		if l.active && now.After(l.deadline) {
			b.dropLease(l)
			b.requeue(l.t)
		}
	}
	for id, j := range b.jobs {
		if j.complete() && now.Sub(j.finishedAt) > b.cfg.JobRetention {
			for lid, l := range b.leases {
				if l.t.job == j {
					delete(b.leases, lid)
				}
			}
			delete(b.jobs, id)
		}
	}
}

// requeue returns a leased task to its tenant queue after its last
// active lease vanished (expiry or worker death). Tasks still covered
// by another lease (a hedge) stay leased.
func (b *Broker) requeue(t *task) {
	if t.state != taskLeased || len(t.leases) > 0 {
		return
	}
	t.state = taskPending
	t.enqueued = b.now()
	b.tenantFor(t.job.tenant).insert(t)
	b.stats.Requeues++
	b.wakeAll()
}

// leasedLocked counts tasks out on at least one active lease.
func (b *Broker) leasedLocked() int {
	n := 0
	seen := make(map[*task]bool)
	for _, l := range b.leases {
		if l.active && !seen[l.t] {
			seen[l.t] = true
			n++
		}
	}
	return n
}

// Metrics snapshots the broker as the /v2/metrics payload: the queue
// census and lifetime counters plus per-tenant depth/age gauges and, on
// a journaled broker, the journal's counters.
func (b *Broker) Metrics() api.BrokerMetrics {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.sweep()
	now := b.now()
	m := b.stats
	m.Proto = api.Version
	m.Leased = b.leasedLocked()
	m.Workers = len(b.workers)
	m.Jobs = len(b.jobs)
	m.Goroutines = runtime.NumGoroutine()
	m.Role = b.role.String()
	m.Epoch = b.epoch
	if b.role == RoleFollower || b.repl.batches > 0 {
		rm := api.ReplicationMetrics{
			Segment: b.repl.cursorSeg, Offset: b.repl.cursorOff,
			PrimarySegment: b.repl.primarySeg, PrimaryOffset: b.repl.primaryOff,
			Applied: b.repl.applied, Duplicates: b.repl.duplicates,
			Skipped: b.repl.skipped, Batches: b.repl.batches,
			Restarts: b.repl.restarts,
		}
		if b.repl.primarySeg == b.repl.cursorSeg {
			rm.LagBytes = b.repl.primaryOff - b.repl.cursorOff
		} else {
			rm.LagBytes = -1 // whole segments behind; byte distance unknowable
		}
		if behind := b.repl.primarySeg - b.repl.cursorSeg; behind > 0 {
			rm.SegmentsBehind = behind
		}
		if !b.repl.lastContact.IsZero() {
			rm.LastContactAgeNS = now.Sub(b.repl.lastContact).Nanoseconds()
		}
		m.Replication = &rm
	}
	for _, l := range b.leases {
		if !l.active {
			continue
		}
		worker := l.worker
		if w := b.workers[l.worker]; w != nil {
			worker = w.name
		}
		m.Leases = append(m.Leases, api.LeaseMetrics{
			Lease: l.id, Worker: worker,
			Task:          fmt.Sprintf("%s[%d]", l.t.spec.Job, l.t.spec.Shard),
			AgeNS:         now.Sub(l.start).Nanoseconds(),
			ProgressAgeNS: now.Sub(l.progressAt).Nanoseconds(),
		})
	}
	sort.Slice(m.Leases, func(i, k int) bool {
		if m.Leases[i].AgeNS != m.Leases[k].AgeNS {
			return m.Leases[i].AgeNS > m.Leases[k].AgeNS
		}
		return m.Leases[i].Lease < m.Leases[k].Lease
	})
	names := make([]string, 0, len(b.tenants))
	for name := range b.tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tq := b.tenants[name]
		tm := api.TenantMetrics{
			Tenant:    name,
			Weight:    tq.weight,
			Served:    int(tq.served),
			Pending:   len(tq.q),
			MaxQueued: tq.limit,
		}
		// Queue order is priority-then-FIFO, not age, so scan for the
		// oldest resident.
		for _, t := range tq.q {
			if d := now.Sub(t.enqueued).Nanoseconds(); d > tm.OldestAgeNS {
				tm.OldestAgeNS = d
			}
		}
		m.Pending += len(tq.q)
		m.Tenants = append(m.Tenants, tm)
	}
	if b.cfg.Journal != nil {
		jm := b.cfg.Journal.metrics()
		m.Journal = &jm
	}
	return m
}

// replayJournal rebuilds broker state from the journal, then compacts
// it. Runs inside New, before the broker is shared, so no locking.
//
// Each entry folds through applyEntryLocked — the same idempotent
// incremental application the replication follower uses live, so a
// broker restart and a journal stream land on identical state. Jobs
// are restored in journal (submission) order with fresh task sequence
// numbers, preserving the original FIFO; recorded results are
// reattached verbatim (byte-identical replies across the restart);
// tasks that were pending or leased-but-unfinished at crash time
// re-enter their tenant queue — a lease without a completion record is
// exactly the work a crashed broker must hand out again. Admission
// limits do not gate replay: everything in the journal was already
// admitted.
func (b *Broker) replayJournal(jl *Journal) {
	for _, e := range jl.load() {
		res := b.applyEntryLocked(e)
		// Skip accounting mirrors the wire contract: duplicate submits
		// (compaction leftovers) and undecodable/unresolvable submit or
		// done entries count, stale grants/cancels and re-delivered
		// results are silently idempotent.
		switch e.Kind {
		case entrySubmit:
			if res != applyApplied {
				jl.noteSkip("unusable submit entry for job %q", e.Job)
			}
		case entryDone:
			if res == applySkipped {
				jl.noteSkip("unusable done entry for job %q task %d", e.Job, e.Task)
			}
		case entryGrant, entryCancel, entryEpoch, entryCursor:
		default:
			jl.noteSkip("entry of unknown kind %q", e.Kind)
		}
	}
	jobs, tasks, requeued := 0, 0, 0
	for _, j := range b.jobs {
		jobs++
		tasks += len(j.tasks)
		for _, t := range j.tasks {
			if t.state == taskPending && t.granted {
				requeued++
			}
		}
	}
	jl.noteReplay(jobs, tasks, requeued)
	// Fold everything replayed into one snapshot segment, synchronously:
	// the next crash replays snapshot + whatever the fresh active
	// segment accumulates, not the whole history.
	if claimed := jl.claimSealed(); claimed != nil {
		jl.compactSegments(claimed, b.liveEntriesLocked())
	}
}

// applyResult classifies one journal entry's application.
type applyResult uint8

const (
	// applyApplied: the entry changed state (and is worth re-journaling
	// on a follower).
	applyApplied applyResult = iota
	// applyDuplicate: the state already reflects the entry — a
	// compaction leftover, a resume overlap, or a grant/result that a
	// recorded winner superseded. Idempotently skipped.
	applyDuplicate
	// applySkipped: the entry is unusable (unknown kind, bad indices,
	// missing fields, or referencing a job never seen).
	applySkipped
)

// applyEntryLocked folds one journal entry into live state. It is the
// single application path shared by startup replay and live journal
// streaming, and it is idempotent: re-applying any prefix (or the whole
// journal) after a resume leaves the state unchanged. Callers hold b.mu
// (or run before the broker is shared).
func (b *Broker) applyEntryLocked(e journalEntry) applyResult {
	switch e.Kind {
	case entrySubmit:
		if e.Job == "" || len(e.Tasks) == 0 {
			return applySkipped
		}
		if b.jobs[e.Job] != nil {
			return applyDuplicate
		}
		b.addJobLocked(e.Job, e.Tenant, e.Priority, e.Tasks)
		return applyApplied
	case entryGrant:
		j := b.jobs[e.Job]
		if j == nil || e.Task < 0 || e.Task >= len(j.tasks) {
			return applySkipped
		}
		t := j.tasks[e.Task]
		if t.state != taskPending {
			return applyDuplicate
		}
		t.granted = true
		return applyApplied
	case entryDone:
		j := b.jobs[e.Job]
		if j == nil || e.Result == nil || e.Task < 0 || e.Task >= len(j.tasks) {
			return applySkipped
		}
		t := j.tasks[e.Task]
		if t.state == taskDone || t.state == taskCanceled {
			return applyDuplicate
		}
		b.completeTaskLocked(t, *e.Result)
		return applyApplied
	case entryCancel:
		j := b.jobs[e.Job]
		if j == nil {
			return applySkipped
		}
		if j.complete() {
			return applyDuplicate
		}
		b.cancelJobLocked(j)
		return applyApplied
	case entryEpoch:
		if e.Epoch <= 0 {
			return applySkipped
		}
		res := applyDuplicate
		if e.Epoch > b.epoch {
			b.epoch = e.Epoch
			res = applyApplied
		}
		// A fenced stamp re-fences this broker on replay — but never
		// demotes a configured follower, which is already read-only and
		// must stay promotable.
		if e.Fenced && b.role == RolePrimary {
			b.role = RoleFenced
			if e.Primary != "" {
				b.primaryAddr = e.Primary
			}
			res = applyApplied
		}
		return res
	case entryCursor:
		// Own bookkeeping from a previous follower incarnation: restore
		// the replication resume point.
		b.repl.cursorGen, b.repl.cursorSeg, b.repl.cursorOff = e.Gen, e.Seg, e.Off
		return applyApplied
	default:
		return applySkipped
	}
}

// liveEntriesLocked serialises the broker's retained state as a
// minimal journal — one submit per job, its recorded results, a cancel
// marker where needed — in numeric job-id order, so compaction is
// deterministic and sheds grants and swept jobs. An epoch stamp (when
// the broker has moved past the implicit epoch 1, or is fenced) leads,
// and a follower's replication cursor trails, so neither survives only
// in segments a fold just deleted.
func (b *Broker) liveEntriesLocked() []journalEntry {
	ids := make([]string, 0, len(b.jobs))
	for id := range b.jobs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, k int) bool {
		a, aok := numericID(ids[i], "j")
		c, cok := numericID(ids[k], "j")
		if aok && cok && a != c {
			return a < c
		}
		return ids[i] < ids[k]
	})
	var out []journalEntry
	if b.epoch > 1 || b.role == RoleFenced {
		out = append(out, journalEntry{
			Kind: entryEpoch, Epoch: b.epoch,
			Fenced: b.role == RoleFenced, Primary: b.fencedPrimaryLocked(),
		})
	}
	for _, id := range ids {
		j := b.jobs[id]
		specs := make([]api.TaskSpec, len(j.tasks))
		for i, t := range j.tasks {
			specs[i] = t.spec
		}
		out = append(out, journalEntry{
			Kind: entrySubmit, Job: id,
			Tenant: j.tenant, Priority: j.priority, Tasks: specs,
		})
		for _, t := range j.tasks {
			if t.state == taskDone && t.result != nil {
				out = append(out, journalEntry{Kind: entryDone, Job: id, Task: t.idx, Result: t.result})
			}
		}
		if j.canceled {
			out = append(out, journalEntry{Kind: entryCancel, Job: id})
		}
	}
	if b.role == RoleFollower && (b.repl.cursorSeg > 0 || b.repl.cursorGen > 0) {
		out = append(out, journalEntry{
			Kind: entryCursor,
			Gen:  b.repl.cursorGen, Seg: b.repl.cursorSeg, Off: b.repl.cursorOff,
		})
	}
	return out
}

// fencedPrimaryLocked is the redirect hint worth persisting: only a
// fenced broker's primaryAddr is journal state (a follower's is config).
func (b *Broker) fencedPrimaryLocked() string {
	if b.role == RoleFenced {
		return b.primaryAddr
	}
	return ""
}

// numericID parses a "<prefix><n>" broker id; replay uses it to keep
// the id sequence ahead of journaled ids and to order compacted jobs.
func numericID(id, prefix string) (uint64, bool) {
	rest, ok := strings.CutPrefix(id, prefix)
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}
