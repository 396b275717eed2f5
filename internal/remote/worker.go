package remote

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/backoff"
	"repro/internal/engine"
)

// pollWait is the long-poll window a PullWorker asks the broker to hold
// an empty poll open for. Short enough that liveness (lastSeen) stays
// fresh, long enough that an idle worker costs ~one request per window.
const pollWait = 10 * time.Second

// shutdownGrace is the shutdown budget for the final courtesies — the
// drain announcement and the last TaskDone reports.
const shutdownGrace = 10 * time.Second

// pollRetry is the backoff shape for a worker that cannot reach (or is
// unknown to) its broker: start quick — a broker restart is over in
// well under a second — and ramp to a 15s ceiling so a long outage
// costs ~one request per window, like an idle long-poll. Jitter
// decorrelates the fleet: a hundred workers orphaned by the same broker
// crash must not retry in lockstep.
var pollRetry = backoff.Policy{
	Base:   200 * time.Millisecond,
	Max:    15 * time.Second,
	Jitter: 0.5,
}

// WorkerOptions configures a PullWorker. Capacity is required
// (positive); everything else has a default.
type WorkerOptions struct {
	// Name is the worker's advertised identity; it also seeds the
	// worker's jitter stream (same name, same delay sequence).
	Name string
	// Capacity is the maximum concurrent tasks; <= 0 panics — resolve
	// the default (NumCPU) at the call site.
	Capacity int
	// Client is the HTTP client; nil uses a default with no overall
	// timeout (long polls and long tasks are the normal case).
	Client *http.Client
	// Executor overrides the execution stack; nil uses a named local
	// executor over the registry. The daemon sets it to stack a
	// result-plane cache (engine.CachingExecutor) under the lease loop.
	Executor engine.Executor
}

// PullWorker attaches a registry to a broker and works its queue:
// register (hello), pull leases, execute against the local registry,
// renew long-running leases at TTL/3, and report results. Membership is
// soft state — if the broker forgets the worker (restart, expiry), the
// next not_found answer triggers a fresh hello and work continues.
//
// Cache-key safety is enforced here, not at the broker: the executor
// refuses tasks whose cache key this registry cannot reproduce, and the
// refusal is retryable, so the worker abandons the lease (no TaskDone)
// and the broker requeues the task for a compatible worker.
type PullWorker struct {
	name     string
	exec     engine.Executor
	capacity int
	client   *http.Client
	seed     int64    // jitter seed, derived from name
	targets  *targets // broker failover list

	mu       sync.Mutex
	workerID string
	ttl      time.Duration
	progress map[string]*api.TaskProgress // latest heartbeat per active lease
}

// NewPullWorker builds a worker for the broker at addr ("host:port",
// full URL, or a comma-separated failover list), executing over reg
// under opts; opts.Capacity <= 0 or an empty address panics.
func NewPullWorker(addr string, reg *engine.Registry, opts WorkerOptions) *PullWorker {
	if opts.Capacity <= 0 {
		panic("remote: pull worker capacity must be positive")
	}
	tg := newTargets(addr)
	if tg == nil {
		panic("remote: pull worker needs a broker address")
	}
	exec := opts.Executor
	if exec == nil {
		exec = engine.NewNamedLocalExecutor(reg, opts.Name)
	}
	return &PullWorker{
		targets:  tg,
		name:     opts.Name,
		exec:     exec,
		capacity: opts.Capacity,
		client:   orDefaultClient(opts.Client),
		seed:     backoff.SeedString(opts.Name),
		progress: make(map[string]*api.TaskProgress),
	}
}

// Run registers with the broker and works leases until ctx cancels,
// then drains: the broker is told to stop offering leases, in-flight
// tasks finish (or are cancelled with ctx) and report, and Run returns
// ctx's error. Every broker in the failover list down at start is an
// error; a broker that dies later is retried forever under a jittered
// capped backoff, rotating through the list — pull workers are the
// resilient side of the topology. Broker membership is soft state, so
// every failover is followed by a fresh hello: the new primary has
// never seen this worker, and the in-flight leases it inherited resolve
// as expiry followed by requeue.
func (p *PullWorker) Run(ctx context.Context) error {
	if err := p.helloAnywhere(ctx); err != nil {
		return fmt.Errorf("remote: broker %s: %w", p.targets.now(), err)
	}
	retry := pollRetry.New(p.seed)
	slots := make(chan struct{}, p.capacity)
	misses := 0
	var wg sync.WaitGroup
	for ctx.Err() == nil {
		// Hold a slot before polling so we never lease work we cannot
		// start; parallelism comes from executing in goroutines while
		// this loop returns to poll for the next lease.
		select {
		case slots <- struct{}{}:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			break
		}
		base := p.targets.now()
		lease, err := p.pollOne(ctx)
		if err != nil {
			<-slots
			if ctx.Err() != nil {
				break
			}
			if ae, typed := api.AsError(err); typed {
				misses = 0
				switch ae.Code {
				case api.CodeNotFound:
					// Broker forgot us (restart or expiry): re-register.
					if herr := p.hello(ctx); herr == nil {
						retry.Reset()
						continue
					}
				case api.CodeNotLeader:
					// A standby (or fenced ex-primary) answered: adopt the
					// primary it names and register there.
					p.targets.failover(base, ae.Primary)
					if herr := p.hello(ctx); herr == nil {
						retry.Reset()
						continue
					}
				}
			} else if p.targets.missed(&misses, base) {
				if herr := p.hello(ctx); herr == nil {
					retry.Reset()
					continue
				}
			}
			retry.Sleep(ctx)
			continue
		}
		misses = 0
		retry.Reset()
		if lease == nil {
			<-slots
			continue
		}
		wg.Add(1)
		go func(l api.Lease) {
			defer func() { <-slots; wg.Done() }()
			p.runLease(ctx, l)
		}(*lease)
	}
	// Best-effort drain on a fresh context (ctx is already cancelled);
	// in-flight runLease calls report on their own grace context.
	grace, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	p.postBroker(grace, DrainPath, api.DrainRequest{Proto: api.Version, WorkerID: p.id()}, nil)
	wg.Wait()
	return ctx.Err()
}

func (p *PullWorker) id() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.workerID
}

// helloAnywhere registers with the first broker in the list that
// accepts, following not_leader hints and rotating past dead entries.
// Startup stays strict overall: if no target accepts a registration,
// the last error comes back.
func (p *PullWorker) helloAnywhere(ctx context.Context) error {
	var lastErr error
	for i := 0; i <= p.targets.size(); i++ {
		base := p.targets.now()
		err := p.hello(ctx)
		if err == nil {
			return nil
		}
		lastErr = err
		if ae, ok := api.AsError(err); ok && ae.Code == api.CodeNotLeader {
			p.targets.failover(base, ae.Primary)
			continue
		}
		p.targets.failover(base, "")
	}
	return lastErr
}

// hello (re-)registers with the current broker, adopting its lease TTL.
func (p *PullWorker) hello(ctx context.Context) error {
	var rep api.HelloReply
	err := PostJSON(ctx, p.client, p.targets.now()+HelloPath,
		api.WorkerHello{Proto: api.Version, Name: p.name, Capacity: p.capacity}, &rep)
	if err != nil {
		return err
	}
	if err := api.CheckProto(rep.Proto); err != nil {
		return err
	}
	p.mu.Lock()
	p.workerID = rep.WorkerID
	p.ttl = time.Duration(rep.LeaseTTLNS)
	p.mu.Unlock()
	return nil
}

// pollOne long-polls the broker for a single lease.
func (p *PullWorker) pollOne(ctx context.Context) (*api.Lease, error) {
	var rep api.PollReply
	err := p.postBroker(ctx, PollPath, api.PollRequest{
		Proto:    api.Version,
		WorkerID: p.id(),
		Max:      1,
		WaitNS:   int64(pollWait),
	}, &rep)
	if err != nil {
		return nil, err
	}
	if len(rep.Leases) == 0 {
		return nil, nil
	}
	return &rep.Leases[0], nil
}

// runLease executes one lease and reports its result. While the task
// runs, a renewal loop extends the lease at TTL/3 so only worker death
// — never a slow task — trips the broker's expiry requeue.
func (p *PullWorker) runLease(ctx context.Context, l api.Lease) {
	renewDone := make(chan struct{})
	defer close(renewDone)
	defer p.clearProgress(l.ID)
	go p.renewLoop(ctx, l.ID, renewDone)

	var res api.TaskResult
	var err error
	if se, ok := p.exec.(engine.StreamExecutor); ok {
		// Keep the latest heartbeat where the renewal loop can piggyback
		// it onto the renews it already sends — progress costs no
		// additional requests.
		res, err = se.ExecuteStream(ctx, l.Task, func(pr api.TaskProgress) {
			p.setProgress(l.ID, pr)
		})
	} else {
		res, err = p.exec.Execute(ctx, l.Task)
	}
	if err != nil {
		if api.Retryable(err) {
			// This worker cannot serve the task (registry out of sync,
			// cancelled mid-run) but another might: abandon the lease
			// without a TaskDone and let the broker requeue it.
			return
		}
		// Non-retryable: every worker would refuse identically, so
		// record the refusal as the task's deterministic outcome instead
		// of requeueing it forever.
		res = api.TaskResult{Proto: api.Version, Job: l.Task.Job, Shard: l.Task.Shard,
			Key: l.Task.Key, Worker: p.name, Err: err.Error()}
	}
	// Report on a grace context so a shutdown mid-report still lands the
	// finished work.
	rctx := ctx
	if ctx.Err() != nil {
		var cancel context.CancelFunc
		rctx, cancel = context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
	}
	p.postBroker(rctx, DonePath, api.TaskDone{
		Proto:    api.Version,
		WorkerID: p.id(),
		LeaseID:  l.ID,
		Result:   res,
	}, nil)
}

// renewLoop extends lease id at ~TTL/3 until done closes. The interval
// is jittered (Factor 1: constant amplitude, randomized phase), with
// the lease id mixed into the seed so concurrent leases on one worker
// draw decorrelated sequences — a fleet's renewals spread across the
// TTL window instead of arriving as one synchronized pulse, the
// renewal analog of the thundering herd.
func (p *PullWorker) renewLoop(ctx context.Context, id string, done <-chan struct{}) {
	p.mu.Lock()
	ttl := p.ttl
	p.mu.Unlock()
	if ttl <= 0 {
		return
	}
	beat := backoff.Policy{Base: ttl / 3, Factor: 1, Jitter: 0.3}.New(p.seed + backoff.SeedString(id))
	for {
		t := time.NewTimer(beat.Next())
		select {
		case <-done:
			t.Stop()
			return
		case <-ctx.Done():
			t.Stop()
			return
		case <-t.C:
			req := api.LeaseRenew{
				Proto:    api.Version,
				WorkerID: p.id(),
				LeaseIDs: []string{id},
			}
			if pr := p.getProgress(id); pr != nil {
				req.Progress = map[string]*api.TaskProgress{id: pr}
			}
			var rep api.RenewReply
			p.postBroker(ctx, RenewPath, req, &rep)
		}
	}
}

// setProgress stores the latest heartbeat for an active lease.
func (p *PullWorker) setProgress(id string, pr api.TaskProgress) {
	p.mu.Lock()
	p.progress[id] = &pr
	p.mu.Unlock()
}

func (p *PullWorker) getProgress(id string) *api.TaskProgress {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.progress[id]
}

func (p *PullWorker) clearProgress(id string) {
	p.mu.Lock()
	delete(p.progress, id)
	p.mu.Unlock()
}

// postBroker ships one broker message, resolving the path off the
// current base so renews and done-reports follow a failover.
func (p *PullWorker) postBroker(ctx context.Context, path string, req, out any) error {
	return PostJSON(ctx, p.client, p.targets.now()+path, req, out)
}
