package remote

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/backoff"
	"repro/internal/queue"
)

// Follower drives a standby broker: it long-polls the primary's
// /v2/replicate endpoint, replays each batch into the local broker via
// ApplyReplicated, and promotes the broker to primary either on
// operator request (Promote, wired to /v2/promote by the daemon) or
// after the primary has been silent longer than TakeoverAfter. After
// promoting it tries to fence the ex-primary so a zombie that comes
// back cannot accept mutations against a stale epoch.
type Follower struct {
	b         *queue.Broker
	primary   string
	client    *http.Client
	takeover  time.Duration
	name      string
	advertise string
	token     string
	logf      func(format string, args ...any)

	// interrupt cancels the in-flight long poll when Promote is called
	// from outside the Run loop, so takeover is immediate rather than
	// waiting out a 2s poll.
	interruptOnce sync.Once
	interruptCh   chan struct{}
}

// FollowerOptions tunes a Follower; the zero value is usable.
type FollowerOptions struct {
	// Client is the HTTP client for replication and fencing calls;
	// nil means a default client.
	Client *http.Client
	// TakeoverAfter is how long the primary may be unreachable before
	// the follower promotes itself; 0 disables automatic takeover
	// (promotion is operator-only).
	TakeoverAfter time.Duration
	// Name identifies this follower in the primary's logs and seeds
	// its retry jitter.
	Name string
	// Advertise is this broker's client-reachable address, stamped
	// into the fencing record so a fenced ex-primary's not_leader
	// errors can point clients at the new primary.
	Advertise string
	// Token is the shared HA secret sent with fence requests; must
	// match the peer's -ha-token (empty when the peers run without
	// one).
	Token string
	// Logf receives progress lines; nil means log.Printf.
	Logf func(format string, args ...any)
}

// replicateWait is the long-poll window per replication request.
const replicateWait = 2 * time.Second

// replicateMaxBytes bounds one replication batch.
const replicateMaxBytes int64 = 1 << 20

// fenceWindow is how long a freshly promoted broker keeps trying to
// fence the ex-primary. The window is generous because the most useful
// fence lands on a zombie that restarts *after* the takeover — a dead
// host refuses connections instantly, a rebooting one needs time.
const fenceWindow = 2 * time.Minute

// NewFollower builds a follower replaying primaryAddr ("host:port" or
// a full URL) into b.
func NewFollower(b *queue.Broker, primaryAddr string, opts FollowerOptions) *Follower {
	f := &Follower{
		b:           b,
		primary:     NormalizeAddr(primaryAddr),
		client:      orDefaultClient(opts.Client),
		takeover:    opts.TakeoverAfter,
		name:        opts.Name,
		advertise:   opts.Advertise,
		token:       opts.Token,
		logf:        opts.Logf,
		interruptCh: make(chan struct{}),
	}
	if f.logf == nil {
		f.logf = log.Printf
	}
	return f
}

// Promote flips the local broker to primary and interrupts the follow
// loop so it stops polling and starts fencing. Safe to call from any
// goroutine (HTTP handler, signal handler).
func (f *Follower) Promote(reason string) (api.PromoteReply, error) {
	epoch, requeued, err := f.b.Promote()
	if err != nil {
		return api.PromoteReply{}, err
	}
	f.logf("dramlockerd %q promoted to primary at epoch %d (%s); %d leases requeued", f.name, epoch, reason, requeued)
	f.interruptOnce.Do(func() { close(f.interruptCh) })
	return api.PromoteReply{Proto: api.Version, Epoch: epoch, Requeued: requeued, Role: "primary"}, nil
}

// Run follows the primary until the broker stops being a follower
// (promotion) or ctx cancels. After a promotion it fences the
// ex-primary before returning.
func (f *Follower) Run(ctx context.Context) error {
	// pollCtx dies when Promote interrupts the loop, so an in-flight
	// 2s long poll does not delay the takeover.
	pollCtx, stopPolls := context.WithCancel(ctx)
	defer stopPolls()
	go func() {
		select {
		case <-f.interruptCh:
			stopPolls()
		case <-pollCtx.Done():
		}
	}()

	bo := backoff.Policy{Base: 100 * time.Millisecond, Max: 2 * time.Second, Jitter: 0.5}.
		New(backoff.SeedString(f.name + "/follow"))
	lastContact := time.Now()
	for f.b.Role() == queue.RoleFollower {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		gen, seg, off := f.b.ReplCursor()
		req := api.ReplicateRequest{
			Proto:      api.Version,
			Generation: gen, Segment: seg, Offset: off,
			MaxBytes: replicateMaxBytes,
			WaitNS:   int64(replicateWait),
			Epoch:    f.b.Epoch(),
			Follower: f.name,
		}
		var rep api.ReplicateReply
		err := PostJSON(pollCtx, f.client, f.primary+ReplicatePath, req, &rep)
		if err == nil {
			lastContact = time.Now()
			bo.Reset()
			ck := queue.StreamChunk{
				Data: rep.Data,
				Gen:  rep.Generation, Seg: rep.Segment, Off: rep.Offset,
				Restart:    rep.Restart,
				PrimarySeg: rep.PrimarySegment, PrimaryOff: rep.PrimaryOffset,
			}
			if aerr := f.b.ApplyReplicated(ck); aerr != nil {
				// Role flipped mid-batch (promotion raced the poll);
				// the loop condition handles it.
				f.logf("dramlockerd %q replication apply: %v", f.name, aerr)
			}
			continue
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if f.b.Role() != queue.RoleFollower {
			break // promoted while the poll was in flight
		}
		if silent := time.Since(lastContact); f.takeover > 0 && silent >= f.takeover {
			if _, perr := f.Promote("primary silent for " + silent.Round(time.Millisecond).String()); perr != nil {
				return perr
			}
			break
		}
		if serr := bo.Sleep(pollCtx); serr != nil && ctx.Err() != nil {
			return ctx.Err()
		}
	}
	if f.b.Role() == queue.RolePrimary {
		f.fencePrimary(ctx)
		return nil
	}
	// The loop only exits on promotion; any other role here means
	// replication stopped with the operator still believing they have a
	// hot standby. Fail loudly instead of returning a silent nil.
	err := fmt.Errorf("follow loop stopped with broker in role %s (not promoted); replication is no longer running", f.b.Role())
	f.logf("dramlockerd %q: %v", f.name, err)
	return err
}

// fencePrimary tells the ex-primary it lost the lease. Best-effort
// with retries: the usual case is a dead host (connection refused
// until the window expires), but a zombie that restarts inside the
// window gets fenced the moment it starts listening. A typed
// non-retryable refusal means the ex-primary outranks us — stop.
func (f *Follower) fencePrimary(ctx context.Context) {
	req := api.FenceRequest{Proto: api.Version, Epoch: f.b.Epoch(), Primary: f.advertise, Token: f.token}
	bo := backoff.Policy{Base: 250 * time.Millisecond, Max: 5 * time.Second, Jitter: 0.5}.
		New(backoff.SeedString(f.name + "/fence"))
	deadline := time.Now().Add(fenceWindow)
	for time.Now().Before(deadline) {
		var rep api.FenceReply
		err := PostJSON(ctx, f.client, f.primary+FencePath, req, &rep)
		if err == nil {
			f.logf("dramlockerd %q fenced ex-primary %s at epoch %d", f.name, f.primary, rep.Epoch)
			return
		}
		if ae, ok := api.AsError(err); ok && !ae.Retryable {
			f.logf("dramlockerd %q fence of %s refused: %v", f.name, f.primary, ae)
			return
		}
		if bo.Sleep(ctx) != nil {
			return
		}
	}
	f.logf("dramlockerd %q gave up fencing %s after %v (host presumed dead)", f.name, f.primary, fenceWindow)
}
