package queue

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
)

// fakeClock is the injected broker clock; all expiry in these tests is
// driven by advancing it — no sleeps anywhere.
type fakeClock struct{ t time.Time }

func newClock() *fakeClock                   { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }
func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newBroker(t *testing.T, cfg Config, clk *fakeClock) *Broker {
	t.Helper()
	cfg.Now = clk.now
	return New(cfg)
}

func spec(job string, shard int) api.TaskSpec {
	return api.TaskSpec{Proto: api.Version, Job: job, Shard: shard, Seed: 7, Key: job + "@hash"}
}

// submitOne submits s as a one-job batch, the broker's one submission
// route, and returns the job's id or its own refusal.
func submitOne(b *Broker, s api.JobSubmit) (string, error) {
	rep, err := b.SubmitBatch(api.JobSubmitBatch{Proto: api.Version, Jobs: []api.JobSubmit{s}})
	if err != nil {
		return "", err
	}
	if item := rep.Jobs[0]; item.Err != nil {
		return "", item.Err
	}
	return rep.Jobs[0].ID, nil
}

func submit(t *testing.T, b *Broker, tenant string, prio int, specs ...api.TaskSpec) string {
	t.Helper()
	id, err := submitOne(b, api.JobSubmit{Proto: api.Version, Tenant: tenant, Priority: prio, Tasks: specs})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func hello(t *testing.T, b *Broker, name string) string {
	t.Helper()
	rep, err := b.Hello(api.WorkerHello{Proto: api.Version, Name: name, Capacity: 4})
	if err != nil {
		t.Fatal(err)
	}
	return rep.WorkerID
}

func poll(t *testing.T, b *Broker, worker string, max int) []api.Lease {
	t.Helper()
	rep, err := b.Poll(context.Background(), api.PollRequest{Proto: api.Version, WorkerID: worker, Max: max})
	if err != nil {
		t.Fatal(err)
	}
	return rep.Leases
}

func done(t *testing.T, b *Broker, worker string, l api.Lease, text string) api.DoneReply {
	t.Helper()
	rep, err := b.Done(api.TaskDone{
		Proto: api.Version, WorkerID: worker, LeaseID: l.ID,
		Result: resultFor(l.Task, text),
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// resultFor builds the deterministic result of a task: same task, same
// bytes, whoever computes it.
func resultFor(ts api.TaskSpec, text string) api.TaskResult {
	data, _ := json.Marshal(map[string]any{"job": ts.Job, "shard": ts.Shard, "seed": ts.Seed})
	return api.TaskResult{
		Proto: api.Version, Job: ts.Job, Shard: ts.Shard, Key: ts.Key,
		Text: text, Data: data, DurationNS: 1,
	}
}

func TestSubmitValidates(t *testing.T) {
	b := newBroker(t, Config{}, newClock())
	if _, err := submitOne(b, api.JobSubmit{Proto: "dlexec0", Tasks: []api.TaskSpec{spec("j", 0)}}); err == nil {
		t.Fatal("foreign proto must be rejected")
	}
	if _, err := submitOne(b, api.JobSubmit{Proto: api.Version}); err == nil {
		t.Fatal("empty task list must be rejected")
	}
	_, err := submitOne(b, api.JobSubmit{Proto: api.Version, Tasks: []api.TaskSpec{{Proto: api.Version}}})
	ae, ok := api.AsError(err)
	if !ok || ae.Code != api.CodeBadRequest || ae.Retryable {
		t.Fatalf("invalid task must fail typed and non-retryable: %v", err)
	}
}

func TestHelloRejectsForeignProtoAtRegistration(t *testing.T) {
	// The mixed-fleet upgrade gate: an incompatible worker is refused at
	// hello, before it can ever hold a lease.
	b := newBroker(t, Config{}, newClock())
	_, err := b.Hello(api.WorkerHello{Proto: "dlexec1", Name: "old"})
	ae, ok := api.AsError(err)
	if !ok || ae.Code != api.CodeProtoMismatch {
		t.Fatalf("want proto_mismatch at registration, got %v", err)
	}
}

// TestSingleJobLifecycle walks submit -> poll -> done -> status.
func TestSingleJobLifecycle(t *testing.T) {
	b := newBroker(t, Config{}, newClock())
	id := submit(t, b, "", 0, spec("tiny/mc", 0), spec("tiny/mc", 1))
	w := hello(t, b, "w1")

	st, err := b.Status(id)
	if err != nil || st.State != api.JobQueued || st.Total != 2 {
		t.Fatalf("fresh status: %+v (%v)", st, err)
	}

	leases := poll(t, b, w, 8)
	if len(leases) != 2 {
		t.Fatalf("leases = %d, want 2", len(leases))
	}
	if leases[0].Task.Shard != 0 || leases[1].Task.Shard != 1 {
		t.Fatalf("dispatch out of submission order: %+v", leases)
	}
	if st, _ = b.Status(id); st.State != api.JobRunning {
		t.Fatalf("leased status: %+v", st)
	}

	for _, l := range leases {
		if rep := done(t, b, w, l, "ok"); !rep.Accepted || rep.Duplicate {
			t.Fatalf("done reply %+v", rep)
		}
	}
	st, _ = b.Status(id)
	if st.State != api.JobDone || st.Done != 2 || st.Failed != 0 || len(st.Results) != 2 {
		t.Fatalf("final status: %+v", st)
	}
	if st.Results[1].Shard != 1 {
		t.Fatal("results must be indexed like the submitted tasks")
	}
}

// TestWeightedTenantFairness is the contention test: one tenant floods
// the queue before two others submit, and dispatch still gives every
// tenant with pending work an equal share — the tenant served the
// fewest tasks goes next, ties by name — so the flood cannot starve
// the late tenants. The schedule is deterministic.
func TestWeightedTenantFairness(t *testing.T) {
	b := newBroker(t, Config{}, newClock())
	for i := 0; i < 24; i++ {
		submit(t, b, "bulk", 0, spec(fmt.Sprintf("bulk/job%d", i), 0))
	}
	for _, tenant := range []string{"bob", "alice"} {
		for i := 0; i < 4; i++ {
			submit(t, b, tenant, 0, spec(fmt.Sprintf("%s/job%d", tenant, i), 0))
		}
	}
	w := hello(t, b, "w1")

	var order []string
	for i := 0; i < 16; i++ {
		leases := poll(t, b, w, 1)
		if len(leases) != 1 {
			t.Fatalf("dispatch %d: got %d leases", i, len(leases))
		}
		order = append(order, strings.SplitN(leases[0].Task.Job, "/", 2)[0])
		done(t, b, w, leases[0], "ok")
	}
	// Round robin while all three have work, then the flood alone.
	want := strings.Fields(strings.Repeat("alice bob bulk ", 4) + "bulk bulk bulk bulk")
	if strings.Join(order, " ") != strings.Join(want, " ") {
		t.Fatalf("dispatch order %v, want %v", order, want)
	}
}

// TestPriorityOrdersWithinTenantOnly: priority reorders one tenant's
// queue but must not let a high-priority tenant starve the others.
func TestPriorityOrdersWithinTenantOnly(t *testing.T) {
	b := newBroker(t, Config{}, newClock())
	submit(t, b, "a", 0, spec("a/low", 0))
	submit(t, b, "a", 5, spec("a/high", 0))
	submit(t, b, "b", 0, spec("b/only", 0))
	w := hello(t, b, "w1")

	var order []string
	for i := 0; i < 3; i++ {
		l := poll(t, b, w, 1)[0]
		order = append(order, l.Task.Job)
		done(t, b, w, l, "ok")
	}
	// Tenant a dispatches its priority-5 job first; tenant b is
	// interleaved by fairness despite priority 0.
	want := []string{"a/high", "b/only", "a/low"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", order, want)
		}
	}
}

// TestLeaseExpiryRequeues: an unrenewed lease expires at TTL and the
// task goes back to the queue; the late result from the original holder
// still wins if it lands before the re-dispatch finishes.
func TestLeaseExpiryRequeues(t *testing.T) {
	clk := newClock()
	b := newBroker(t, Config{LeaseTTL: time.Minute}, clk)
	id := submit(t, b, "", 0, spec("tiny/mc", 0))
	w1 := hello(t, b, "w1")
	w2 := hello(t, b, "w2")

	l1 := poll(t, b, w1, 1)
	if len(l1) != 1 {
		t.Fatal("w1 got no lease")
	}
	// Within the TTL nothing requeues: w2 sees an empty queue.
	clk.advance(30 * time.Second)
	if ls := poll(t, b, w2, 1); len(ls) != 0 {
		t.Fatalf("task requeued before TTL: %+v", ls)
	}
	// Past the TTL the task is back; w2 leases it.
	clk.advance(31 * time.Second)
	l2 := poll(t, b, w2, 1)
	if len(l2) != 1 || l2[0].Task.Job != "tiny/mc" {
		t.Fatalf("expired lease did not requeue: %+v", l2)
	}
	if s := b.Metrics(); s.Requeues != 1 {
		t.Fatalf("requeues = %d, want 1", s.Requeues)
	}

	// The original holder finishes late: first result wins (accepted),
	// and w2's duplicate is a byte-identical cache hit.
	if rep := done(t, b, w1, l1[0], "ok"); !rep.Accepted {
		t.Fatalf("late result from expired lease must still win: %+v", rep)
	}
	rep := done(t, b, w2, l2[0], "ok")
	if rep.Accepted || !rep.Duplicate || !rep.CacheHit {
		t.Fatalf("re-dispatch result must be a duplicate cache hit: %+v", rep)
	}
	st, _ := b.Status(id)
	if st.State != api.JobDone || st.Done != 1 {
		t.Fatalf("status after expiry cycle: %+v", st)
	}
}

// TestRenewKeepsLeaseAlive: a renewed lease survives past the original
// TTL; renewal answers only still-active leases.
func TestRenewKeepsLeaseAlive(t *testing.T) {
	clk := newClock()
	b := newBroker(t, Config{LeaseTTL: time.Minute}, clk)
	submit(t, b, "", 0, spec("tiny/mc", 0))
	w1 := hello(t, b, "w1")
	w2 := hello(t, b, "w2")

	l := poll(t, b, w1, 1)[0]
	for i := 0; i < 4; i++ {
		clk.advance(40 * time.Second)
		rep, err := b.Renew(api.LeaseRenew{Proto: api.Version, WorkerID: w1, LeaseIDs: []string{l.ID}})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := rep.Deadlines[l.ID]; !ok {
			t.Fatalf("renew %d dropped an active lease", i)
		}
		if ls := poll(t, b, w2, 1); len(ls) != 0 {
			t.Fatalf("renewed lease requeued anyway at cycle %d", i)
		}
	}
	// Stop renewing: the lease expires and renewal goes silent on it.
	clk.advance(2 * time.Minute)
	rep, err := b.Renew(api.LeaseRenew{Proto: api.Version, WorkerID: w1, LeaseIDs: []string{l.ID}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Deadlines) != 0 {
		t.Fatalf("expired lease renewed: %+v", rep)
	}
}

// TestCancelWhileLeased: cancel drops the queued tasks immediately, and
// the in-flight lease's result is discarded on arrival.
func TestCancelWhileLeased(t *testing.T) {
	b := newBroker(t, Config{}, newClock())
	id := submit(t, b, "", 0, spec("tiny/mc", 0), spec("tiny/mc", 1))
	w := hello(t, b, "w1")

	leases := poll(t, b, w, 1) // shard 0 leased, shard 1 still queued
	if err := b.Cancel(api.CancelRequest{Proto: api.Version, ID: id}); err != nil {
		t.Fatal(err)
	}
	st, _ := b.Status(id)
	if st.State != api.JobCanceled {
		t.Fatalf("state %q after cancel", st.State)
	}
	// The queued shard must never dispatch.
	if ls := poll(t, b, w, 4); len(ls) != 0 {
		t.Fatalf("canceled job still dispatching: %+v", ls)
	}
	// The in-flight result is discarded, not recorded.
	if rep := done(t, b, w, leases[0], "ok"); rep.Accepted || rep.Duplicate {
		t.Fatalf("canceled task's result must be discarded: %+v", rep)
	}
	st, _ = b.Status(id)
	if st.State != api.JobCanceled || st.Done != 0 || len(st.Results) != 0 {
		t.Fatalf("cancel did not stick: %+v", st)
	}
	// Cancel is idempotent; canceling a finished job is a typed error.
	if err := b.Cancel(api.CancelRequest{Proto: api.Version, ID: id}); err != nil {
		t.Fatalf("re-cancel: %v", err)
	}
}

// TestHedgeDivergenceDetected: if a duplicate's bytes differ (a
// non-deterministic or corrupted worker), the broker flags it — the
// duplicate is not counted as a cache hit. The duplicate here is the
// late result of an expired lease whose task another worker finished.
func TestHedgeDivergenceDetected(t *testing.T) {
	clk := newClock()
	b := newBroker(t, Config{LeaseTTL: time.Minute}, clk)
	submit(t, b, "", 0, spec("tiny/mc", 0))
	w1 := hello(t, b, "w1")
	w2 := hello(t, b, "w2")
	l1 := poll(t, b, w1, 1)[0]
	clk.advance(2 * time.Minute)
	l2 := poll(t, b, w2, 1)[0]

	done(t, b, w2, l2, "ok")
	rep := done(t, b, w1, l1, "DIVERGED")
	if rep.Accepted || !rep.Duplicate || rep.CacheHit {
		t.Fatalf("divergent duplicate must not read as a cache hit: %+v", rep)
	}
	if s := b.Metrics(); s.DupCacheHits != 0 || s.Duplicates != 1 {
		t.Fatalf("divergence stats: %+v", s)
	}
}

// TestOneActiveLeasePerTask: a task whose lease expired and was leased
// again holds one active lease, the new one. The expired lease no
// longer renews and no longer shows, yet its holder's late result is
// still accepted (first result wins), which makes the new holder's
// result a byte-identical duplicate.
func TestOneActiveLeasePerTask(t *testing.T) {
	clk := newClock()
	b := newBroker(t, Config{LeaseTTL: time.Minute}, clk)
	id := submit(t, b, "", 0, spec("tiny/mc", 0))
	w1 := hello(t, b, "w1")
	w2 := hello(t, b, "w2")
	l1 := poll(t, b, w1, 1)[0]
	clk.advance(61 * time.Second)
	ls := poll(t, b, w2, 1)
	if len(ls) != 1 || ls[0].Task != l1.Task {
		t.Fatalf("expired task was not leased again: %+v", ls)
	}
	l2 := ls[0]

	if got := b.Metrics().Leased; got != 1 {
		t.Fatalf("Leased = %d after a re-lease, want 1", got)
	}
	var fleet []string
	for _, fw := range b.Fleet().Workers {
		for _, fl := range fw.Leases {
			fleet = append(fleet, fw.Name+":"+fl.ID)
		}
	}
	if len(fleet) != 1 || fleet[0] != "w2:"+l2.ID {
		t.Fatalf("fleet shows leases %v, want only w2:%s", fleet, l2.ID)
	}
	rep, err := b.Renew(api.LeaseRenew{Proto: api.Version, WorkerID: w1, LeaseIDs: []string{l1.ID}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rep.Deadlines[l1.ID]; ok {
		t.Fatalf("expired lease renewed: %+v", rep)
	}

	if rep := done(t, b, w1, l1, "ok"); !rep.Accepted || rep.Duplicate {
		t.Fatalf("expired holder's late result must win: %+v", rep)
	}
	if rep := done(t, b, w2, l2, "ok"); rep.Accepted || !rep.Duplicate || !rep.CacheHit {
		t.Fatalf("new holder's result must be a duplicate cache hit: %+v", rep)
	}
	if m := b.Metrics(); m.Leased != 0 || m.Duplicates != 1 || m.DupCacheHits != 1 {
		t.Fatalf("after both results: leased %d, duplicates %d, cache hits %d", m.Leased, m.Duplicates, m.DupCacheHits)
	}
	if st, _ := b.Status(id); st.State != api.JobDone || st.Done != 1 {
		t.Fatalf("status after the expiry cycle: %+v", st)
	}
}

// TestDrainStopsDispatch: a draining worker gets no leases; its
// in-flight lease still completes normally.
func TestDrainStopsDispatch(t *testing.T) {
	b := newBroker(t, Config{}, newClock())
	id := submit(t, b, "", 0, spec("tiny/mc", 0), spec("tiny/mc", 1))
	w := hello(t, b, "w1")
	l := poll(t, b, w, 1)
	if err := b.Drain(api.DrainRequest{Proto: api.Version, WorkerID: w}); err != nil {
		t.Fatal(err)
	}
	if ls := poll(t, b, w, 4); len(ls) != 0 {
		t.Fatalf("draining worker still dispatched: %+v", ls)
	}
	if rep := done(t, b, w, l[0], "ok"); !rep.Accepted {
		t.Fatalf("draining worker's in-flight result rejected: %+v", rep)
	}
	st, _ := b.Status(id)
	if st.Done != 1 {
		t.Fatalf("status: %+v", st)
	}
}

// TestSilentWorkerExpiresAndTasksRequeue: a worker that stops polling
// and renewing is dropped after the membership timeout and its leases
// requeue to the live fleet.
func TestSilentWorkerExpiresAndTasksRequeue(t *testing.T) {
	clk := newClock()
	b := newBroker(t, Config{LeaseTTL: time.Minute}, clk) // worker expiry 3m
	submit(t, b, "", 0, spec("tiny/mc", 0))
	dead := hello(t, b, "dead")
	live := hello(t, b, "live")
	if ls := poll(t, b, dead, 1); len(ls) != 1 {
		t.Fatalf("lease: %+v", ls)
	}
	// The live worker renews (holding no lease, so a poll cannot take
	// the requeued task early); the dead one goes silent.
	for i := 0; i < 4; i++ {
		clk.advance(time.Minute)
		if _, err := b.Renew(api.LeaseRenew{Proto: api.Version, WorkerID: live}); err != nil {
			t.Fatal(err)
		}
	}
	ls := poll(t, b, live, 1)
	if len(ls) != 1 {
		t.Fatal("dead worker's task never requeued to the live fleet")
	}
	// The dead worker's registration is gone: it must re-hello.
	_, err := b.Poll(context.Background(), api.PollRequest{Proto: api.Version, WorkerID: dead})
	ae, ok := api.AsError(err)
	if !ok || ae.Code != api.CodeNotFound {
		t.Fatalf("expired worker must be told to re-register: %v", err)
	}
	if s := b.Metrics(); s.Workers != 1 {
		t.Fatalf("workers = %d, want 1", s.Workers)
	}
}

// TestLongPollWakesOnSubmit: a parked poll returns as soon as work
// arrives (bounded real-time wait, the one place wall clock is used).
func TestLongPollWakesOnSubmit(t *testing.T) {
	b := newBroker(t, Config{}, newClock())
	w := hello(t, b, "w1")
	got := make(chan []api.Lease, 1)
	go func() {
		rep, err := b.Poll(context.Background(), api.PollRequest{
			Proto: api.Version, WorkerID: w, Max: 1, WaitNS: int64(10 * time.Second),
		})
		if err != nil {
			t.Error(err)
		}
		got <- rep.Leases
	}()
	// Give the poller a moment to park, then submit.
	time.Sleep(20 * time.Millisecond)
	submit(t, b, "", 0, spec("tiny/mc", 0))
	select {
	case leases := <-got:
		if len(leases) != 1 {
			t.Fatalf("woken poll got %d leases", len(leases))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long poll never woke on submit")
	}
}

// TestWaitStatusUnblocksOnCompletion: the submit-side long poll parks
// until the last task lands.
func TestWaitStatusUnblocksOnCompletion(t *testing.T) {
	b := newBroker(t, Config{}, newClock())
	id := submit(t, b, "", 0, spec("tiny/mc", 0))
	w := hello(t, b, "w1")
	l := poll(t, b, w, 1)[0]

	got := make(chan api.JobStatus, 1)
	go func() {
		st, err := b.WaitStatus(context.Background(), id, 10*time.Second)
		if err != nil {
			t.Error(err)
		}
		got <- st
	}()
	time.Sleep(20 * time.Millisecond)
	done(t, b, w, l, "ok")
	select {
	case st := <-got:
		if st.State != api.JobDone {
			t.Fatalf("wait returned %q", st.State)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitStatus never unblocked")
	}
}

func TestUnknownIDsAreTypedNotFound(t *testing.T) {
	b := newBroker(t, Config{}, newClock())
	if _, err := b.Status("j999"); !isCode(err, api.CodeNotFound) {
		t.Fatalf("status: %v", err)
	}
	if _, err := b.Renew(api.LeaseRenew{Proto: api.Version, WorkerID: "w999"}); !isCode(err, api.CodeNotFound) {
		t.Fatalf("renew: %v", err)
	}
	w := hello(t, b, "w1")
	_, err := b.Done(api.TaskDone{Proto: api.Version, WorkerID: w, LeaseID: "l999",
		Result: api.TaskResult{Proto: api.Version}})
	if !isCode(err, api.CodeNotFound) {
		t.Fatalf("done: %v", err)
	}
}

func isCode(err error, code api.Code) bool {
	ae, ok := api.AsError(err)
	return ok && ae.Code == code
}

// TestDoneValidatesResultAgainstLease: a result answering a different
// task (or echoing a foreign cache key) is rejected, not recorded.
func TestDoneValidatesResultAgainstLease(t *testing.T) {
	b := newBroker(t, Config{}, newClock())
	id := submit(t, b, "", 0, spec("tiny/mc", 0))
	w := hello(t, b, "w1")
	l := poll(t, b, w, 1)[0]
	bad := resultFor(l.Task, "ok")
	bad.Key = "mc@OTHER"
	if _, err := b.Done(api.TaskDone{Proto: api.Version, WorkerID: w, LeaseID: l.ID, Result: bad}); err == nil {
		t.Fatal("foreign cache-key echo must be rejected")
	}
	if st, _ := b.Status(id); st.Done != 0 {
		t.Fatalf("rejected result was recorded: %+v", st)
	}
}
