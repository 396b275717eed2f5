package remote

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/engine"
	"repro/internal/queue"
)

// startBroker boots a broker HTTP service for tests.
func startBroker(t *testing.T, cfg queue.Config) (*BrokerServer, *httptest.Server) {
	t.Helper()
	bs := NewBrokerServer(queue.New(cfg), "qb")
	ts := httptest.NewServer(bs)
	t.Cleanup(ts.Close)
	return bs, ts
}

// startPullWorker attaches a PullWorker to the broker for the test's
// duration; cleanup stops (and drains) it.
func startPullWorker(t *testing.T, brokerURL string, reg *engine.Registry, name string, capacity int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	w := NewPullWorker(brokerURL, reg, WorkerOptions{Name: name, Capacity: capacity})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
}

// submitJob submits one job of specs to b as a one-job batch, the
// broker's one submission route, and returns the job's id.
func submitJob(t testing.TB, b *queue.Broker, specs ...api.TaskSpec) string {
	t.Helper()
	rep, err := b.SubmitBatch(api.JobSubmitBatch{Proto: api.Version, Jobs: []api.JobSubmit{{Proto: api.Version, Tasks: specs}}})
	if err == nil && rep.Jobs[0].Err != nil {
		err = rep.Jobs[0].Err
	}
	if err != nil {
		t.Fatal(err)
	}
	return rep.Jobs[0].ID
}

func dialQueue(t *testing.T, url string, opts QueueOptions) *QueueExecutor {
	t.Helper()
	qe, err := DialQueue(context.Background(), url, opts)
	if err != nil {
		t.Fatal(err)
	}
	return qe
}

// TestDoneStatusWithoutResultIsAnError: a broker whose status reply
// says "done" but carries no result must fail the task with an error
// that names the job and the broker, not panic the scheduler.
func TestDoneStatusWithoutResultIsAnError(t *testing.T) {
	bs := NewBrokerServer(queue.New(queue.Config{}), "qb")
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == JobStatusPath {
			w.Header().Set("Content-Type", "application/json")
			w.Write([]byte(`{"state":"done"}`))
			return
		}
		bs.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	qe := dialQueue(t, ts.URL, QueueOptions{BatchLinger: -1})

	spec := api.TaskSpec{Proto: api.Version, Job: "mono0", Shard: 0, Seed: 7, Key: "mono0@hash"}
	_, err := qe.Execute(context.Background(), spec)
	if err == nil {
		t.Fatal("a done status without its result must fail the task")
	}
	for _, frag := range []string{"mono0", strings.TrimPrefix(ts.URL, "http://"), "0 results"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("error %q does not name %q", err, frag)
		}
	}
}

// TestQueueReportMatchesLocal is the queue-transport half of the
// determinism guarantee: the same registry scheduled through a broker
// and a pull worker renders a report byte-identical to the in-process
// pool, at several scheduler widths.
func TestQueueReportMatchesLocal(t *testing.T) {
	_, ts := startBroker(t, queue.Config{})
	startPullWorker(t, ts.URL, testRegistry(t), "pw1", 4)

	local, err := engine.Run(testRegistry(t), engine.Options{Workers: 1, BaseSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := local.Err(); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		qe := dialQueue(t, ts.URL, QueueOptions{})
		rep, err := engine.Run(testRegistry(t), engine.Options{Workers: workers, BaseSeed: 5, Executor: qe})
		if err != nil {
			t.Fatal(err)
		}
		if reportText(rep) != reportText(local) {
			t.Fatalf("workers=%d queue report diverged:\n%s\nvs local\n%s", workers, reportText(rep), reportText(local))
		}
	}
}

// rawWorker drives the broker's worker API by hand — a worker the test
// fully controls (grab a lease, sit on it, report late).
type rawWorker struct {
	t    *testing.T
	base string
	id   string
}

func newRawWorker(t *testing.T, base, name string) *rawWorker {
	t.Helper()
	w := &rawWorker{t: t, base: base}
	var rep api.HelloReply
	w.post(HelloPath, api.WorkerHello{Proto: api.Version, Name: name, Capacity: 1}, &rep)
	w.id = rep.WorkerID
	return w
}

func (w *rawWorker) post(path string, req, out any) {
	w.t.Helper()
	if err := PostJSON(context.Background(), http.DefaultClient, w.base+path, req, out); err != nil {
		w.t.Fatal(err)
	}
}

// grabLease polls until the broker grants this worker a lease.
func (w *rawWorker) grabLease() api.Lease {
	w.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		var rep api.PollReply
		w.post(PollPath, api.PollRequest{Proto: api.Version, WorkerID: w.id, Max: 1}, &rep)
		if len(rep.Leases) > 0 {
			return rep.Leases[0]
		}
		time.Sleep(5 * time.Millisecond)
	}
	w.t.Fatal("raw worker never got a lease")
	return api.Lease{}
}

// TestQueueLeaseExpiryRecoversTask is the worker-death acceptance path:
// a worker takes a lease and dies (never renews, never reports); after
// the TTL the broker requeues the task, a healthy pull worker finishes
// it, and the scheduler's result is exactly the local one.
func TestQueueLeaseExpiryRecoversTask(t *testing.T) {
	bs, ts := startBroker(t, queue.Config{LeaseTTL: 50 * time.Millisecond})
	reg := testRegistry(t)
	qe := dialQueue(t, ts.URL, QueueOptions{})

	// Submit one task through the executor in the background; nothing can
	// serve it yet.
	spec := api.TaskSpec{Proto: api.Version, Job: "mono0", Shard: 0, Seed: 7, Key: "mono0@hash"}
	type outcome struct {
		res api.TaskResult
		err error
	}
	resCh := make(chan outcome, 1)
	go func() {
		res, err := qe.Execute(context.Background(), spec)
		resCh <- outcome{res, err}
	}()

	// The doomed worker grabs the lease and dies silently.
	doomed := newRawWorker(t, strings.TrimRight(ts.URL, "/"), "doomed")
	doomed.grabLease()

	// A healthy worker joins; it must receive the task after lease expiry.
	startPullWorker(t, ts.URL, testRegistry(t), "healthy", 2)

	got := <-resCh
	if got.err != nil {
		t.Fatal(got.err)
	}
	if got.res.Worker != "healthy" {
		t.Fatalf("task finished on %q, want the healthy worker", got.res.Worker)
	}
	want, err := engine.NewLocalExecutor(reg).Execute(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if got.res.Text != want.Text || string(got.res.Data) != string(want.Data) || got.res.Err != want.Err {
		t.Fatalf("recovered result diverged from local: %+v vs %+v", got.res, want)
	}
	if st := bs.Broker().Metrics(); st.Requeues == 0 {
		t.Fatalf("no requeue recorded: %+v", st)
	}
}

// TestQueueHedgedDuplicateIsCacheHit is the straggler acceptance path: a
// slow worker sits on a lease without renewing it, the lease expires
// into a requeue, a fast pull worker takes the task and wins, and when
// the straggler finally reports, the broker confirms its bytes match
// the winner — the determinism guarantee observable on the wire as a
// cache hit.
func TestQueueHedgedDuplicateIsCacheHit(t *testing.T) {
	bs, ts := startBroker(t, queue.Config{LeaseTTL: 50 * time.Millisecond})
	reg := testRegistry(t)
	qe := dialQueue(t, ts.URL, QueueOptions{})

	spec := api.TaskSpec{Proto: api.Version, Job: "mono1", Shard: 0, Seed: 11, Key: "mono1@hash"}
	resCh := make(chan api.TaskResult, 1)
	go func() {
		res, err := qe.Execute(context.Background(), spec)
		if err != nil {
			t.Error(err)
		}
		resCh <- res
	}()

	// The straggler takes the (only) lease and stalls without renewing.
	slow := newRawWorker(t, strings.TrimRight(ts.URL, "/"), "slow")
	lease := slow.grabLease()

	// The fast worker joins with an empty queue; once the straggler's
	// lease expires the task requeues and the fast worker takes it.
	startPullWorker(t, ts.URL, testRegistry(t), "fast", 2)
	winner := <-resCh
	if winner.Worker != "fast" {
		t.Fatalf("winner %q, want the fast worker", winner.Worker)
	}

	// The straggler finally finishes the same deterministic computation
	// and reports: first result won, and the duplicate's bytes match.
	slowRes, err := engine.NewNamedLocalExecutor(reg, "slow").Execute(context.Background(), lease.Task)
	if err != nil {
		t.Fatal(err)
	}
	var rep api.DoneReply
	slow.post(DonePath, api.TaskDone{Proto: api.Version, WorkerID: slow.id, LeaseID: lease.ID, Result: slowRes}, &rep)
	if rep.Accepted || !rep.Duplicate || !rep.CacheHit {
		t.Fatalf("straggler's reply %+v, want duplicate cache hit", rep)
	}
	st := bs.Broker().Metrics()
	if st.Requeues < 1 || st.Duplicates != 1 || st.DupCacheHits != 1 {
		t.Fatalf("stats %+v, want a requeue and exactly one byte-identical duplicate", st)
	}
}

// TestQueueTenantsShareFairly runs two tenants' schedulers concurrently
// against one single-capacity worker and checks both finish — the
// remote-level smoke of the fairness machinery (exact equal shares are
// proven deterministically in internal/queue).
func TestQueueTenantsShareFairly(t *testing.T) {
	_, ts := startBroker(t, queue.Config{})
	startPullWorker(t, ts.URL, testRegistry(t), "pw", 1)

	var wg sync.WaitGroup
	reports := make([]*engine.Report, 2)
	for i, tenant := range []string{"gold", "bronze"} {
		wg.Add(1)
		go func(i int, tenant string) {
			defer wg.Done()
			qe := dialQueue(t, ts.URL, QueueOptions{Tenant: tenant})
			rep, err := engine.Run(testRegistry(t), engine.Options{Workers: 2, BaseSeed: 5, Executor: qe})
			if err != nil {
				t.Error(err)
				return
			}
			reports[i] = rep
		}(i, tenant)
	}
	wg.Wait()
	local, err := engine.Run(testRegistry(t), engine.Options{Workers: 1, BaseSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reports {
		if rep == nil {
			t.Fatal("a tenant's run never finished")
		}
		if reportText(rep) != reportText(local) {
			t.Fatalf("tenant %d report diverged from local", i)
		}
	}
}

// TestBrokerStatusAndDrain: GET /v1/status identifies the broker (role,
// protocol, drain state), and a draining broker refuses new submissions
// and registrations with the typed draining code.
func TestBrokerStatusAndDrain(t *testing.T) {
	bs, ts := startBroker(t, queue.Config{})

	getStatus := func() api.WorkerStatus {
		t.Helper()
		resp, err := http.Get(ts.URL + StatusPath)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st api.WorkerStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := getStatus()
	if st.Role != "broker" || st.Draining || api.CheckProto(st.Proto) != nil {
		t.Fatalf("fresh broker status %+v", st)
	}

	bs.Drain()
	if st := getStatus(); !st.Draining {
		t.Fatalf("drained broker status %+v", st)
	}
	// Dialing a draining broker fails at startup, not mid-run.
	if _, err := DialQueue(context.Background(), ts.URL, QueueOptions{}); err == nil || !strings.Contains(err.Error(), "draining") {
		t.Fatalf("dial of draining broker: %v", err)
	}
	// Submissions and registrations are refused with the typed code.
	err := PostJSON(context.Background(), http.DefaultClient, ts.URL+SubmitBatchPath, api.JobSubmitBatch{
		Proto: api.Version,
		Jobs: []api.JobSubmit{{Proto: api.Version,
			Tasks: []api.TaskSpec{{Proto: api.Version, Job: "mono0", Shard: 0}}}},
	}, nil)
	ae, ok := api.AsError(err)
	if !ok || ae.Code != api.CodeDraining || !ae.Retryable {
		t.Fatalf("submit to draining broker: %v", err)
	}
	err = PostJSON(context.Background(), http.DefaultClient, ts.URL+HelloPath,
		api.WorkerHello{Proto: api.Version, Name: "late", Capacity: 1}, nil)
	if ae, ok := api.AsError(err); !ok || ae.Code != api.CodeDraining {
		t.Fatalf("hello to draining broker: %v", err)
	}
}

// TestQueueTypedErrorsEndToEnd: error bodies survive the HTTP round
// trip as typed api.Error values, and protocol mismatches are refused at
// registration — the mixed-fleet upgrade guarantee.
func TestQueueTypedErrorsEndToEnd(t *testing.T) {
	_, ts := startBroker(t, queue.Config{})

	// An empty submission is a non-retryable bad request.
	err := PostJSON(context.Background(), http.DefaultClient, ts.URL+SubmitBatchPath,
		api.JobSubmitBatch{Proto: api.Version, Jobs: []api.JobSubmit{{Proto: api.Version}}}, nil)
	if ae, ok := api.AsError(err); !ok || ae.Code != api.CodeBadRequest || ae.Retryable {
		t.Fatalf("empty submit: %v", err)
	}

	// A worker from a different protocol revision is rejected at hello.
	err = PostJSON(context.Background(), http.DefaultClient, ts.URL+HelloPath,
		api.WorkerHello{Proto: "dlexec1", Name: "old", Capacity: 1}, nil)
	ae, ok := api.AsError(err)
	if !ok || ae.Code != api.CodeProtoMismatch {
		t.Fatalf("old-proto hello: %v", err)
	}
	if !strings.Contains(ae.Error(), "protocol version") {
		t.Fatalf("mismatch message: %v", ae)
	}

	// Unknown ids come back as typed not-found.
	err = PostJSON(context.Background(), http.DefaultClient, ts.URL+CancelPath,
		api.CancelRequest{Proto: api.Version, ID: "j999"}, nil)
	if ae, ok := api.AsError(err); !ok || ae.Code != api.CodeNotFound {
		t.Fatalf("cancel unknown job: %v", err)
	}
}
