package remote

import (
	"context"
	"encoding/json"
	"io"
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

// countingMux wraps a broker server and counts POSTs per path, so a
// test can prove how many submit round-trips a run actually cost.
type countingMux struct {
	h  http.Handler
	mu sync.Mutex
	n  map[string]int
}

func (c *countingMux) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		c.mu.Lock()
		c.n[r.URL.Path]++
		c.mu.Unlock()
	}
	c.h.ServeHTTP(w, r)
}

func (c *countingMux) posts(path string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n[path]
}

// TestQueueBatchedSubmissionCoalesces is the batching acceptance test:
// a sharded run fans its submission wave into O(1) batch POSTs instead
// of one POST per task, and the report stays byte-identical to local.
func TestQueueBatchedSubmissionCoalesces(t *testing.T) {
	cm := &countingMux{h: NewBrokerServer(queue.New(queue.Config{}), "qb"), n: make(map[string]int)}
	ts := httptest.NewServer(cm)
	t.Cleanup(ts.Close)
	startPullWorker(t, ts.URL, testRegistry(t), "pw", 4)

	local, err := engine.Run(testRegistry(t), engine.Options{Workers: 1, BaseSeed: 5})
	if err != nil {
		t.Fatal(err)
	}

	// A generous linger makes the coalescing deterministic: the whole
	// fan-out (4 monoliths + 6 grid shards = 10 tasks) lands well inside
	// one wave's window.
	qe := dialQueue(t, ts.URL, QueueOptions{BatchLinger: 100 * time.Millisecond})
	rep, err := engine.Run(testRegistry(t), engine.Options{Workers: 16, BaseSeed: 5, Executor: qe})
	if err != nil {
		t.Fatal(err)
	}
	if reportText(rep) != reportText(local) {
		t.Fatalf("batched report diverged:\n%s\nvs local\n%s", reportText(rep), reportText(local))
	}
	if got := cm.posts(SubmitBatchPath); got < 1 || got > 3 {
		t.Fatalf("10 tasks cost %d batch POSTs, want O(1) (1-3 waves)", got)
	}
}

// TestQueueFullReturnedAndRetried is the admission acceptance test
// under a one-task-per-second rate: the broker answers rate_limited
// (typed and retryable, with a Retry-After hint, on the job's own batch
// item) while the tenant's bucket is empty, the executor waits it out
// instead of failing, and both tasks complete.
func TestQueueFullReturnedAndRetried(t *testing.T) {
	bs, ts := startBroker(t, queue.Config{MaxSubmitRate: 1})
	qe := dialQueue(t, ts.URL, QueueOptions{BatchLinger: -1})

	type outcome struct {
		res api.TaskResult
		err error
	}
	results := make(chan outcome, 2)
	for _, job := range []string{"mono0", "mono1"} {
		spec := api.TaskSpec{Proto: api.Version, Job: job, Shard: 0, Seed: 7, Key: job + "@hash"}
		go func(spec api.TaskSpec) {
			res, err := qe.Execute(context.Background(), spec)
			results <- outcome{res, err}
		}(spec)
	}

	// The first task spends the bucket's one token, and the other
	// bounces off it until the bucket refills a second later. Rejections
	// are visible as the broker's RateLimited counter.
	deadline := time.Now().Add(5 * time.Second)
	for bs.Broker().Metrics().RateLimited == 0 {
		if time.Now().After(deadline) {
			t.Fatal("broker never rate-limited a submission at one task per second")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The raw wire answer while the bucket is empty: a 200 batch reply
	// whose one item is a typed, retryable rate_limited with a hint.
	var rep api.SubmitBatchReply
	err := PostJSON(context.Background(), http.DefaultClient, ts.URL+SubmitBatchPath,
		api.JobSubmitBatch{Proto: api.Version, Jobs: []api.JobSubmit{{Proto: api.Version, Tasks: []api.TaskSpec{
			{Proto: api.Version, Job: "mono2", Shard: 0, Seed: 7, Key: "mono2@hash"},
		}}}}, &rep)
	if err != nil || len(rep.Jobs) != 1 {
		t.Fatalf("direct submit on an empty bucket: %v, %d items, want one", err, len(rep.Jobs))
	}
	if ae := rep.Jobs[0].Err; ae == nil || ae.Code != api.CodeRateLimited || !ae.Retryable || ae.RetryAfterNS <= 0 {
		t.Fatalf("direct submit on an empty bucket: item %+v, want retryable rate_limited with a hint", rep.Jobs[0])
	}

	// A worker runs what lands; the executor's backoff loop must get the
	// bounced task admitted and both Executes finish clean.
	startPullWorker(t, ts.URL, testRegistry(t), "pw", 1)
	for i := 0; i < 2; i++ {
		out := <-results
		if out.err != nil {
			t.Fatalf("task failed despite retryable rate_limited: %v", out.err)
		}
		if out.res.Worker != "pw" {
			t.Fatalf("result from %q, want the pull worker", out.res.Worker)
		}
	}
	if st := bs.Broker().Metrics(); st.Completed != 2 {
		t.Fatalf("completed = %d, want both tasks", st.Completed)
	}
}

// TestMetricsEndpoint smokes both renderings of GET /v2/metrics: the
// JSON body is the api.BrokerMetrics schema, and ?format=prometheus is
// the text exposition of the same numbers.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := startBroker(t, queue.Config{})
	startPullWorker(t, ts.URL, testRegistry(t), "pw", 2)
	qe := dialQueue(t, ts.URL, QueueOptions{Tenant: "ci"})
	spec := api.TaskSpec{Proto: api.Version, Job: "mono0", Shard: 0, Seed: 7, Key: "mono0@hash"}
	if _, err := qe.Execute(context.Background(), spec); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var m api.BrokerMetrics
	err = json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := api.CheckProto(m.Proto); err != nil {
		t.Fatal(err)
	}
	if m.Submitted != 1 || m.Completed != 1 {
		t.Fatalf("metrics = %+v, want 1 submitted / 1 completed", m)
	}
	if len(m.Tenants) != 1 || m.Tenants[0].Tenant != "ci" {
		t.Fatalf("tenants = %+v, want the ci tenant", m.Tenants)
	}

	resp, err = http.Get(ts.URL + MetricsPath + "?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("prometheus content type %q", ct)
	}
	text := string(raw)
	for _, want := range []string{
		"# TYPE dramlocker_broker_pending_tasks gauge",
		"dramlocker_broker_tasks_completed_total 1",
		`dramlocker_tenant_served_total{tenant="ci"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, text)
		}
	}
}
