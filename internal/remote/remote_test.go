package remote

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/engine"
)

// testRegistry builds seed-dependent jobs — monoliths plus one sharded
// grid — so report text fingerprints where and how tasks executed.
func testRegistry(t *testing.T) *engine.Registry {
	t.Helper()
	reg := engine.NewRegistry()
	must := func(j engine.Job) {
		if err := reg.Register(j); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("mono%d", i)
		must(engine.Job{Name: name, Key: name + "@hash", Run: func(ctx engine.Context) (engine.Output, error) {
			rng := rand.New(rand.NewSource(int64(ctx.Seed)))
			return engine.Output{
				Text: fmt.Sprintf("%s -> %d", ctx.Name, rng.Int63()),
				Data: map[string]uint64{"seed": ctx.Seed},
			}, nil
		}})
	}
	var shards []engine.Shard
	for i := 0; i < 6; i++ {
		shards = append(shards, engine.Shard{
			Name: fmt.Sprintf("s%d", i),
			Run: func(ctx engine.Context) (engine.Output, error) {
				return engine.Output{Data: map[string]any{"name": ctx.Name, "seed": ctx.Seed}}, nil
			},
		})
	}
	must(engine.Job{Name: "grid", Title: "grid job", Key: "grid@hash", Shards: shards, Merge: func(_ engine.Context, outs []engine.Output) (engine.Output, error) {
		var b strings.Builder
		for _, o := range outs {
			var row struct {
				Name string `json:"name"`
				Seed uint64 `json:"seed"`
			}
			if err := engine.DecodeData(o.Data, &row); err != nil {
				return engine.Output{}, err
			}
			fmt.Fprintf(&b, "%s:%d\n", row.Name, row.Seed)
		}
		return engine.Output{Text: b.String()}, nil
	}})
	return reg
}

// reportText strips timings so reports can be compared for determinism.
func reportText(rep *engine.Report) string {
	var b strings.Builder
	for _, r := range rep.Results {
		fmt.Fprintf(&b, "%s seed=%d err=%q\n%s\n", r.Name, r.Seed, r.Err, r.Text)
	}
	return b.String()
}

func startWorker(t *testing.T, reg *engine.Registry, name string, capacity int) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(NewServer(reg, name, capacity))
	t.Cleanup(ts.Close)
	return ts
}

func dial(t *testing.T, opts Options, addrs ...string) *RemoteExecutor {
	t.Helper()
	re, err := Dial(context.Background(), addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return re
}

// TestRemoteReportMatchesLocal is the transport-independence guarantee:
// the same registry scheduled through a loopback worker renders the same
// report as the in-process pool, at several worker counts.
func TestRemoteReportMatchesLocal(t *testing.T) {
	ts := startWorker(t, testRegistry(t), "w1", 4)
	local, err := engine.Run(testRegistry(t), engine.Options{Workers: 1, BaseSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := local.Err(); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		re := dial(t, Options{}, ts.URL)
		rep, err := engine.Run(testRegistry(t), engine.Options{Workers: workers, BaseSeed: 5, Executor: re})
		if err != nil {
			t.Fatal(err)
		}
		if reportText(rep) != reportText(local) {
			t.Fatalf("workers=%d remote report diverged:\n%s\nvs local\n%s", workers, reportText(rep), reportText(local))
		}
	}
}

func TestDialRejectsProtocolMismatch(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"proto":"dlexec999","name":"future","capacity":1}`)
	}))
	defer ts.Close()
	if _, err := Dial(context.Background(), []string{ts.URL}, Options{}); err == nil || !strings.Contains(err.Error(), "protocol version") {
		t.Fatalf("dial must reject a future worker: %v", err)
	}
}

// TestDialSurfacesTypedStatusRefusal: a worker whose /v1/status
// refuses with a typed error (here: draining) fails Dial with that
// *api.Error, not an untyped status line.
func TestDialSurfacesTypedStatusRefusal(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, api.Errf(api.CodeDraining, "worker w is draining"))
	}))
	defer ts.Close()
	_, err := Dial(context.Background(), []string{ts.URL}, Options{})
	if ae, ok := api.AsError(err); !ok || ae.Code != api.CodeDraining || ae.Msg != "worker w is draining" {
		t.Fatalf("dial error = %v, want the worker's typed draining error", err)
	}
}

func TestDialRejectsUnreachableWorker(t *testing.T) {
	if _, err := Dial(context.Background(), []string{"127.0.0.1:1"}, Options{}); err == nil {
		t.Fatal("dial must fail when a worker is unreachable")
	}
}

// TestRetryWithExclusion: a worker that accepts status probes but fails
// every execution is excluded per task, and the healthy worker serves the
// whole run.
func TestRetryWithExclusion(t *testing.T) {
	good := startWorker(t, testRegistry(t), "good", 4)

	// The bad worker answers /v1/status like a healthy daemon but 500s
	// every /v1/execute.
	statusSrc := NewServer(testRegistry(t), "bad", 4)
	var badHits atomic.Int64
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == StatusPath {
			statusSrc.ServeHTTP(w, r)
			return
		}
		badHits.Add(1)
		http.Error(w, "disk on fire", http.StatusInternalServerError)
	}))
	defer bad.Close()

	re := dial(t, Options{}, bad.URL, good.URL)
	rep, err := engine.Run(testRegistry(t), engine.Options{Workers: 2, BaseSeed: 5, Executor: re})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("run must survive a failing worker: %v", err)
	}
	if badHits.Load() == 0 {
		t.Fatal("bad worker was never tried (test proves nothing)")
	}
	local, err := engine.Run(testRegistry(t), engine.Options{Workers: 1, BaseSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if reportText(rep) != reportText(local) {
		t.Fatal("report diverged under worker failure")
	}
	// After downAfter consecutive failures the bad worker stops being
	// selected at all. Up to Workers-1 extra hits can race in before the
	// marker trips, hence the slack.
	if hits := badHits.Load(); hits > downAfter+1 {
		t.Fatalf("bad worker kept being tried after being marked down: %d hits", hits)
	}
}

// TestDownWorkerReprobedAfterBackoff: a worker down-marked after
// downAfter consecutive failures sits out the backoff, is offered one
// probe task once it elapses, and rejoins selection when the probe
// succeeds — instead of staying out for the whole run.
func TestDownWorkerReprobedAfterBackoff(t *testing.T) {
	good := startWorker(t, testRegistry(t), "good", 4)

	// The flaky worker 500s /v1/execute while failing is set and serves
	// normally otherwise.
	inner := NewServer(testRegistry(t), "flaky", 4)
	var failing atomic.Bool
	var execHits atomic.Int64
	failing.Store(true)
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == ExecutePath {
			execHits.Add(1)
			if failing.Load() {
				http.Error(w, "transient outage", http.StatusInternalServerError)
				return
			}
		}
		inner.ServeHTTP(w, r)
	}))
	defer flaky.Close()

	// The good worker is dialed first: on load ties the stable
	// least-loaded sort prefers it, so this order proves the elapsed
	// probe is dispatched ahead of the live fleet instead of starving
	// behind it.
	re := dial(t, Options{}, good.URL, flaky.URL)
	clock := time.Now()
	re.now = func() time.Time { return clock }

	run := func() *engine.Report {
		t.Helper()
		rep, err := engine.Run(testRegistry(t), engine.Options{Workers: 2, BaseSeed: 5, Executor: re})
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			t.Fatal(err)
		}
		return rep
	}

	// The flaky worker fails its way to down-marked. Least-loaded
	// selection would route most tasks to good, so for these downAfter
	// tasks the flaky worker is the whole fleet: each one fails there,
	// with nowhere else to go.
	fleet := re.workers
	for _, w := range fleet {
		if w.name == "flaky" {
			re.workers = []*worker{w}
		}
	}
	spec := api.TaskSpec{Proto: api.Version, Job: "mono0", Shard: api.MonolithShard, Key: "mono0@hash"}
	for i := 0; i < downAfter; i++ {
		if _, err := re.Execute(context.Background(), spec); err == nil {
			t.Fatal("task succeeded on the failing worker")
		}
	}
	re.workers = fleet
	downHits := execHits.Load()
	if downHits < downAfter {
		t.Fatalf("flaky worker hit %d times, want >= %d to trip down-marking", downHits, downAfter)
	}

	// A run inside the backoff: the worker must not be probed.
	run()
	if got := execHits.Load(); got != downHits {
		t.Fatalf("down worker probed %d times during backoff", got-downHits)
	}

	// Heal the worker and advance past the backoff (jitter keeps every
	// window under 1.25×reprobeAfter): the next run probes it, the probe
	// succeeds, and it serves tasks again.
	failing.Store(false)
	clock = clock.Add(2 * reprobeAfter)
	rep := run()
	if got := execHits.Load(); got <= downHits {
		t.Fatal("down worker never re-probed after the backoff elapsed")
	}
	for _, w := range re.workers {
		if w.name == "flaky" && w.down() {
			t.Fatal("successful probe must restore the worker")
		}
	}
	local, err := engine.Run(testRegistry(t), engine.Options{Workers: 1, BaseSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if reportText(rep) != reportText(local) {
		t.Fatal("report diverged across the re-probation cycle")
	}
}

// TestFallbackToLocal: when every worker dies after dial, tasks run on
// the fallback executor and the run still completes correctly.
func TestFallbackToLocal(t *testing.T) {
	reg := testRegistry(t)
	ts := httptest.NewServer(NewServer(reg, "doomed", 2))
	re := dial(t, Options{Fallback: engine.NewLocalExecutor(reg)}, ts.URL)
	ts.Close() // the fleet dies between dial and dispatch

	rep, err := engine.Run(reg, engine.Options{Workers: 2, BaseSeed: 5, Executor: re})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("fallback must absorb a dead fleet: %v", err)
	}
	local, err := engine.Run(testRegistry(t), engine.Options{Workers: 1, BaseSeed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if reportText(rep) != reportText(local) {
		t.Fatal("fallback report diverged from local")
	}
}

// TestNoFallbackSurfacesFleetFailure: without a fallback, a dead fleet
// fails the tasks with a transport-shaped error.
func TestNoFallbackSurfacesFleetFailure(t *testing.T) {
	reg := testRegistry(t)
	ts := httptest.NewServer(NewServer(reg, "doomed", 2))
	re := dial(t, Options{}, ts.URL)
	ts.Close()

	rep, err := engine.Run(reg, engine.Options{Workers: 2, Executor: re, Filter: []string{"mono0"}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() != 1 || !strings.Contains(rep.Results[0].Err, "remote: task mono0") {
		t.Fatalf("fleet failure not surfaced: %+v", rep.Results[0])
	}
}

// TestWorkerRefusesForeignCacheKey: a worker whose registry derived a
// different cache key (different presets or code) must refuse the task;
// with a local fallback the run still completes with correct results.
func TestWorkerRefusesForeignCacheKey(t *testing.T) {
	foreign := engine.NewRegistry()
	if err := foreign.Register(engine.Job{Name: "mono0", Key: "mono0@OTHERHASH", Run: func(engine.Context) (engine.Output, error) {
		return engine.Output{Text: "poisoned"}, nil
	}}); err != nil {
		t.Fatal(err)
	}
	ts := startWorker(t, foreign, "foreign", 2)

	reg := testRegistry(t)
	re := dial(t, Options{Fallback: engine.NewLocalExecutor(reg)}, ts.URL)
	rep, err := engine.Run(reg, engine.Options{Workers: 1, BaseSeed: 5, Executor: re, Filter: []string{"mono0"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(rep.Results[0].Text, "poisoned") {
		t.Fatal("foreign worker's result leaked into the report")
	}
	local, err := engine.Run(testRegistry(t), engine.Options{Workers: 1, BaseSeed: 5, Filter: []string{"mono0"}})
	if err != nil {
		t.Fatal(err)
	}
	if reportText(rep) != reportText(local) {
		t.Fatal("key-mismatch recovery diverged from local")
	}
}

// TestPerWorkerInflightLimit: the client never holds more requests
// open against one worker than the capacity it advertises, even when
// the scheduler offers more parallelism.
func TestPerWorkerInflightLimit(t *testing.T) {
	const limit = 2
	reg := engine.NewRegistry()
	for i := 0; i < 8; i++ {
		if err := reg.Register(engine.Job{Name: fmt.Sprintf("slow%d", i), Run: func(engine.Context) (engine.Output, error) {
			time.Sleep(20 * time.Millisecond)
			return engine.Output{Text: "ok"}, nil
		}}); err != nil {
			t.Fatal(err)
		}
	}

	var mu sync.Mutex
	cur, peak := 0, 0
	inner := NewServer(reg, "w", limit)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == ExecutePath {
			mu.Lock()
			cur++
			if cur > peak {
				peak = cur
			}
			mu.Unlock()
			defer func() { mu.Lock(); cur--; mu.Unlock() }()
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	re := dial(t, Options{}, ts.URL)
	rep, err := engine.Run(reg, engine.Options{Workers: 8, Executor: re})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if peak > limit {
		t.Fatalf("peak inflight %d exceeds limit %d", peak, limit)
	}
}

// TestServerStatus: /v1/status reports identity, registry and protocol.
func TestServerStatus(t *testing.T) {
	reg := testRegistry(t)
	ts := startWorker(t, reg, "rack7", 3)
	st, err := probeStatus(context.Background(), http.DefaultClient, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if st.Name != "rack7" || st.Capacity != 3 || st.Jobs != reg.Len() {
		t.Fatalf("status %+v", st)
	}
	if len(st.JobNames) != reg.Len() {
		t.Fatalf("status names %v", st.JobNames)
	}
	if err := api.CheckProto(st.Proto); err != nil {
		t.Fatal(err)
	}
}

// TestServerRejectsMalformedAndForeignSpecs covers the HTTP error paths.
func TestServerRejectsMalformedAndForeignSpecs(t *testing.T) {
	ts := startWorker(t, testRegistry(t), "w", 2)
	post := func(body string) *http.Response {
		resp, err := http.Post(ts.URL+ExecutePath, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := post("{garbage"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed spec: %s", resp.Status)
	}
	if resp := post(`{"proto":"old","job":"mono0","shard":-1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("foreign proto: %s", resp.Status)
	}
	if resp := post(`{"proto":"` + api.Version + `","job":"nosuch","shard":-1}`); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unknown job: %s", resp.Status)
	}
}

// TestCancellationAbortsRemoteCalls: cancelling the scheduler context
// fails queued remote tasks fast and surfaces the cancellation.
func TestCancellationAbortsRemoteCalls(t *testing.T) {
	reg := engine.NewRegistry()
	release := make(chan struct{})
	for i := 0; i < 3; i++ {
		if err := reg.Register(engine.Job{Name: fmt.Sprintf("block%d", i), Run: func(c engine.Context) (engine.Output, error) {
			select {
			case <-release:
			case <-c.Ctx.Done():
				return engine.Output{}, c.Ctx.Err()
			}
			return engine.Output{Text: "done"}, nil
		}}); err != nil {
			t.Fatal(err)
		}
	}
	ts := startWorker(t, reg, "w", 4)
	re := dial(t, Options{}, ts.URL)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	rep, err := engine.Run(reg, engine.Options{Workers: 3, Executor: re, Ctx: ctx})
	close(release)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() != 3 {
		t.Fatalf("failed = %d, want 3 (cancellation must fail in-flight remote tasks)", rep.Failed())
	}
}
