package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/queue"
	"repro/internal/remote"
	"repro/internal/resultplane"
)

// journalMaxBytes is the broker's segment size, the daemon's default.
const journalMaxBytes = 64 << 20

// jobRetention is how long the broker keeps finished jobs. The daemon
// keeps them ten minutes, and every broker request sweeps all of them,
// so within a run of seconds the cost per task would grow with the
// tasks the run itself has completed: a faster broker would be measured
// on a fuller table. A second outlasts every status fetch and holds the
// table at a steady size.
const jobRetention = time.Second

// queueRig sends a workload's tasks from an in-process scheduler through
// loopback HTTP, the way `dramlocker -broker` and a `dramlockerd -pull`
// worker (or a `dramlockerd` push worker) would: mode "lease" goes
// through a journaled broker and one pull worker, "plane" through the
// same broker co-hosting a result plane that setup filled, and "push"
// through a push worker. Scheduler and worker get separate HTTP
// clients, as separate processes would.
//
// The reference — the same jobs run in process — is computed in setup.
// Lease and push passes use a fresh scheduler base seed each, so every
// task has a new cache key; plane passes reuse the reference's, which is
// what the plane holds.
type queueRig struct {
	mode    string
	reg     *engine.Registry
	filter  []string
	ref     []normResult
	refBase uint64
	timer   *taskTimer

	srv        *http.Server
	broker     *queue.Broker
	journal    *queue.Journal
	dir        string
	transports []*http.Transport
	stopWorker context.CancelFunc
	workerDone chan error
	counts0    brokerCounts // at the end of setup

	// Traced rigs only.
	routes *routeStats
	wexec  *workerExec
	plane  *timedPlane
}

func newQueueRig(ctx context.Context, w workload, e env) (_ *queueRig, err error) {
	r := &queueRig{mode: w.mode, filter: w.filter(), refBase: e.seed}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	r.reg = engine.NewRegistry()
	if err := experiments.RegisterJobs(r.reg, tinyPreset(e.seed)); err != nil {
		return nil, err
	}
	if e.tracer != nil {
		r.routes = &routeStats{tr: e.tracer, label: e.label}
	}

	var handler http.Handler
	var store *resultplane.Store
	if r.mode == "push" {
		handler = remote.NewServer(r.reg, "dlbench-push", workers)
	} else {
		if r.dir, err = os.MkdirTemp(e.tmpDir, "journal-"); err != nil {
			return nil, err
		}
		if r.journal, err = queue.OpenJournal(r.dir, journalMaxBytes); err != nil {
			return nil, err
		}
		cfg := queue.Config{Journal: r.journal, JobRetention: jobRetention}
		if r.mode == "plane" {
			store = resultplane.NewStore()
			var p queue.ResultPlane = &resultplane.StorePlane{S: store, Version: experiments.CacheVersion}
			if e.tracer != nil {
				r.plane = &timedPlane{next: p, tr: e.tracer, label: e.label}
				p = r.plane
			}
			cfg.Plane = p
		}
		r.broker = queue.New(cfg)
		handler = remote.NewBrokerServer(r.broker, "dlbench-broker")
		if store != nil {
			mux := http.NewServeMux()
			resultplane.NewServer(store, "dlbench-broker").Routes(mux)
			mux.Handle("/", handler)
			handler = mux
		}
	}
	if r.routes != nil {
		handler = r.routes.wrap(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r.srv = &http.Server{Handler: handler}
	go r.srv.Serve(ln)
	addr := ln.Addr().String()

	var exec engine.Executor
	if r.mode == "push" {
		re, err := remote.Dial(ctx, []string{addr}, remote.Options{Client: r.client()})
		if err != nil {
			return nil, err
		}
		exec = re
	} else {
		local := engine.NewNamedLocalExecutor(r.reg, "dlbench-worker")
		var wexec engine.Executor = local
		if e.tracer != nil {
			r.wexec = &workerExec{next: local, tr: e.tracer, label: e.label}
			wexec = r.wexec
		}
		if e.wrapWorker != nil {
			wexec = e.wrapWorker(wexec)
		}
		worker := remote.NewPullWorker(addr, r.reg, remote.WorkerOptions{
			Name: "dlbench-worker", Capacity: workers, Client: r.client(), Executor: wexec,
		})
		wctx, stop := context.WithCancel(context.Background())
		r.stopWorker, r.workerDone = stop, make(chan error, 1)
		go func() { r.workerDone <- worker.Run(wctx) }()
		qe, err := remote.DialQueue(ctx, addr, remote.QueueOptions{Client: r.client()})
		if err != nil {
			return nil, err
		}
		exec = qe
	}
	r.timer = newTaskTimer(exec, e)
	if r.wexec != nil {
		r.wexec.timer = r.timer
	}

	// The reference run also fills the plane: its cache writes every
	// computed task through to the plane over HTTP, under exactly the
	// keys the plane passes then submit.
	var cache *engine.Cache
	if store != nil {
		pc := resultplane.NewClient("http://"+addr, experiments.CacheVersion)
		pc.HTTPClient = r.client()
		cache = engine.NewCache()
		cache.SetRemote(&resultplane.EngineCache{C: pc})
	}
	rep, err := engine.Run(r.reg, engine.Options{
		Workers: workers, Filter: r.filter, BaseSeed: r.refBase, Cache: cache, Ctx: ctx,
	})
	if err != nil {
		return nil, err
	}
	if err := rep.Err(); err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	if r.ref, err = normalise(rep); err != nil {
		return nil, err
	}
	// Per-layer counts cover the passes, not the setup traffic (the
	// plane fill, the worker's registration).
	if r.routes != nil {
		r.routes.mu.Lock()
		r.routes.ms = nil
		r.routes.mu.Unlock()
	}
	if r.plane != nil {
		r.plane.mu.Lock()
		r.plane.us, r.plane.hits = nil, 0
		r.plane.mu.Unlock()
	}
	r.counts0 = r.brokerCounts()
	return r, nil
}

// client returns a fresh HTTP client with its own connection pool.
func (r *queueRig) client() *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	r.transports = append(r.transports, t)
	return &http.Client{Transport: t}
}

// base is pass i's scheduler base seed.
func (r *queueRig) base(i int) uint64 {
	if r.mode == "plane" {
		return r.refBase
	}
	return passSeed(r.refBase, i+1)
}

func (r *queueRig) pass(ctx context.Context, i int) passResult {
	base := r.base(i)
	r.timer.begin(i, nil)
	res, norm := runJobs(ctx, r.reg, r.filter, base, r.timer)
	if res.failed > 0 {
		return res
	}
	want := reseed(r.ref, base)
	for j, n := range norm {
		if j >= len(want) || !sameResult(n, want[j]) {
			res.failed++
			msg := n.Name + ": report differs from the in-process reference"
			if n.Err != "" {
				msg = n.Name + ": " + n.Err
			}
			res.failures = append(res.failures, msg)
		}
	}
	return res
}

// close stops the worker, then the clients and server, then the journal.
func (r *queueRig) close() {
	if r.stopWorker != nil {
		r.stopWorker()
		<-r.workerDone
	}
	// Close the clients' idle connections first: the server's Shutdown
	// waits up to five seconds on a connection that never sent a request.
	for _, t := range r.transports {
		t.CloseIdleConnections()
	}
	if r.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := r.srv.Shutdown(ctx); err != nil {
			r.srv.Close()
		}
		cancel()
	}
	if r.journal != nil {
		r.journal.Close()
	}
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
}

// brokerCounts snapshots the broker counters the per-layer metrics use:
// journal appends, journal fsyncs and plane hits.
type brokerCounts struct{ appends, fsyncs, planeHits int }

func (r *queueRig) brokerCounts() brokerCounts {
	if r.broker == nil {
		return brokerCounts{}
	}
	m := r.broker.Metrics()
	c := brokerCounts{planeHits: m.PlaneHits}
	if m.Journal != nil {
		c.appends, c.fsyncs = m.Journal.Appends, m.Journal.Fsyncs
	}
	return c
}

// layers derives the per-layer metrics of the traced passes: request
// counts and server time per route, per-task queue phases, journal and
// lease counts per task, and plane lookups.
func (r *queueRig) layers(passes []passResult) metrics {
	m := engineLayers(passes)
	tasks := 0
	for _, p := range passes {
		tasks += len(p.taskMS)
	}
	if tasks == 0 || r.routes == nil {
		return m
	}
	perTask := func(name string, count int, n int) {
		m.set(name, "1/task", float64(count)/float64(tasks), n)
	}
	routes := r.routes.snapshot()
	requests := 0
	for _, d := range routes {
		requests += len(d)
	}
	perTask("remote.requests_per_task", requests, tasks)
	if r.mode == "push" {
		// Push has no broker: a task's latency is its whole round trip.
		var lat []float64
		for _, p := range passes {
			lat = append(lat, p.taskMS...)
		}
		m.set("remote.push_task_ms", "ms", median(lat), len(lat))
		return m
	}
	sub := routes[remote.SubmitBatchPath]
	m.set("remote.submit_batch_size", "task/req", float64(tasks)/float64(len(sub)), len(sub))
	for name, path := range map[string]string{
		"remote.submit_ms": remote.SubmitBatchPath, "remote.done_ms": remote.DonePath,
		"remote.poll_wait_ms": remote.PollPath, "remote.status_wait_ms": remote.JobStatusPath,
	} {
		m.set(name, "ms", median(routes[path]), len(routes[path]))
	}
	c := r.brokerCounts()
	perTask("queue.journal_appends_per_task", c.appends-r.counts0.appends, tasks)
	perTask("queue.journal_fsyncs_per_task", c.fsyncs-r.counts0.fsyncs, tasks)

	execs, wait, run, ret := r.wexec.phases(r.timer)
	perTask("queue.leases_per_task", execs, tasks)
	p50, _ := percentile(wait, 50)
	p99, _ := percentile(wait, 99)
	m.set("queue.wait_ms_p50", "ms", p50, len(wait))
	m.set("queue.wait_ms_p99", "ms", p99, len(wait))
	m.set("queue.exec_ms", "ms", median(run), len(run))
	m.set("queue.return_ms", "ms", median(ret), len(ret))

	if r.plane != nil {
		lookups, hitCount := r.plane.snapshot()
		m.set("resultplane.lookup_us", "us", median(lookups), len(lookups))
		m.set("resultplane.hit_frac", "ratio", float64(hitCount)/float64(len(lookups)), len(lookups))
		m.set("queue.plane_hits_frac", "ratio", float64(c.planeHits-r.counts0.planeHits)/float64(tasks), tasks)
	}
	return m
}

// routeStats wraps an HTTP handler, timing every request per route.
type routeStats struct {
	tr    *tracer
	label string
	mu    sync.Mutex
	ms    map[string][]float64
}

func (rs *routeStats) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		track, release := rs.tr.slot(rs.label + " server")
		start := time.Now()
		h.ServeHTTP(w, req)
		end := time.Now()
		release()
		path := req.URL.Path
		layer := "remote"
		if strings.HasPrefix(path, "/v3/") {
			layer = "resultplane"
		}
		name := layer + "." + path[strings.LastIndexByte(path, '/')+1:]
		id := req.URL.Query().Get("id")
		if id == "" {
			id = path
		}
		rs.tr.add(name, rs.label+"/"+id, track, "", start, end)
		rs.mu.Lock()
		if rs.ms == nil {
			rs.ms = make(map[string][]float64)
		}
		rs.ms[path] = append(rs.ms[path], float64(end.Sub(start).Nanoseconds())/1e6)
		rs.mu.Unlock()
	})
}

func (rs *routeStats) snapshot() map[string][]float64 {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make(map[string][]float64, len(rs.ms))
	for k, v := range rs.ms {
		out[k] = append([]float64(nil), v...)
	}
	return out
}

// workerExec wraps the pull worker's executor: every lease it runs is a
// queue.exec span under the scheduler's engine.task span for the task.
type workerExec struct {
	next  *engine.LocalExecutor
	tr    *tracer
	label string
	timer *taskTimer
	mu    sync.Mutex
	runs  map[string][2]time.Time
	execs int
}

func (w *workerExec) Execute(ctx context.Context, spec api.TaskSpec) (api.TaskResult, error) {
	return w.ExecuteStream(ctx, spec, nil)
}

func (w *workerExec) ExecuteStream(ctx context.Context, spec api.TaskSpec, onProgress engine.ProgressFunc) (api.TaskResult, error) {
	id := w.timer.id(spec)
	track, release := w.tr.slot(w.label + " worker")
	start := time.Now()
	res, err := w.next.ExecuteStream(ctx, spec, onProgress)
	end := time.Now()
	release()
	w.tr.add("queue.exec", id, track, "engine.task", start, end)
	w.mu.Lock()
	if w.runs == nil {
		w.runs = make(map[string][2]time.Time)
	}
	w.runs[id] = [2]time.Time{start, end}
	w.execs++
	w.mu.Unlock()
	return res, err
}

// phases joins the worker's executions with the scheduler's task spans:
// wait is scheduler start to worker start, run the execution, ret worker
// end to scheduler return (all ms).
func (w *workerExec) phases(t *taskTimer) (execs int, wait, run, ret []float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	for id, wr := range w.runs {
		s, ok := t.spans[id]
		if !ok {
			continue
		}
		wait = append(wait, ms(wr[0].Sub(s[0])))
		run = append(run, ms(wr[1].Sub(wr[0])))
		ret = append(ret, ms(s[1].Sub(wr[1])))
	}
	return w.execs, wait, run, ret
}

// timedPlane wraps the broker's result-plane seam, timing lookups.
type timedPlane struct {
	next  queue.ResultPlane
	tr    *tracer
	label string
	mu    sync.Mutex
	us    []float64
	hits  int
}

func (p *timedPlane) Lookup(ctx context.Context, key string) (api.CachedResult, bool) {
	start := time.Now()
	cr, ok := p.next.Lookup(ctx, key)
	end := time.Now()
	p.tr.add("resultplane.lookup", p.label+"/"+key, p.label+" plane", "", start, end)
	p.mu.Lock()
	p.us = append(p.us, float64(end.Sub(start).Nanoseconds())/1e3)
	if ok {
		p.hits++
	}
	p.mu.Unlock()
	return cr, ok
}

func (p *timedPlane) snapshot() ([]float64, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]float64(nil), p.us...), p.hits
}
