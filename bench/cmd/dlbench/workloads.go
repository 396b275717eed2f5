package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sync"
	"syscall"
	"time"

	"repro/internal/api"
	"repro/internal/engine"
)

// workers is the scheduler's worker count and the pull worker's
// capacity: the CLI default, one per CPU. Every caller waits for its
// result, so at most this many tasks are in flight (a closed loop).
var workers = runtime.NumCPU()

// setupReps is how many child processes a run launches to time set-up;
// setup_s is the median. A set-up takes milliseconds, so process-launch
// jitter is a large share of one; the median of many is steady.
const setupReps = 21

// probeSeconds is how long a traced run drives each queue probe.
const probeSeconds = 2.0

// workload is one set of inputs the benchmark runs. Why each was chosen
// is recorded in BENCHMARK.json and bench/README.md.
type workload struct {
	name string
	// exps are the tiny-preset experiments a pass runs.
	exps []string
	// mode is the execution path: "compute" runs the jobs in process on
	// the engine's worker pool, as the CLI does; "lease", "plane" and
	// "push" send them through a loopback broker, a broker that
	// co-hosts a result plane, or a push worker.
	mode string
}

var modelFree = []string{"fig1b", "mc", "table1", "fig7a", "fig7b", "defense"}

// workloads is the catalogue, in the order a full set runs them.
var workloads = []workload{
	{name: "resnet-suite", exps: []string{"fig8a", "fig8pta", "perf", "table2"}, mode: "compute"},
	{name: "vgg-single", exps: []string{"fig8b"}, mode: "compute"},
	{name: "queue-lease", exps: modelFree, mode: "lease"},
	{name: "queue-plane", exps: modelFree, mode: "plane"},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// freshHeap reports whether each pass stands for a process of its own
// (see measure).
func (w workload) freshHeap() bool { return w.mode == "compute" }

// filter turns experiment ids into engine job filters.
func (w workload) filter() []string {
	out := make([]string, len(w.exps))
	for i, e := range w.exps {
		out[i] = "tiny/" + e
	}
	return out
}

// env is what a rig is built from.
type env struct {
	seed   uint64
	tmpDir string
	golden *golden
	// tracer, when set, records spans; the rig then also installs the
	// layer wrappers the per-layer metrics read.
	tracer *tracer
	label  string // prefixes span ids and tracks
	// wrapWorker, when set, wraps the pull worker's executor (tests
	// inject faults through it).
	wrapWorker func(engine.Executor) engine.Executor
}

// rig is a built workload, ready to run passes.
type rig interface {
	// pass runs pass i; passes are sequential.
	pass(ctx context.Context, i int) passResult
	// layers derives per-layer metrics from the passes run so far (traced
	// rigs only).
	layers(passes []passResult) metrics
	close()
}

func setupRig(ctx context.Context, w workload, e env) (rig, error) {
	if w.mode == "compute" {
		return newComputeRig(w, e), nil
	}
	return newQueueRig(ctx, w, e)
}

// passResult is what one pass did.
type passResult struct {
	wall, cpu time.Duration
	// taskMS holds every task's latency as its scheduler saw it.
	taskMS    []float64
	attempted int
	failed    int
	failures  []string
	// results is pass 0's normalised report (the probe compares against
	// it); later passes drop theirs, so the benchmark's own bookkeeping
	// does not grow the heap it measures.
	results []normResult
	digests map[string]string // compute passes: goldenKey -> digest
	// peakHeap is the largest live heap (bytes) a GC marked during the
	// pass.
	peakHeap uint64
}

// fail marks the whole pass as one failed operation.
func (p *passResult) fail(err error) {
	p.attempted, p.failed, p.failures = 1, 1, []string{err.Error()}
}

// runJobs runs one pass of a rig's jobs through its scheduler-side timer
// and normalises the report; a run that could not report fails the pass.
func runJobs(ctx context.Context, reg *engine.Registry, filter []string, base uint64, timer *taskTimer) (passResult, []normResult) {
	rep, err := engine.Run(reg, engine.Options{
		Workers: workers, Filter: filter, BaseSeed: base, Executor: timer, Ctx: ctx,
	})
	res := passResult{taskMS: timer.drain()}
	var norm []normResult
	if err == nil {
		norm, err = normalise(rep)
	}
	if err != nil {
		res.fail(err)
		return res, nil
	}
	res.results, res.attempted = norm, len(norm)
	return res, norm
}

// measure runs passes until seconds have elapsed (at least one). A
// compute pass stands for one CLI invocation, so with freshHeap
// every pass starts from a collected heap; the queue workloads' broker
// and worker are long-lived daemons whose heap carries over.
func measure(ctx context.Context, r rig, seconds float64, freshHeap bool) ([]passResult, error) {
	var passes []passResult
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < seconds; i++ {
		if err := ctx.Err(); err != nil {
			return passes, err
		}
		if freshHeap {
			debug.FreeOSMemory()
		}
		heap := watchLiveHeap()
		cpu0, t0 := cpuTime(), time.Now()
		p := r.pass(ctx, i)
		p.wall, p.cpu = time.Since(t0), cpuTime()-cpu0
		p.peakHeap = heap()
		if i > 0 {
			p.results = nil
		}
		passes = append(passes, p)
	}
	return passes, ctx.Err()
}

// heapSampleEvery is how often watchLiveHeap reads the live heap.
const heapSampleEvery = 10 * time.Millisecond

// watchLiveHeap samples the live heap that the latest GC marked until the
// returned function is called, which stops the sampler and returns the
// largest value seen. The live heap is what the program holds; resident
// memory adds the garbage that GC pacing lets pile up between cycles,
// which makes its peak swing from run to run on the same inputs.
func watchLiveHeap() (stop func() uint64) {
	sample := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() uint64 {
		rtmetrics.Read(sample)
		return sample[0].Value.Uint64()
	}
	done := make(chan struct{})
	peak := make(chan uint64)
	go func() {
		mx := read()
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				mx = max(mx, read())
			case <-done:
				peak <- max(mx, read())
				return
			}
		}
	}()
	return func() uint64 {
		close(done)
		return <-peak
	}
}

// cpuTime is the process's user+system CPU time so far. The whole system
// under test (scheduler, broker, worker) runs in this process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// metric is one named measurement. N is the sample count behind it;
// Source names where a per-layer value came from.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n,omitempty"`
	Source string  `json:"source,omitempty"`
	Note   string  `json:"note,omitempty"`
}

type metrics map[string]metric

// set stores a metric unless it has no samples or no finite value.
func (m metrics) set(name, unit string, v float64, n int) {
	if n > 0 && !math.IsNaN(v) && !math.IsInf(v, 0) {
		m[name] = metric{Value: v, Unit: unit, N: n}
	}
}

// endToEnd derives the end-to-end metrics of an untraced run's passes
// (all but setup_s, which the parent process measures).
func endToEnd(passes []passResult) metrics {
	var lat []float64
	var wall time.Duration
	for _, p := range passes {
		lat = append(lat, p.taskMS...)
		wall += p.wall
	}
	m := metrics{}
	m.set("wall_s", "s", median(passWalls(passes)), len(passes))
	m.set("tasks_per_s", "1/s", float64(len(lat))/wall.Seconds(), len(lat))
	return m
}

// untracedLayers derives, from a traced run's untraced passes, the
// metrics that vary between identical runs by more than a bound could
// absorb (README.md, Measured noise), so they are per-layer rather than
// end-to-end: task latency percentiles as the scheduler sees them, the
// process's CPU time and its peak live heap.
func untracedLayers(passes []passResult) metrics {
	var cpus, lat []float64
	var cpu time.Duration
	var peak uint64
	for _, p := range passes {
		cpus = append(cpus, p.cpu.Seconds())
		lat = append(lat, p.taskMS...)
		cpu += p.cpu
		peak = max(peak, p.peakHeap)
	}
	m := metrics{}
	m.set("engine.task_p50_ms", "ms", median(lat), len(lat))
	p99, beyond := percentile(lat, 99)
	m.set("engine.task_p99_ms", "ms", p99, len(lat))
	if beyond < minBeyond {
		tp, tv, _ := highestTail(lat)
		mt := m["engine.task_p99_ms"]
		mt.Note = fmt.Sprintf("only %d of %d tasks beyond p99; highest resolved tail is p%g = %.4g ms", beyond, len(lat), tp, tv)
		m["engine.task_p99_ms"] = mt
	}
	m.set("runtime.cpu_s", "s", median(cpus), len(cpus))
	m.set("runtime.cpu_ms_per_task", "ms", cpu.Seconds()*1e3/float64(len(lat)), len(lat))
	if peak > 0 {
		m.set("runtime.peak_heap_mb", "MB", float64(peak)/(1<<20), len(passes))
	}
	return m
}

// taskTimer wraps the scheduler's executor. It times every task (the
// end-to-end task latency); when tracing it also records an engine.task
// span per task, keeps each task's start and end for joining with the
// worker's spans, and turns training heartbeats into experiments.train
// spans.
type taskTimer struct {
	next  engine.Executor
	tr    *tracer
	label string

	mu    sync.Mutex
	pass  int
	lat   []float64
	spans map[string][2]time.Time
	train trainLog
}

// trainLog accumulates the victims trained and their estimated time.
type trainLog struct {
	victims int
	total   time.Duration
}

func newTaskTimer(next engine.Executor, e env) *taskTimer {
	return &taskTimer{next: next, tr: e.tracer, label: e.label, spans: make(map[string][2]time.Time)}
}

// begin starts pass i; next, when non-nil, replaces the wrapped executor.
func (t *taskTimer) begin(i int, next engine.Executor) {
	t.mu.Lock()
	t.pass = i
	if next != nil {
		t.next = next
	}
	t.mu.Unlock()
}

// id names a task uniquely within a run: rig label, pass, cache key.
func (t *taskTimer) id(spec api.TaskSpec) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return fmt.Sprintf("%s/p%d/%s", t.label, t.pass, spec.CacheKey)
}

// Execute implements engine.Executor.
func (t *taskTimer) Execute(ctx context.Context, spec api.TaskSpec) (api.TaskResult, error) {
	id := t.id(spec)
	track, release := t.tr.slot(t.label + " scheduler")
	defer release()
	start := time.Now()
	var res api.TaskResult
	var err error
	// Only the in-process executor takes the progress callback: handing
	// one to the push client would switch it to its streaming transport.
	if le, ok := t.next.(*engine.LocalExecutor); ok && t.tr != nil {
		res, err = le.ExecuteStream(ctx, spec, t.heartbeats(id, track, start))
	} else {
		res, err = t.next.Execute(ctx, spec)
	}
	end := time.Now()
	t.tr.add("engine.task", id, track, "", start, end)
	t.mu.Lock()
	t.lat = append(t.lat, float64(end.Sub(start).Nanoseconds())/1e6)
	if t.tr != nil {
		t.spans[id] = [2]time.Time{start, end}
	}
	t.mu.Unlock()
	return res, err
}

// heartbeats returns the progress callback for one task. A victim's
// training reports each finished epoch; the executor throttles
// heartbeats but always forwards the last epoch. A victim's training
// time is extrapolated from the first epoch seen to the last:
// (last - first) * total / (total - firstDone); when only the last epoch
// arrives, the time since the previous victim ended (or the task began)
// stands in.
func (t *taskTimer) heartbeats(id, track string, start time.Time) engine.ProgressFunc {
	var first time.Time
	var firstDone int
	prevEnd := start
	return func(p api.TaskProgress) {
		if p.Stage != "train" || p.Total <= 0 {
			return
		}
		now := time.Now()
		if first.IsZero() {
			first, firstDone = now, p.Done
		}
		if p.Done < p.Total {
			return
		}
		est := now.Sub(prevEnd)
		if firstDone < p.Total {
			est = now.Sub(first) * time.Duration(p.Total) / time.Duration(p.Total-firstDone)
		}
		t.tr.add("experiments.train", id, track, "engine.task", now.Add(-est), now)
		t.mu.Lock()
		t.train.victims++
		t.train.total += est
		t.mu.Unlock()
		first, prevEnd = time.Time{}, now
	}
}

// drain returns and resets the latencies recorded since the last call.
func (t *taskTimer) drain() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	lat := t.lat
	t.lat = nil
	return lat
}

// engineLayers derives the engine's per-layer metrics: tasks per pass,
// worker busy and idle time, and the slowest task.
func engineLayers(passes []passResult) metrics {
	var tasks, busy, idle, maxTask []float64
	for _, p := range passes {
		var b, mx float64
		for _, ms := range p.taskMS {
			b += ms / 1e3
			mx = max(mx, ms/1e3)
		}
		tasks = append(tasks, float64(len(p.taskMS)))
		busy = append(busy, b)
		idle = append(idle, float64(min(workers, len(p.taskMS)))*p.wall.Seconds()-b)
		maxTask = append(maxTask, mx)
	}
	m := metrics{}
	m.set("engine.tasks", "count", median(tasks), len(passes))
	m.set("engine.busy_s", "s", median(busy), len(passes))
	m.set("engine.idle_s", "s", median(idle), len(passes))
	m.set("engine.task_max_s", "s", median(maxTask), len(passes))
	return m
}

// layerSource is one set of per-layer measurements and where they came
// from.
type layerSource struct {
	label string
	m     metrics
}

// mergeLayers takes each metric from the first source that measured it:
// the workload's own traced passes first, then the probes.
func mergeLayers(sources ...layerSource) metrics {
	out := metrics{}
	for _, src := range sources {
		for name, v := range src.m {
			if _, ok := out[name]; !ok && v.N > 0 {
				v.Source = src.label
				out[name] = v
			}
		}
	}
	return out
}

// passWalls lists the passes' wall times in seconds.
func passWalls(passes []passResult) []float64 {
	walls := make([]float64, len(passes))
	for i, p := range passes {
		walls[i] = p.wall.Seconds()
	}
	return walls
}

// totals sums attempted and failed operations and collects the distinct
// failure messages.
func totals(passes []passResult) (attempted, failed int, failures []string) {
	seen := make(map[string]bool)
	for _, p := range passes {
		attempted += p.attempted
		failed += p.failed
		for _, f := range p.failures {
			if !seen[f] {
				seen[f] = true
				failures = append(failures, f)
			}
		}
	}
	return attempted, failed, failures
}

// digests collects the passes' job digests.
func digests(passes []passResult) map[string]string {
	var out map[string]string
	for _, p := range passes {
		for k, d := range p.digests {
			if out == nil {
				out = make(map[string]string)
			}
			out[k] = d
		}
	}
	return out
}
