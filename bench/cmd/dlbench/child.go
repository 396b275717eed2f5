package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"repro/internal/experiments"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of the system sees; every untraced run
// reports all of them.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"tasks_per_s", "1/s"},
}

// perLayerMetrics are the single-layer metrics every traced run reports,
// grouped by the layer they measure.
var perLayerMetrics = []metricDef{
	{"runtime.cpu_s", "s"},
	{"runtime.cpu_ms_per_task", "ms"},
	{"runtime.peak_heap_mb", "MB"},
	{"experiments.victims_trained", "count"},
	{"experiments.train_s", "s"},
	{"dataset.generate_s", "s"},
	{"nn.fit_s", "s"},
	{"nn.fit_epoch_s", "s"},
	{"quant.quantize_s", "s"},
	{"nn.evaluate_s", "s"},
	{"tensor.gemm_gflops_serial", "GFLOP/s"},
	{"tensor.gemm_gflops_par", "GFLOP/s"},
	{"attack.bfa_undefended_s", "s"},
	{"attack.bfa_defended_s", "s"},
	{"attack.bfa_iter_ms", "ms"},
	{"attack.collapse_s", "s"},
	{"attack.flips_landed", "count"},
	{"attack.flips_denied", "count"},
	{"sim.build_system_s", "s"},
	{"trace.replay_s", "s"},
	{"trace.requests", "count"},
	{"trace.replay_ns_per_req", "ns"},
	{"engine.tasks", "count"},
	{"engine.busy_s", "s"},
	{"engine.idle_s", "s"},
	{"engine.task_max_s", "s"},
	{"engine.task_p50_ms", "ms"},
	{"engine.task_p99_ms", "ms"},
	{"remote.requests_per_task", "1/task"},
	{"remote.submit_batch_size", "task/req"},
	{"remote.submit_ms", "ms"},
	{"remote.done_ms", "ms"},
	{"remote.poll_wait_ms", "ms"},
	{"remote.status_wait_ms", "ms"},
	{"remote.push_task_ms", "ms"},
	{"queue.wait_ms_p50", "ms"},
	{"queue.wait_ms_p99", "ms"},
	{"queue.exec_ms", "ms"},
	{"queue.return_ms", "ms"},
	{"queue.journal_appends_per_task", "1/task"},
	{"queue.journal_fsyncs_per_task", "1/task"},
	{"queue.leases_per_task", "1/task"},
	{"resultplane.lookup_us", "us"},
	{"resultplane.hit_frac", "ratio"},
	{"queue.plane_hits_frac", "ratio"},
	{"bench.trace_overhead_frac", "ratio"},
}

// runChild runs one workload in this process.
func runChild(ctx context.Context, cfg config) (runResult, error) {
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return runResult{}, err
	}
	res := runResult{Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace}
	gold, err := loadGolden(cfg.golden)
	if err != nil {
		return res, err
	}
	tmp := filepath.Join(cfg.out, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return res, err
	}
	e := env{seed: cfg.seed, tmpDir: tmp, golden: gold, label: w.name}
	r, err := setupRig(ctx, w, e)
	if err != nil {
		return res, fmt.Errorf("setup: %w", err)
	}
	signalReady()
	if cfg.setupOnly {
		r.close()
		return res, nil
	}
	passes, err := measure(ctx, r, cfg.seconds, w.freshHeap())
	r.close()
	if err != nil {
		return res, err
	}
	if cfg.trace {
		return runTraced(ctx, cfg, w, e, res, passes)
	}
	res.Passes, res.Digests = len(passes), digests(passes)
	res.Attempted, res.Failed, res.Failures = totals(passes)
	res.Metrics = endToEnd(passes)
	return res, nil
}

// runTraced takes the untraced passes already measured (the source of
// the task-latency, CPU and heap metrics), measures the workload again
// with spans at every layer boundary, then runs the probes for the
// layers the workload does not exercise. It writes the Chrome trace and
// the per-layer self times next to results.json.
func runTraced(ctx context.Context, cfg config, w workload, e env, res runResult, plain []passResult) (runResult, error) {
	tr := newTracer()
	e.tracer = tr
	r, err := setupRig(ctx, w, e)
	if err != nil {
		return res, fmt.Errorf("traced setup: %w", err)
	}
	passes, err := measure(ctx, r, cfg.seconds, w.freshHeap())
	own := r.layers(passes)
	r.close()
	if err != nil {
		return res, err
	}
	all := slices.Concat(plain, passes)
	res.Passes, res.Digests = len(passes), digests(all)
	res.Attempted, res.Failed, res.Failures = totals(all)
	sources := []layerSource{{"untraced", untracedLayers(plain)}, {w.name, own}}

	arch := experiments.ArchResNet20
	if w.name == "vgg-single" {
		arch = experiments.ArchVGG11
	}
	pm, chk, err := probeVictim(ctx, arch, cfg.seed, tr, payloadsByName(passes[0].results))
	if err != nil {
		return res, fmt.Errorf("probe: %w", err)
	}
	res.Attempted += chk.attempted
	res.Failed += chk.failed
	res.Failures = append(res.Failures, chk.failures...)
	sources = append(sources, layerSource{"probe-" + string(arch), pm})

	for _, mode := range []string{"lease", "plane", "push"} {
		if mode == w.mode {
			continue
		}
		pw := workload{name: "probe-" + mode, exps: modelFree, mode: mode}
		pe := e
		pe.label = pw.name
		q, err := setupRig(ctx, pw, pe)
		if err != nil {
			return res, fmt.Errorf("%s setup: %w", pw.name, err)
		}
		qp, err := measure(ctx, q, probeSeconds, false)
		sources = append(sources, layerSource{pw.name, q.layers(qp)})
		q.close()
		if err != nil {
			return res, err
		}
		a, f, fs := totals(qp)
		res.Attempted, res.Failed, res.Failures = res.Attempted+a, res.Failed+f, append(res.Failures, fs...)
	}

	res.Metrics = mergeLayers(sources...)
	res.Metrics.set("bench.trace_overhead_frac", "ratio", median(passWalls(passes))/median(passWalls(plain))-1, len(passes))
	if err := writeTrace(cfg.out, w.name, tr.snapshot()); err != nil {
		return res, err
	}
	return res, nil
}

// writeTrace writes <workload>.trace.json (Chrome trace events) and
// <workload>.selftime.json (seconds of self time per rig and span name).
func writeTrace(dir, name string, spans []span) error {
	f, err := os.Create(filepath.Join(dir, name+".trace.json"))
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	// Group by rig (the span id's first segment) so the workload's own
	// spans and each probe's are summed apart.
	byRig := make(map[string][]span)
	for _, s := range spans {
		label, _, _ := strings.Cut(s.ID, "/")
		byRig[label] = append(byRig[label], s)
	}
	self := make(map[string]map[string]float64)
	for label, group := range byRig {
		self[label] = make(map[string]float64)
		for k, d := range selfTimes(group) {
			self[label][k] = d.Seconds()
		}
	}
	b, err := json.MarshalIndent(self, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".selftime.json"), append(b, '\n'), 0o644)
}
