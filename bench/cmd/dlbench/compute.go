package main

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/experiments"
)

// computeRig runs a workload's jobs in process on the engine's worker
// pool, as `dramlocker -preset tiny -exp ...` does. Pass i runs the tiny
// preset with its seed set to passSeed(seed, i), so no memo inside the
// process can carry work from one pass to the next.
type computeRig struct {
	w      workload
	seed   uint64
	golden *golden
	timer  *taskTimer
}

func newComputeRig(w workload, e env) *computeRig {
	return &computeRig{w: w, seed: e.seed, golden: e.golden, timer: newTaskTimer(nil, e)}
}

// passSeed derives pass i's seed; pass 0 uses the run's seed itself.
func passSeed(seed uint64, i int) uint64 {
	return seed ^ uint64(i)*0x9e3779b97f4a7c15
}

// tinyPreset is the tiny preset with the workload seed.
func tinyPreset(seed uint64) experiments.Preset {
	p := experiments.Tiny()
	p.Seed = seed
	return p
}

func (r *computeRig) pass(ctx context.Context, i int) passResult {
	p := tinyPreset(passSeed(r.seed, i))
	reg := engine.NewRegistry()
	if err := experiments.RegisterJobs(reg, p); err != nil {
		var res passResult
		res.fail(err)
		return res
	}
	r.timer.begin(i, engine.NewLocalExecutor(reg))
	res, norm := runJobs(ctx, reg, r.w.filter(), 0, r.timer)
	if res.failed > 0 {
		return res
	}
	res.digests = make(map[string]string, len(norm))
	bad := make(map[string]bool)
	for _, n := range norm {
		if n.Err != "" {
			bad[n.Name] = true
			res.failures = append(res.failures, fmt.Sprintf("%s: %s", n.Name, n.Err))
		}
		key, d := goldenKey(n.Name, p.Seed), digest(n)
		res.digests[key] = d
		if want, ok := r.golden.want(key); ok && d != want {
			bad[n.Name] = true
			res.failures = append(res.failures, fmt.Sprintf("%s at seed %d: result differs from bench/golden.json", n.Name, p.Seed))
		}
	}
	for _, v := range invariantViolations(norm) {
		bad[v.job] = true
		res.failures = append(res.failures, v.msg)
	}
	res.failed = len(bad)
	return res
}

// layers reports the engine's metrics and the training the heartbeats
// saw, per pass.
func (r *computeRig) layers(passes []passResult) metrics {
	m := engineLayers(passes)
	r.timer.mu.Lock()
	tl := r.timer.train
	r.timer.mu.Unlock()
	n := float64(len(passes))
	m.set("experiments.victims_trained", "count", float64(tl.victims)/n, tl.victims)
	m.set("experiments.train_s", "s", tl.total.Seconds()/n, tl.victims)
	return m
}

func (r *computeRig) close() {}
