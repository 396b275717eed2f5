package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/attack"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/nn"
	"repro/internal/par"
	"repro/internal/quant"
	"repro/internal/tensor"
	"repro/internal/trace"
)

// probeCheck counts the probe's comparisons against the workload's own
// job payloads.
type probeCheck struct {
	attempted, failed int
	failures          []string
}

func (c *probeCheck) compare(what string, got, want any) {
	c.attempted++
	g, err1 := json.Marshal(got)
	w, err2 := json.Marshal(want)
	if err1 != nil || err2 != nil || string(g) != string(w) {
		c.failed++
		c.failures = append(c.failures, "probe: "+what+" differs from the job's payload")
	}
}

// probeVictim replays a victim's pipeline through the public calls the
// experiments make, one span per layer: generate the dataset, build and
// fit the network, quantize, evaluate, place it in DRAM, attack it
// without and with DRAM-Locker (fig8), attack it to collapse (Table II's
// baseline row), replay the perf trace, and time the network's largest
// convolution GEMM. Where the workload's pass 0 ran the same job at the
// same seed (payloads, keyed by job name), the probe must reproduce its
// numbers exactly.
func probeVictim(ctx context.Context, arch experiments.Arch, seed uint64, tr *tracer, payloads map[string]normResult) (metrics, probeCheck, error) {
	var chk probeCheck
	p := tinyPreset(seed)
	classes := 10
	if arch == experiments.ArchVGG11 {
		classes = 100
	}
	id, track := "probe/"+string(arch), "probe"
	t0 := time.Now()
	timed := func(name, parent string, f func()) time.Duration {
		start := time.Now()
		f()
		end := time.Now()
		tr.add(name, id, track, parent, start, end)
		return end.Sub(start)
	}
	const root = "probe.victim"
	m := metrics{}
	sec := func(name string, d time.Duration) { m.set(name, "s", d.Seconds(), 1) }

	// The dataset, network and training settings TrainVictimCtx derives
	// from the preset.
	var ds *dataset.Dataset
	var err error
	sec("dataset.generate_s", timed("dataset.generate", root, func() {
		ds, err = dataset.Generate(dataset.Config{
			Classes: classes, Size: p.ImageSize, Train: p.TrainN, Test: p.TestN,
			NoiseStd: p.NoiseStd, MaxShift: 1, ProtoRes: p.ImageSize / 4,
			Seed: p.Seed ^ uint64(classes)*0x9e37,
		})
	}))
	if err != nil {
		return nil, chk, err
	}
	net := nn.NewResNet20(classes, p.Width, p.Seed+1)
	if arch == experiments.ArchVGG11 {
		net = nn.NewVGG11(classes, p.Width, p.Seed+2)
	}
	tc := nn.DefaultTrainConfig()
	tc.Epochs, tc.Seed, tc.Stop = p.Epochs, p.Seed+11, ctx.Err
	var epochs []float64
	last := time.Now()
	tc.OnEpoch = func(done, total int) {
		now := time.Now()
		tr.add("nn.fit_epoch", id, track, "nn.fit", last, now)
		epochs = append(epochs, now.Sub(last).Seconds())
		last = now
	}
	fit := timed("nn.fit", root, func() {
		last = time.Now()
		nn.Fit(net, &ds.TrainSplit, tc)
	})
	if err := ctx.Err(); err != nil {
		return nil, chk, err
	}
	sec("nn.fit_s", fit)
	m.set("nn.fit_epoch_s", "s", median(epochs), len(epochs))
	// A workload that trains no victim reports the probe's.
	m.set("experiments.victims_trained", "count", 1, 1)
	sec("experiments.train_s", fit)

	var qm *quant.Model
	sec("quant.quantize_s", timed("quant.quantize", root, func() { qm = quant.NewModelBits(net, 8) }))
	eval := dataset.Subset(&ds.TestSplit, min(p.EvalN, ds.TestSplit.N))
	var clean float64
	sec("nn.evaluate_s", timed("nn.evaluate", root, func() { clean = nn.Evaluate(net, eval, 64) }))
	v := &experiments.Victim{
		Arch: arch, Classes: classes, Net: net, QM: qm, DS: ds, CleanAcc: clean,
		AttackBatch: ds.TestSplit.Slice(0, min(p.AttackBatch, ds.TestSplit.N)), Eval: eval,
	}
	snap := qm.Snapshot()

	var builds []float64
	build := func(protect bool, leak float64) (sys *experiments.DefendedSystem, err error) {
		d := timed("sim.build_system", root, func() { sys, err = experiments.BuildSystem(p, v, protect, leak) })
		builds = append(builds, d.Seconds())
		return sys, err
	}
	bfa := func(name string, sys *experiments.DefendedSystem) (res attack.Result, d time.Duration, err error) {
		cfg := attack.DefaultBFAConfig()
		cfg.Iterations, cfg.CandidatesPerIter, cfg.Stop = p.AttackIters, p.Candidates, ctx.Err
		d = timed(name, root, func() { res, err = attack.BFA(qm, v.AttackBatch, eval, sys.Exec, cfg) })
		qm.Restore(snap)
		return res, d, err
	}
	undefended, err := build(false, 0)
	if err != nil {
		return nil, chk, err
	}
	without, dWithout, err := bfa("attack.bfa_undefended", undefended)
	if err != nil {
		return nil, chk, err
	}
	defended, err := build(true, experiments.Fig8Leak)
	if err != nil {
		return nil, chk, err
	}
	with, dWith, err := bfa("attack.bfa_defended", defended)
	if err != nil {
		return nil, chk, err
	}
	sec("attack.bfa_undefended_s", dWithout)
	sec("attack.bfa_defended_s", dWith)
	iters := len(without.Records) + len(with.Records)
	m.set("attack.bfa_iter_ms", "ms", float64((dWithout+dWith).Nanoseconds())/1e6/float64(iters), iters)
	m.set("attack.flips_landed", "count", float64(with.TotalFlips), 1)
	m.set("attack.flips_denied", "count", float64(with.TotalDenied), 1)
	fig8 := "tiny/fig8a"
	if arch == experiments.ArchVGG11 {
		fig8 = "tiny/fig8b"
	}
	if pl, ok := payloads[fig8]; ok {
		var f experiments.Fig8Result
		if err := json.Unmarshal(pl.Data, &f); err != nil {
			return nil, chk, fmt.Errorf("decode %s: %w", fig8, err)
		}
		chk.compare(fig8+" clean accuracy", clean, f.CleanAcc)
		chk.compare(fig8+" attack without DRAM-Locker", without, f.Without)
		chk.compare(fig8+" attack with DRAM-Locker", with, f.With)
	}

	// Attack to collapse under direct execution, as Table II's baseline.
	t2 := experiments.DefaultTable2Config(p)
	ccfg := attack.DefaultBFAConfig()
	ccfg.CandidatesPerIter, ccfg.Stop = p.Candidates, ctx.Err
	var flips int
	var post float64
	sec("attack.collapse_s", timed("attack.collapse", root, func() {
		flips, post, err = attack.BFAUntilCollapse(qm, v.AttackBatch, eval, &attack.DirectExecutor{QM: qm}, ccfg, t2.CollapseAcc, t2.MaxFlips)
	}))
	qm.Restore(snap)
	if err != nil {
		return nil, chk, err
	}
	if pl, ok := payloads["tiny/table2"]; ok {
		var rows []experiments.Table2Row
		if err := json.Unmarshal(pl.Data, &rows); err != nil {
			return nil, chk, fmt.Errorf("decode tiny/table2: %w", err)
		}
		if base, _, ok := table2Rows(rows); ok {
			chk.compare("table2 baseline collapse", []any{flips, post}, []any{base.BitFlips, base.PostAttackAcc})
		}
	}

	// The perf job's undefended replay: three inference sweeps
	// interleaved with hammer bursts next to the first weight rows.
	sys, err := build(false, 0)
	if err != nil {
		return nil, chk, err
	}
	legit := &trace.Trace{}
	for range 3 {
		if err := trace.InferencePass(legit, sys.Layout, 64); err != nil {
			return nil, chk, err
		}
	}
	hammer := &trace.Trace{}
	geom := sys.Sys.Device().Geometry()
	rows := sys.Layout.WeightRows()
	for _, wr := range rows[:min(4, len(rows))] {
		for _, agg := range geom.Neighbors(wr, 1) {
			trace.HammerBurst(hammer, agg, p.TRH+p.TRH/2)
		}
	}
	mixed := trace.Interleave(legit, hammer, 8, 8)
	var rs trace.ReplayStats
	replay := timed("trace.replay", root, func() { rs, err = trace.Replay(mixed, sys.Sys.Controller()) })
	if err != nil {
		return nil, chk, err
	}
	sec("trace.replay_s", replay)
	m.set("trace.requests", "count", float64(rs.Requests), 1)
	m.set("trace.replay_ns_per_req", "ns", float64(replay.Nanoseconds())/float64(rs.Requests), rs.Requests)
	m.set("sim.build_system_s", "s", median(builds), len(builds))
	if pl, ok := payloads["tiny/perf"]; ok {
		var f experiments.PerfResult
		if err := json.Unmarshal(pl.Data, &f); err != nil {
			return nil, chk, fmt.Errorf("decode tiny/perf: %w", err)
		}
		chk.compare("perf undefended replay", rs, f.Undefended)
	}
	tr.add(root, id, track, "", t0, time.Now())

	for k, v := range probeGEMM(net, tc.BatchSize, p.ImageSize, tr, id) {
		m[k] = v
	}
	return m, chk, nil
}

// gemmShape is one convolution's forward GEMM: (m x k) times (k x n).
type gemmShape struct{ m, k, n int }

func (g gemmShape) flops() float64 { return 2 * float64(g.m) * float64(g.k) * float64(g.n) }

// largestConvGEMM walks the network's convolutions at a training batch
// and returns the forward GEMM with the most multiply-adds.
func largestConvGEMM(net *nn.Model, batch, size int) gemmShape {
	var best gemmShape
	conv := func(c *nn.Conv2D, h, w int) (int, int) {
		oh, ow := tensor.ConvOutDims(h, w, c.Kernel, c.Kernel, c.Stride, c.Pad)
		if g := (gemmShape{batch * oh * ow, c.InC * c.Kernel * c.Kernel, c.OutC}); g.flops() > best.flops() {
			best = g
		}
		return oh, ow
	}
	x := tensor.New(batch, 3, size, size)
	for _, l := range net.Layers {
		if len(x.Shape) == 4 {
			h, w := x.Shape[2], x.Shape[3]
			switch l := l.(type) {
			case *nn.Conv2D:
				conv(l, h, w)
			case *nn.BasicBlock:
				oh, ow := conv(l.Conv1, h, w)
				conv(l.Conv2, oh, ow)
				if l.DownConv != nil {
					conv(l.DownConv, h, w)
				}
			}
		}
		x = l.Forward(x, false)
	}
	return best
}

// probeGEMM measures the forward convolution kernel's throughput at the
// network's largest GEMM, on one core and on every core.
func probeGEMM(net *nn.Model, batch, size int, tr *tracer, id string) metrics {
	g := largestConvGEMM(net, batch, size)
	a, b, c := tensor.New(g.m, g.k), tensor.New(g.n, g.k), tensor.New(g.m, g.n)
	for i := range a.Data {
		a.Data[i] = float32(i%13) * 0.07
	}
	for i := range b.Data {
		b.Data[i] = float32(i%7) * 0.11
	}
	m := metrics{}
	shape := fmt.Sprintf("%dx%dx%d", g.m, g.k, g.n)
	for _, run := range []struct {
		name   string
		budget int
	}{{"tensor.gemm_gflops_serial", 1}, {"tensor.gemm_gflops_par", runtime.NumCPU()}} {
		par.SetBudget(run.budget)
		start := time.Now()
		iters := 0
		for iters == 0 || time.Since(start) < 300*time.Millisecond {
			tensor.MatMulTransBInto(c, a, b)
			iters++
		}
		end := time.Now()
		par.SetBudget(runtime.NumCPU())
		tr.add("tensor.gemm", id, "probe", "", start, end)
		m[run.name] = metric{Value: g.flops() * float64(iters) / end.Sub(start).Seconds() / 1e9,
			Unit: "GFLOP/s", N: iters, Note: "m x k x n = " + shape}
	}
	return m
}

// payloadsByName indexes a pass's results by job name.
func payloadsByName(results []normResult) map[string]normResult {
	out := make(map[string]normResult, len(results))
	for _, r := range results {
		out[r.Name] = r
	}
	return out
}
