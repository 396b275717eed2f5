package repro

// One benchmark per paper table/figure (the experiment ids of README.md,
// "Running experiments") plus ablation benches for DRAM-Locker's design
// choices. Each per-experiment benchmark runs its registry job — the
// path every report takes — prints the paper-style rows once (so
// `go test -bench=.` regenerates the evaluation) and times the job.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/memmap"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/rowhammer"
)

var benchPreset = experiments.Tiny()

// printOnce guards per-benchmark table output so -benchtime reruns do not
// spam the log.
var printOnce sync.Map

func once(b *testing.B, key, out string) {
	b.Helper()
	if _, done := printOnce.LoadOrStore(key, true); !done {
		b.Logf("\n%s", out)
	}
}

// benchJob times the registry job of one experiment at benchPreset,
// uncached, and prints its table once.
func benchJob(b *testing.B, exp string) {
	b.Helper()
	reg := engine.NewRegistry()
	if err := experiments.RegisterJobs(reg, benchPreset); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := engine.Run(reg, engine.Options{Filter: []string{benchPreset.Name + "/" + exp}})
		if err != nil {
			b.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			b.Fatal(err)
		}
		once(b, exp, rep.Results[0].Text)
	}
}

// --- Fig. 1 -------------------------------------------------------------------

func BenchmarkFig1aTargetedVsRandom(b *testing.B) { benchJob(b, "fig1a") }

func BenchmarkFig1bThresholds(b *testing.B) { benchJob(b, "fig1b") }

// --- §IV.D Monte-Carlo ---------------------------------------------------------

func BenchmarkMonteCarloSwap(b *testing.B) { benchJob(b, "mc") }

func BenchmarkMonteCarloSingleTrial(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := circuit.MonteCarlo(0.2, 100, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table I -------------------------------------------------------------------

func BenchmarkTable1Overhead(b *testing.B) { benchJob(b, "table1") }

// --- Fig. 7 -------------------------------------------------------------------

func BenchmarkFig7aLatency(b *testing.B) { benchJob(b, "fig7a") }

func BenchmarkFig7bDefenseTime(b *testing.B) { benchJob(b, "fig7b") }

// --- Fig. 8 -------------------------------------------------------------------

func BenchmarkFig8aResNet(b *testing.B) { benchJob(b, "fig8a") }

func BenchmarkFig8bVGG(b *testing.B) { benchJob(b, "fig8b") }

func BenchmarkFig8PTA(b *testing.B) { benchJob(b, "fig8pta") }

// --- Table II -----------------------------------------------------------------

func BenchmarkTable2Defenses(b *testing.B) { benchJob(b, "table2") }

// --- Workload overhead ----------------------------------------------------------

func BenchmarkPerfUnderAttack(b *testing.B) { benchJob(b, "perf") }

// --- Micro-benchmarks of the hot primitives -------------------------------------

func newBenchSystem(b *testing.B) *core.System {
	b.Helper()
	sys, err := core.NewSystem(core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

func BenchmarkLockTableLookup(b *testing.B) {
	sys := newBenchSystem(b)
	for r := 1; r < 30; r += 2 {
		sys.ProtectRow(dram.RowAddr{Bank: 0, Row: r})
	}
	tab := sys.Table()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.IsLocked(dram.RowAddr{Bank: 0, Row: i % 60})
	}
}

func BenchmarkSwapOperation(b *testing.B) {
	sys := newBenchSystem(b)
	ctl := sys.Controller()
	row := dram.RowAddr{Bank: 0, Row: 5}
	phys, err := ctl.Mapper().Untranslate(row, 0)
	if err != nil {
		b.Fatal(err)
	}
	ctl.Write(phys, []byte{1})
	ctl.LockRow(row)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ctl.Read(phys, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHammerAttemptDenied(b *testing.B) {
	sys := newBenchSystem(b)
	row := dram.RowAddr{Bank: 0, Row: 5}
	sys.ProtectRow(row)
	ctl := sys.Controller()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ctl.HammerAttempt(row); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRowHammerActivationTracking(b *testing.B) {
	dev, err := dram.NewDevice(dram.SmallGeometry())
	if err != nil {
		b.Fatal(err)
	}
	// A threshold never crossed measures the tracking cost only.
	if _, err := rowhammer.New(dev, 1<<30); err != nil {
		b.Fatal(err)
	}
	row := dram.RowAddr{Bank: 0, Row: 5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev.Activate(row)
		dev.Precharge(row.Bank)
	}
}

func BenchmarkQuantizedInferenceResNet20(b *testing.B) {
	v, err := experiments.TrainVictim(context.Background(), benchPreset,
		experiments.VictimSpec{Arch: experiments.ArchResNet20, Classes: 10, Bits: 8, Width: 1})
	if err != nil {
		b.Fatal(err)
	}
	batch := v.AttackBatch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.SoftmaxLoss(v.QM.Net.Forward(batch.X, false), batch.Y)
	}
}

// --- Ablations -----------------------------------------------------------------

// ablationRun builds a defended system and returns the swaps a fixed
// legitimate workload under attack triggers and the latency those
// privileged reads are charged.
func ablationRun(b *testing.B, lockWeightsThemselves bool) (swaps int64, victimLat dram.Picoseconds) {
	b.Helper()
	ccfg := core.DefaultConfig()
	ccfg.TRH = 40
	sys, err := core.NewSystem(ccfg)
	if err != nil {
		b.Fatal(err)
	}
	qm := quant.NewModel(nn.NewResNet20(4, 0.125, 31))
	layout, err := memmap.New(qm, sys.Device(), sys.Controller().IsReserved)
	if err != nil {
		b.Fatal(err)
	}
	if lockWeightsThemselves {
		for _, wr := range layout.WeightRows() {
			if err := sys.Controller().LockRow(wr); err != nil {
				b.Fatal(err)
			}
		}
	} else {
		if _, err := sys.ProtectWeights(layout); err != nil {
			b.Fatal(err)
		}
	}
	ctl := sys.Controller()

	// Attack stream: hammer first weight row's neighbor.
	victim := layout.WeightRows()[0]
	aggs := sys.Device().Geometry().Neighbors(victim, 1)
	// Legitimate stream: read weights (hits locked rows only when the
	// weights themselves are locked).
	phys, err := layout.PhysOfWeight(0)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		for _, agg := range aggs {
			ctl.HammerAttempt(agg)
		}
		_, resp, err := ctl.Read(phys, 1)
		if err != nil {
			b.Fatal(err)
		}
		victimLat += resp.Latency
	}
	return ctl.Stats().Swaps, victimLat
}

// BenchmarkAblationLockGranularity compares the paper's adjacent-row
// locking against locking the weight rows themselves: the latter forces a
// SWAP on nearly every legitimate access (the paper's §IV-A argument).
func BenchmarkAblationLockGranularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		swapsAdj, latAdj := ablationRun(b, false)
		swapsSelf, latSelf := ablationRun(b, true)
		once(b, "abl-gran", fmt.Sprintf(
			"lock granularity ablation:\n  adjacent-row locking: %d swaps, victim latency %v\n  weight-row locking:   %d swaps, victim latency %v\n  (weight-row locking forces unlock SWAPs, as §IV-A argues)",
			swapsAdj, latAdj, swapsSelf, latSelf))
		if swapsSelf <= swapsAdj || latSelf <= latAdj {
			b.Fatal("weight-row locking should cost more swaps and victim latency")
		}
	}
}

// BenchmarkSimWindow measures end-to-end controller throughput under a
// mixed privileged/attack request stream.
func BenchmarkControllerMixedStream(b *testing.B) {
	sys := newBenchSystem(b)
	ctl := sys.Controller()
	row := dram.RowAddr{Bank: 0, Row: 9}
	phys, err := ctl.Mapper().Untranslate(row, 0)
	if err != nil {
		b.Fatal(err)
	}
	ctl.Write(phys, []byte{1, 2, 3, 4})
	ctl.LockNeighborsOf(phys)
	agg := dram.RowAddr{Bank: 0, Row: 10}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%3 == 0 {
			ctl.HammerAttempt(agg)
		} else {
			if _, _, err := ctl.Read(phys, 4); err != nil {
				b.Fatal(err)
			}
		}
	}
}
