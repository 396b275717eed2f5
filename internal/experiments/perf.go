package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/trace"
)

// PerfResult quantifies DRAM-Locker's cost on the legitimate workload —
// the paper's claim that the defense "does not result in extra hardware
// burden" and only adds "a small amount of delay and energy".
type PerfResult struct {
	// Undefended and Defended replay the same mixed trace (DNN inference
	// sweeps interleaved with attacker hammering).
	Undefended, Defended trace.ReplayStats
	// VictimSlowdown is defended/undefended victim latency.
	VictimSlowdown float64
	// AttackerFlips counts disturbance flips landed in each run.
	UndefendedFlips, DefendedFlips int64
}

// Perf builds the mixed workload and replays it on both systems. ctx is
// polled through the victim training, the dominant cost. One victim
// serves both systems: BuildSystem only reads its weights into DRAM, and
// a trace replay never writes DRAM back into the model.
func Perf(ctx context.Context, p Preset) (*PerfResult, error) {
	v, err := victimFor(ctx, p, standardVictim(ArchResNet20, 10))
	if err != nil {
		return nil, err
	}

	run := func(protect bool) (trace.ReplayStats, int64, error) {
		sysb, err := BuildSystem(p, v, protect, 0)
		if err != nil {
			return trace.ReplayStats{}, 0, err
		}
		legit := &trace.Trace{}
		for pass := 0; pass < 3; pass++ {
			if err := trace.InferencePass(legit, sysb.Layout, 64); err != nil {
				return trace.ReplayStats{}, 0, err
			}
		}
		attackT := &trace.Trace{}
		geom := sysb.Sys.Device().Geometry()
		for _, wr := range sysb.Layout.WeightRows()[:min(4, len(sysb.Layout.WeightRows()))] {
			for _, agg := range geom.Neighbors(wr, 1) {
				trace.HammerBurst(attackT, agg, p.TRH+p.TRH/2)
			}
		}
		mixed := trace.Interleave(legit, attackT, 8, 8)
		rs, err := trace.Replay(mixed, sysb.Sys.Controller())
		if err != nil {
			return trace.ReplayStats{}, 0, err
		}
		return rs, sysb.Sys.Hammer().TotalFlips(), nil
	}

	var res PerfResult
	if res.Undefended, res.UndefendedFlips, err = run(false); err != nil {
		return nil, err
	}
	if res.Defended, res.DefendedFlips, err = run(true); err != nil {
		return nil, err
	}
	if res.Undefended.VictimLatency > 0 {
		res.VictimSlowdown = float64(res.Defended.VictimLatency) / float64(res.Undefended.VictimLatency)
	}
	return &res, nil
}

// FormatPerf renders the slowdown report.
func FormatPerf(r *PerfResult) string {
	var b strings.Builder
	b.WriteString("Workload overhead under attack (3 inference passes + hammer bursts)\n")
	fmt.Fprintf(&b, "%-22s %14s %14s\n", "", "undefended", "defended")
	row := func(name string, u, d any) { fmt.Fprintf(&b, "%-22s %14v %14v\n", name, u, d) }
	row("victim latency", r.Undefended.VictimLatency, r.Defended.VictimLatency)
	row("total latency", r.Undefended.TotalLatency, r.Defended.TotalLatency)
	row("denied requests", r.Undefended.Denied, r.Defended.Denied)
	row("disturbance flips", r.UndefendedFlips, r.DefendedFlips)
	row("energy (nJ)", fmt.Sprintf("%.1f", r.Undefended.EnergyPJ/1000),
		fmt.Sprintf("%.1f", r.Defended.EnergyPJ/1000))
	fmt.Fprintf(&b, "victim slowdown: %.4fx\n", r.VictimSlowdown)
	return b.String()
}
