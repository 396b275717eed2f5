// Command tracegen generates, inspects and replays memory traces through
// the DRAM-Locker controller — the reproduction's gem5-style workload
// stage.
//
// Usage:
//
//	tracegen -mode gen -out trace.txt        # DNN inference + attack trace
//	tracegen -mode replay -in trace.txt      # replay undefended vs defended
//	tracegen -mode replay -in trace.txt -defend=false
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/memmap"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/trace"
)

func main() {
	mode := flag.String("mode", "gen", "gen | replay")
	in := flag.String("in", "", "input trace file (replay)")
	out := flag.String("out", "", "output trace file (gen); stdout if empty")
	passes := flag.Int("passes", 2, "inference passes to generate")
	hammers := flag.Int("hammers", 1200, "attacker hammer attempts per aggressor")
	defend := flag.Bool("defend", true, "enable DRAM-Locker during replay")
	flag.Parse()

	if err := run(*mode, *in, *out, *passes, *hammers, *defend); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// buildSystem assembles the default system with a small quantized model
// placed in DRAM, shared by both modes so generated traces replay cleanly.
func buildSystem(defend bool) (*core.System, *memmap.Layout, error) {
	sys, err := core.NewSystem(core.DefaultConfig())
	if err != nil {
		return nil, nil, err
	}
	qm := quant.NewModel(nn.NewResNet20(10, 0.25, 7))
	layout, err := memmap.New(qm, sys.Device(), sys.Controller().IsReserved)
	if err != nil {
		return nil, nil, err
	}
	if defend {
		if _, err := sys.ProtectWeights(layout); err != nil {
			return nil, nil, err
		}
	}
	return sys, layout, nil
}

func run(mode, in, out string, passes, hammers int, defend bool) error {
	switch mode {
	case "gen":
		sys, layout, err := buildSystem(false)
		if err != nil {
			return err
		}
		legit := &trace.Trace{}
		for p := 0; p < passes; p++ {
			if err := trace.InferencePass(legit, layout, 64); err != nil {
				return err
			}
		}
		attackT := &trace.Trace{}
		victim := layout.WeightRows()[0]
		for _, agg := range sys.Device().Geometry().Neighbors(victim, 1) {
			trace.HammerBurst(attackT, agg, hammers)
		}
		mixed := trace.Interleave(legit, attackT, 8, 4)

		w := os.Stdout
		if out != "" {
			f, err := os.Create(out)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		fmt.Fprintf(w, "# dramlocker trace: %d inference passes, %d hammers/aggressor\n", passes, hammers)
		if _, err := mixed.WriteTo(w); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "generated %d entries\n", mixed.Len())
		return nil

	case "replay":
		if in == "" {
			return fmt.Errorf("tracegen: -mode replay needs -in")
		}
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		tr, err := trace.Parse(f)
		if err != nil {
			return err
		}
		sys, _, err := buildSystem(defend)
		if err != nil {
			return err
		}
		rs, err := trace.Replay(tr, sys.Controller())
		if err != nil {
			return err
		}
		fmt.Printf("replayed %d requests (defend=%v)\n", rs.Requests, defend)
		fmt.Printf("  denied:          %d\n", rs.Denied)
		fmt.Printf("  swaps:           %d\n", rs.Swaps)
		fmt.Printf("  row hit rate:    %.1f%%\n", rs.RowHitRate()*100)
		fmt.Printf("  total latency:   %v\n", rs.TotalLatency)
		fmt.Printf("  victim latency:  %v\n", rs.VictimLatency)
		fmt.Printf("  energy:          %.1f nJ\n", rs.EnergyPJ/1000)
		fmt.Printf("  flips landed:    %d\n", sys.Hammer().TotalFlips())
		return nil

	default:
		return fmt.Errorf("tracegen: unknown mode %q", mode)
	}
}
