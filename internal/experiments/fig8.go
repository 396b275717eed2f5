package experiments

import (
	"context"
	"fmt"

	"repro/internal/attack"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/memmap"
	"repro/internal/pagetable"
)

// Fig8Leak is the BFA success probability under a defended system at the
// ±20% process corner (paper §IV.D / Fig. 8: 9.6% erroneous SWAPs).
const Fig8Leak = 0.096

// DefendedSystem bundles a victim placed into a full DRAM-Locker stack.
type DefendedSystem struct {
	Sys    *core.System
	Layout *memmap.Layout
	Exec   *attack.DRAMExecutor
	// LockedRows is how many aggressor-candidate rows were locked
	// (zero when the system was built without protection).
	LockedRows int
}

// BuildSystem places the victim's weights into simulated DRAM and wires
// the attack executor. protect enables the lock-table policy; leak is the
// erroneous-SWAP exposure probability granted to the attacker.
func BuildSystem(p Preset, v *Victim, protect bool, leak float64) (*DefendedSystem, error) {
	sys, err := core.NewSystem(core.Config{
		Geometry:   p.Geometry,
		Timing:     dram.DDR4Timing(),
		TRH:        p.TRH,
		Controller: controller.DefaultConfig(),
	})
	if err != nil {
		return nil, err
	}
	layout, err := memmap.New(v.QM, sys.Device(), sys.Controller().IsReserved)
	if err != nil {
		return nil, err
	}
	ds := &DefendedSystem{Sys: sys, Layout: layout}
	if protect {
		locked, err := sys.ProtectWeights(layout)
		if err != nil {
			return nil, err
		}
		ds.LockedRows = locked
	}
	exec, err := attack.NewDRAMExecutor(layout, sys.Controller(), sys.Hammer(), leak, p.Seed+101)
	if err != nil {
		return nil, err
	}
	ds.Exec = exec
	return ds, nil
}

// Fig8Result reproduces one panel of Fig. 8: accuracy-vs-iteration traces
// for the same victim attacked without and with DRAM-Locker.
type Fig8Result struct {
	Arch       Arch
	Classes    int
	CleanAcc   float64
	Without    attack.Result
	With       attack.Result
	LockedRows int
}

// Fig8 runs the full-stack BFA twice: on an unprotected system (every
// hammer lands) and on a DRAM-Locker system at the ±20% corner (denials
// except the 9.6% erroneous-SWAP leak). ctx is polled per training epoch
// and per attack iteration.
func Fig8(ctx context.Context, p Preset, arch Arch, classes int) (*Fig8Result, error) {
	v, err := victimFor(ctx, p, standardVictim(arch, classes))
	if err != nil {
		return nil, err
	}
	res := &Fig8Result{Arch: arch, Classes: classes, CleanAcc: v.CleanAcc}
	snap := v.QM.Snapshot()

	bcfg := attack.DefaultBFAConfig()
	bcfg.Iterations = p.AttackIters
	bcfg.CandidatesPerIter = p.Candidates
	bcfg.Stop = ctx.Err

	// Without DRAM-Locker.
	undefended, err := BuildSystem(p, v, false, 0)
	if err != nil {
		return nil, err
	}
	res.Without, err = attack.BFA(v.QM, v.AttackBatch, v.Eval, undefended.Exec, bcfg)
	if err != nil {
		return nil, err
	}

	// Restore the victim and attack the defended system.
	v.QM.Restore(snap)
	defended, err := BuildSystem(p, v, true, Fig8Leak)
	if err != nil {
		return nil, err
	}
	res.LockedRows = defended.LockedRows
	res.With, err = attack.BFA(v.QM, v.AttackBatch, v.Eval, defended.Exec, bcfg)
	if err != nil {
		return nil, err
	}
	v.QM.Restore(snap)
	return res, nil
}

// Fig8PTAResult is the PTA variant reported in §V's text: the attacker
// corrupts page-table entries instead of weights directly.
type Fig8PTAResult struct {
	CleanAcc   float64
	Without    attack.Result
	With       attack.Result
	LockedRows int
}

// Fig8PTA runs the page-table attack against ResNet-20/CIFAR-10-like with
// and without DRAM-Locker protecting the page-table rows. ctx is polled
// through the victim training, the dominant cost.
func Fig8PTA(ctx context.Context, p Preset) (*Fig8PTAResult, error) {
	v, err := victimFor(ctx, p, standardVictim(ArchResNet20, 10))
	if err != nil {
		return nil, err
	}
	snap := v.QM.Snapshot()
	res := &Fig8PTAResult{CleanAcc: v.CleanAcc}

	run := func(protect bool) (attack.Result, int, error) {
		v.QM.Restore(snap)
		sysb, err := BuildSystem(p, v, false, 0) // weights unprotected: PTA targets PTEs
		if err != nil {
			return attack.Result{}, 0, err
		}
		sys := sysb.Sys
		geom := sys.Device().Geometry()

		// Page-table rows live in the last bank at even rows not used by
		// weights; give the table enough rows for one PTE per weight page
		// plus the attacker's page.
		pages := len(sysb.Layout.WeightRows()) + 8
		per := geom.RowBytes / pagetable.PTESize
		need := (pages + per - 1) / per
		var ptRows []dram.RowAddr
		for r := 2; len(ptRows) < need && r < geom.RowsPerBank(); r += 2 {
			a := dram.RowAddr{Bank: geom.Banks() - 1, Row: r}
			if sys.Controller().IsReserved(a) || sysb.Layout.IsWeightRow(a) {
				continue
			}
			ptRows = append(ptRows, a)
		}
		table, err := pagetable.New(sys.Device(), ptRows, pages)
		if err != nil {
			return attack.Result{}, 0, err
		}
		locked := 0
		if protect {
			locked, err = sys.ProtectPageTable(table)
			if err != nil {
				return attack.Result{}, 0, err
			}
		}
		pcfg := attack.DefaultPTAConfig()
		pcfg.Iterations = p.AttackIters
		pcfg.Seed = p.Seed + 303
		pta, err := attack.NewPTA(table, sysb.Layout, sys.Controller(), sys.Hammer(), pcfg)
		if err != nil {
			return attack.Result{}, 0, err
		}
		r, err := pta.Run(v.Eval)
		return r, locked, err
	}

	// The PTA runs at the nominal process corner (no leak): one leaked
	// PTA redirect overwrites an entire weight row — thousands of weights
	// — so even a sub-percent leak collapses the model and every defended
	// curve would be trivially identical to the undefended one. The
	// paper's PTA discussion (§V) reports the defended curve staying
	// flat, which corresponds to this corner; the ±20% leak accounting is
	// specific to the per-bit BFA panels of Fig. 8.
	var locked int
	if res.Without, _, err = run(false); err != nil {
		return nil, fmt.Errorf("experiments: PTA undefended: %w", err)
	}
	if res.With, locked, err = run(true); err != nil {
		return nil, fmt.Errorf("experiments: PTA defended: %w", err)
	}
	res.LockedRows = locked
	v.QM.Restore(snap)
	return res, nil
}
