package attack

import (
	"fmt"

	"repro/internal/controller"
	"repro/internal/dram"
	"repro/internal/memmap"
	"repro/internal/rowhammer"
	"repro/internal/stats"
)

// DRAMExecutor commits flips the way a real attacker must: by hammering an
// aggressor row adjacent to the DRAM row holding the target bit, through
// the memory controller — where the lock-table can deny the activations.
//
// Each TryFlip is one hammerRow attempt on the target bit (the threat
// model grants the attacker data-pattern control, §III assumptions 4-5);
// the flip has landed once the victim model, synced from DRAM, changed.
// When the lock-table denies every aggressor, Leak decides whether the
// flip lands anyway.
type DRAMExecutor struct {
	Layout *memmap.Layout
	Ctl    *controller.Controller
	Engine *rowhammer.Engine
	// Leak is the probability that a denied flip lands anyway, modelling
	// the erroneous-SWAP exposure of §IV.D (0.096 at ±20% variation).
	// Zero models an ideal, error-free DRAM-Locker.
	Leak float64
	RNG  *stats.RNG
}

// NewDRAMExecutor wires an executor over the full substrate.
func NewDRAMExecutor(layout *memmap.Layout, ctl *controller.Controller, eng *rowhammer.Engine, leak float64, seed uint64) (*DRAMExecutor, error) {
	if leak < 0 || leak > 1 {
		return nil, fmt.Errorf("attack: leak must be in [0,1], got %g", leak)
	}
	return &DRAMExecutor{
		Layout: layout,
		Ctl:    ctl,
		Engine: eng,
		Leak:   leak,
		RNG:    stats.NewRNG(seed),
	}, nil
}

// TryFlip implements FlipExecutor.
func (e *DRAMExecutor) TryFlip(globalW, k int) (FlipOutcome, error) {
	victim, bitInRow, err := e.Layout.LocationOfBit(globalW, k)
	if err != nil {
		return FlipOutcome{}, err
	}
	landed := func() (bool, error) {
		changed, err := e.Layout.SyncFromDRAM()
		return changed > 0, err
	}
	flipped, deniedAll, err := hammerRow(e.Ctl, e.Engine, victim, bitInRow, landed)
	if err != nil || !deniedAll {
		return FlipOutcome{Succeeded: flipped}, err
	}
	// Defense blocked every aggressor. Model the erroneous-SWAP exposure
	// window: with probability Leak the row was silently left unprotected
	// and the flip lands.
	if e.RNG.Bernoulli(e.Leak) {
		if err := e.Ctl.Device().FlipBit(victim, bitInRow); err != nil {
			return FlipOutcome{}, err
		}
		if _, err := e.Layout.SyncFromDRAM(); err != nil {
			return FlipOutcome{}, err
		}
		return FlipOutcome{Succeeded: true}, nil
	}
	return FlipOutcome{Denied: true}, nil
}

// hammerRow is one RowHammer attempt on bit of row victim, the one
// hammer loop of every attack. It registers the bit with the fault model
// and opens a fresh refresh window: an attempt spans at least one
// refresh interval in real time (T_RH activations take ~T_RH·tRC), so
// earlier attempts leave no residual counts. It then hammers each
// neighbour of victim T_RH+1 times through the controller, moving on at
// a neighbour's first denied activation, and stops at the first
// neighbour hammered in full after which landed reports the flip.
// deniedAll is true when the controller denied every neighbour.
func hammerRow(ctl *controller.Controller, eng *rowhammer.Engine, victim dram.RowAddr, bit int, landed func() (bool, error)) (ok, deniedAll bool, err error) {
	aggressors := ctl.Device().Geometry().Neighbors(victim, 1)
	if len(aggressors) == 0 {
		return false, false, fmt.Errorf("attack: row %v has no aggressor rows", victim)
	}
	if err := eng.RegisterTarget(victim, bit); err != nil {
		return false, false, err
	}
	defer eng.ClearTargets()
	eng.ResetWindow(ctl.Device().Now())

	deniedAll = true
next:
	for _, agg := range aggressors {
		for i := 0; i <= eng.TRH(); i++ {
			activated, _, err := ctl.HammerAttempt(agg)
			if err != nil {
				return false, false, err
			}
			if !activated {
				continue next
			}
		}
		deniedAll = false
		if ok, err := landed(); err != nil {
			return false, false, err
		} else if ok {
			return true, false, nil
		}
	}
	return false, deniedAll, nil
}
