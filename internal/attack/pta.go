package attack

import (
	"fmt"

	"repro/internal/controller"
	"repro/internal/dram"
	"repro/internal/memmap"
	"repro/internal/nn"
	"repro/internal/pagetable"
	"repro/internal/rowhammer"
	"repro/internal/stats"
)

// PTAConfig parameterises the page-table attack.
type PTAConfig struct {
	// Iterations is the number of attack rounds; each tries to corrupt
	// one weight page.
	Iterations int
	// Seed drives the choice of PFN bit each round flips.
	Seed uint64
}

// DefaultPTAConfig returns the paper-style PTA setup.
func DefaultPTAConfig() PTAConfig {
	return PTAConfig{
		Iterations: 100,
		Seed:       0x97a,
	}
}

// The attacker owns virtual page attackerPage and overwrites each hijacked
// weight frame with payloadByte (0x80 = -128, the most damaging int8
// value).
const (
	attackerPage = 0
	payloadByte  = 0x80
)

// PTA is the page-table attack of Fig. 3(b): the attacker flips a PFN bit
// in its *own* PTE (via RowHammer on the page-table row's neighbor) so the
// entry points at a victim weight frame, then overwrites that frame
// through its now-redirected virtual page. A round whose every aggressor
// the lock-table denies fails: the PTA runs at the nominal process corner,
// with no erroneous-SWAP leak (see experiments.Fig8PTA for why).
type PTA struct {
	cfg    PTAConfig
	table  *pagetable.Table
	layout *memmap.Layout
	ctl    *controller.Controller
	engine *rowhammer.Engine
	rng    *stats.RNG
}

// NewPTA wires the attack over the substrate.
func NewPTA(table *pagetable.Table, layout *memmap.Layout, ctl *controller.Controller, eng *rowhammer.Engine, cfg PTAConfig) (*PTA, error) {
	if cfg.Iterations <= 0 {
		return nil, fmt.Errorf("attack: PTA iterations must be positive")
	}
	return &PTA{
		cfg: cfg, table: table, layout: layout, ctl: ctl, engine: eng,
		rng: stats.NewRNG(cfg.Seed),
	}, nil
}

// Run executes the attack, evaluating victim accuracy after each round.
// A denied round leaves the weights unchanged and reuses the previous
// accuracy; a landed one reruns from the first layer it overwrote.
func (p *PTA) Run(eval nn.BatchSource) (Result, error) {
	var res Result
	targets := p.layout.WeightRows()
	if len(targets) == 0 {
		return res, fmt.Errorf("attack: no weight rows to target")
	}
	ev := newEvaluator(p.layout.QM)
	ev.bind(nn.Batch{}, eval)
	geom := p.ctl.Device().Geometry()
	for iter := 0; iter < p.cfg.Iterations; iter++ {
		target := targets[iter%len(targets)]
		ok, denied, err := p.round(target, geom)
		if err != nil {
			return res, err
		}
		if ok {
			res.TotalFlips++
		}
		if denied {
			res.TotalDenied++
		}
		ev.sync()
		res.Records = append(res.Records, IterationRecord{
			Iteration: iter + 1,
			Flips:     res.TotalFlips,
			Denied:    res.TotalDenied,
			Accuracy:  ev.accuracy(),
		})
	}
	return res, nil
}

// round performs one PTE corruption + payload write against one target
// weight frame.
func (p *PTA) round(target dram.RowAddr, geom dram.Geometry) (succeeded, denied bool, err error) {
	// 1. Attacker re-maps its own page (legitimate OS operation) so the
	//    stored PFN is one bit away from the target frame. The threat
	//    model grants VA->PA knowledge and memory massaging (§III).
	targetPFN := uint64(geom.LinearIndex(target))
	bit := p.rng.Intn(8) // flip within the PFN low byte
	setupPFN := targetPFN ^ (1 << uint(bit))
	if int(setupPFN) >= geom.TotalRows() {
		setupPFN = targetPFN ^ 1
		bit = 0
	}
	if err := p.table.Map(attackerPage, geom.FromLinearIndex(int(setupPFN))); err != nil {
		return false, false, err
	}

	// 2. Hammer the PT row's neighbor to flip that PFN bit.
	pteRow, pteBit, err := p.table.PFNBitOf(attackerPage, bit)
	if err != nil {
		return false, false, err
	}
	if err := p.engine.RegisterTarget(pteRow, pteBit); err != nil {
		return false, false, err
	}
	defer p.engine.ClearTargets()
	p.engine.ResetWindow(p.ctl.Device().Now())

	aggressors := geom.Neighbors(pteRow, 1)
	if len(aggressors) == 0 {
		return false, false, fmt.Errorf("attack: PT row %v has no neighbors", pteRow)
	}
	trh := p.engine.TRH()
	flipped := false
	deniedAll := true
	for _, agg := range aggressors {
		wasDenied := false
		for i := 0; i < trh+1; i++ {
			activated, _, err := p.ctl.HammerAttempt(agg)
			if err != nil {
				return false, false, err
			}
			if !activated {
				wasDenied = true
				break
			}
		}
		if wasDenied {
			continue
		}
		deniedAll = false
		frame, err := p.table.FrameOf(attackerPage)
		if err == nil && frame == target {
			flipped = true
			break
		}
	}
	if !flipped {
		return false, deniedAll, nil
	}

	// 3. The attacker's page now maps to the victim frame: overwrite it
	//    with the payload through the page table, then let the victim's
	//    next inference read the corrupted weights.
	frame, err := p.table.FrameOf(attackerPage)
	if err != nil {
		return false, false, err
	}
	payload := make([]byte, geom.RowBytes)
	for i := range payload {
		payload[i] = payloadByte
	}
	if err := p.ctl.Device().PokeRow(frame, payload); err != nil {
		return false, false, err
	}
	if _, err := p.layout.SyncFromDRAM(); err != nil {
		return false, false, err
	}
	// Clean up: restore the attacker mapping legitimately for next round.
	if err := p.table.Unmap(attackerPage); err != nil {
		return false, false, err
	}
	return true, false, nil
}
