// Package rowhammer implements the DRAM disturbance fault model used by the
// DRAM-Locker paper's threat model (§III): every row has a hammer threshold
// T_RH; once a row accumulates more than T_RH activations within one refresh
// window, bit-flips are induced in the two physically adjacent victim rows.
//
// The engine observes activations via dram.ActivateObserver, tracks per-row
// counts inside the current refresh window, and injects flips into the
// device's stored bits, so attacks and defenses interact through real state
// rather than bookkeeping flags.
//
// Per-row state is dense — slices indexed by Geometry.LinearIndex with an
// epoch stamp per row — so the activation hot path is two array accesses,
// and closing a refresh window is O(1) (the epoch advances; stale counters
// are invalidated in place rather than freed). The cost is
// O(Geometry.TotalRows()) memory up front: ~9 bytes per row, ~36MB for the
// 32GB DefaultGeometry and a few hundred KB for the test geometries.
package rowhammer

import (
	"fmt"
	"sort"

	"repro/internal/dram"
	"repro/internal/stats"
)

// Threshold records a published hammer count threshold for a DRAM
// generation (paper Fig. 1(b), after Kim et al. ISCA'20).
type Threshold struct {
	Generation string
	TRH        int
}

// PublishedThresholds reproduces the table in Fig. 1(b) of the paper.
// For LPDDR4 (new) the paper reports a 4.8K-9K range; the midpoint carries
// the range in Note.
func PublishedThresholds() []Threshold {
	return []Threshold{
		{Generation: "DDR3 (old)", TRH: 139_000},
		{Generation: "DDR3 (new)", TRH: 22_400},
		{Generation: "DDR4 (old)", TRH: 17_500},
		{Generation: "DDR4 (new)", TRH: 10_000},
		{Generation: "LPDDR4 (old)", TRH: 16_800},
		{Generation: "LPDDR4 (new)", TRH: 4_800},
	}
}

// FlipEvent describes one injected disturbance flip.
type FlipEvent struct {
	Aggressor dram.RowAddr
	Victim    dram.RowAddr
	Bit       int
	At        dram.Picoseconds
}

// Config parameterises the fault model.
type Config struct {
	// TRH is the activation count within one refresh window beyond which a
	// row disturbs its neighbors.
	TRH int
	// BlastRadius is the neighbor distance affected. 1 reproduces the
	// paper's model; 2 additionally flips distance-2 rows (Half-Double).
	BlastRadius int
	// DistantFlipProb is the per-threshold-crossing probability that a
	// distance-2 victim flips when BlastRadius >= 2. Distance-1 victims
	// always flip on crossing, per the paper's threat model.
	DistantFlipProb float64
	// FlipsPerCrossing is how many bits flip in each victim row per
	// threshold crossing when no targeted bits are registered.
	FlipsPerCrossing int
	// Seed drives victim bit selection for untargeted flips.
	Seed uint64
}

// DefaultConfig returns the paper's worst-case model: T_RH=1k, immediate
// neighbors, one random flip per crossing.
func DefaultConfig() Config {
	return Config{
		TRH:              1000,
		BlastRadius:      1,
		DistantFlipProb:  0.2,
		FlipsPerCrossing: 1,
		Seed:             0x0dd4a11,
	}
}

// Validate checks config sanity.
func (c Config) Validate() error {
	if c.TRH <= 0 {
		return fmt.Errorf("rowhammer: TRH must be positive, got %d", c.TRH)
	}
	if c.BlastRadius < 1 || c.BlastRadius > 2 {
		return fmt.Errorf("rowhammer: BlastRadius must be 1 or 2, got %d", c.BlastRadius)
	}
	if c.DistantFlipProb < 0 || c.DistantFlipProb > 1 {
		return fmt.Errorf("rowhammer: DistantFlipProb must be in [0,1], got %g", c.DistantFlipProb)
	}
	if c.FlipsPerCrossing < 0 {
		return fmt.Errorf("rowhammer: FlipsPerCrossing must be >= 0, got %d", c.FlipsPerCrossing)
	}
	return nil
}

// targetEntry holds the attacker-registered flip bits of one victim row.
// Entries live in a compact slice whose bit slices are reused across
// RegisterTarget/ClearTargets cycles, so the per-TryFlip register/clear
// pattern of the DRAM executor allocates nothing in steady state.
type targetEntry struct {
	idx  int32
	bits []int
}

// Engine tracks activations and injects disturbance flips into a device.
//
// Targeted flips: the paper's threat model (assumptions 4-5) grants the
// attacker a DRAM profiling map and control of data patterns, so the
// attacker can steer *which* victim bit flips. RegisterTarget records the
// attacker's intended victim bits; when an adjacent aggressor crosses T_RH,
// those bits flip. Without registered targets, flips hit seeded
// pseudo-random bit positions (the "random attack" of Fig. 1(a)).
type Engine struct {
	cfg  Config
	dev  *dram.Device
	rng  *stats.RNG
	geom dram.Geometry

	// counts[i] is row i's activation count in the current refresh
	// window, valid only when stamp[i] == epoch; touched lists the rows
	// stamped in this window so scans never walk the whole geometry.
	counts      []int32
	stamp       []uint32
	epoch       uint32
	touched     []int32
	windowStart dram.Picoseconds

	// targetSlot[i] indexes targets for victim row i, -1 when absent.
	targetSlot []int32
	targets    []targetEntry

	flips   []FlipEvent
	history FlipHistory
}

// FlipHistory aggregates counters across refresh windows.
type FlipHistory struct {
	TotalActivations int64
	ThresholdCrosses int64
	TotalFlips       int64
	Windows          int64
}

// New creates an engine bound to a device and registers it as an
// activation observer.
func New(dev *dram.Device, cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	total := dev.Geometry().TotalRows()
	e := &Engine{
		cfg:        cfg,
		dev:        dev,
		rng:        stats.NewRNG(cfg.Seed),
		geom:       dev.Geometry(),
		counts:     make([]int32, total),
		stamp:      make([]uint32, total),
		epoch:      1,
		targetSlot: make([]int32, total),
	}
	for i := range e.targetSlot {
		e.targetSlot[i] = -1
	}
	dev.AddActivateObserver(e)
	return e, nil
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Epoch returns the current refresh-window epoch (starts at 1; each
// ResetWindow advances it).
func (e *Engine) Epoch() uint32 { return e.epoch }

// RegisterTarget records attacker-intended flip bits for a victim row.
// Duplicate bits are ignored.
func (e *Engine) RegisterTarget(victim dram.RowAddr, bits ...int) error {
	if !e.geom.Valid(victim) {
		return fmt.Errorf("rowhammer: invalid victim %v", victim)
	}
	for _, b := range bits {
		if b < 0 || b >= e.geom.RowBytes*8 {
			return fmt.Errorf("rowhammer: bit %d outside row", b)
		}
	}
	idx := e.geom.LinearIndex(victim)
	en := e.targetFor(idx)
	for _, b := range bits {
		dup := false
		for _, x := range en.bits {
			if x == b {
				dup = true
				break
			}
		}
		if !dup {
			en.bits = append(en.bits, b)
		}
	}
	return nil
}

// targetFor returns the target entry of a victim row, creating it (with a
// recycled bit slice where one is available) when absent.
func (e *Engine) targetFor(idx int) *targetEntry {
	if si := e.targetSlot[idx]; si >= 0 {
		return &e.targets[si]
	}
	n := len(e.targets)
	if n < cap(e.targets) {
		e.targets = e.targets[:n+1]
		e.targets[n].bits = e.targets[n].bits[:0]
	} else {
		e.targets = append(e.targets, targetEntry{})
	}
	e.targets[n].idx = int32(idx)
	e.targetSlot[idx] = int32(n)
	return &e.targets[n]
}

// ClearTargets removes all registered targets, keeping the entry storage
// for reuse.
func (e *Engine) ClearTargets() {
	for i := range e.targets {
		e.targetSlot[e.targets[i].idx] = -1
	}
	e.targets = e.targets[:0]
}

// ObserveActivate implements dram.ActivateObserver.
func (e *Engine) ObserveActivate(addr dram.RowAddr, now dram.Picoseconds) {
	// Close the refresh window if it elapsed.
	if now-e.windowStart >= e.dev.Timing().TREFW {
		e.ResetWindow(now)
	}
	idx := e.geom.LinearIndex(addr)
	if e.stamp[idx] != e.epoch {
		e.stamp[idx] = e.epoch
		e.counts[idx] = 1
		e.touched = append(e.touched, int32(idx))
	} else {
		e.counts[idx]++
	}
	e.history.TotalActivations++
	if int(e.counts[idx]) == e.cfg.TRH+1 {
		// Threshold crossed in this window: disturb neighbors once. The
		// count keeps rising; a second crossing needs a fresh window.
		e.history.ThresholdCrosses++
		e.disturb(addr, now)
	}
}

// disturb injects flips into the victims adjacent to the aggressor.
func (e *Engine) disturb(aggressor dram.RowAddr, now dram.Picoseconds) {
	for dist := 1; dist <= e.cfg.BlastRadius; dist++ {
		for _, victim := range e.geom.Neighbors(aggressor, dist) {
			if dist > 1 && !e.rng.Bernoulli(e.cfg.DistantFlipProb) {
				continue
			}
			e.flipVictim(aggressor, victim, now)
		}
	}
}

func (e *Engine) flipVictim(aggressor, victim dram.RowAddr, now dram.Picoseconds) {
	idx := e.geom.LinearIndex(victim)
	if si := e.targetSlot[idx]; si >= 0 && len(e.targets[si].bits) > 0 {
		for _, b := range e.targets[si].bits {
			if err := e.dev.FlipBit(victim, b); err == nil {
				e.recordFlip(aggressor, victim, b, now)
			}
		}
		return
	}
	for i := 0; i < e.cfg.FlipsPerCrossing; i++ {
		b := e.rng.Intn(e.geom.RowBytes * 8)
		if err := e.dev.FlipBit(victim, b); err == nil {
			e.recordFlip(aggressor, victim, b, now)
		}
	}
}

func (e *Engine) recordFlip(aggressor, victim dram.RowAddr, bit int, now dram.Picoseconds) {
	e.flips = append(e.flips, FlipEvent{Aggressor: aggressor, Victim: victim, Bit: bit, At: now})
	e.history.TotalFlips++
}

// ResetRow clears the current-window activation count of one row. Defense
// mechanisms call this to model a targeted mitigation (victim refresh or a
// row relocation): the accumulated disturbance toward the row's neighbors
// is neutralised.
func (e *Engine) ResetRow(a dram.RowAddr) {
	idx := e.geom.LinearIndex(a)
	if e.stamp[idx] == e.epoch {
		e.counts[idx] = 0
	}
}

// ResetWindow starts a new refresh window: all activation counts reset,
// modelling the refresh of every row. The reset is O(1) — the window
// epoch advances, invalidating every count in place.
func (e *Engine) ResetWindow(now dram.Picoseconds) {
	e.epoch++
	if e.epoch == 0 { // epoch wrapped: stale stamps could collide
		clear(e.stamp)
		e.epoch = 1
	}
	e.touched = e.touched[:0]
	e.windowStart = now
	e.history.Windows++
}

// Count returns the current-window activation count of a row.
func (e *Engine) Count(a dram.RowAddr) int {
	idx := e.geom.LinearIndex(a)
	if e.stamp[idx] != e.epoch {
		return 0
	}
	return int(e.counts[idx])
}

// Flips returns all injected flip events so far.
func (e *Engine) Flips() []FlipEvent { return e.flips }

// History returns aggregate counters.
func (e *Engine) History() FlipHistory { return e.history }

// HottestRows returns up to n rows with the highest current-window
// activation counts, most active first. Counter-based defense baselines
// (Graphene, Hydra) are evaluated against this ground truth in tests.
func (e *Engine) HottestRows(n int) []dram.RowAddr {
	type rc struct {
		idx, count int
	}
	all := make([]rc, 0, len(e.touched))
	for _, idx := range e.touched {
		if c := e.counts[idx]; c > 0 {
			all = append(all, rc{int(idx), int(c)})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].count != all[j].count {
			return all[i].count > all[j].count
		}
		return all[i].idx < all[j].idx
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]dram.RowAddr, 0, n)
	for _, x := range all[:n] {
		out = append(out, e.geom.FromLinearIndex(x.idx))
	}
	return out
}
