// Package defense provides a common interface over RowHammer mitigation
// mechanisms and functional implementations of the baselines the paper
// compares against (Table I and Fig. 7): SHADOW-style intra-subarray
// shuffling, PARA probabilistic refresh, Graphene/Hydra-class counter
// trackers, naive counter-per-row, and randomized row-swap (RRS).
//
// A Defense sits between the request stream and the DRAM array: every
// activation is offered to the defense, which may mitigate it
// (neutralise the accumulating disturbance at some latency cost). None
// of these baselines denies an activation; DRAM-Locker, which does, is
// implemented in internal/controller.
//
// Each mechanism has one operating point: the constants below, plus the
// threshold its constructor takes. A campaign stays inside one refresh
// window, so no mechanism models the window's end.
package defense

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/rowhammer"
	"repro/internal/stats"
)

// Decision is a defense's verdict on one activation, which always
// reaches the array.
type Decision struct {
	// ExtraLatency is mitigation work charged to this activation.
	ExtraLatency dram.Picoseconds
	// Mitigated is true when the defense performed a mitigation action
	// (victim refresh, shuffle, swap) on this activation.
	Mitigated bool
}

// Stats aggregates defense activity.
type Stats struct {
	Mitigations  int64
	ExtraLatency dram.Picoseconds
}

// Defense is the common mitigation interface.
type Defense interface {
	// Name identifies the mechanism in reports.
	Name() string
	// OnActivate is offered every activation before it reaches the array.
	OnActivate(row dram.RowAddr) Decision
	// Stats returns accumulated counters.
	Stats() Stats
}

// SHADOW's operating point, shared with the Fig. 7(a) latency model
// (internal/sim).
const (
	// ShadowGroupRows is the number of potential target rows one SHADOW
	// shuffle relocates: a VGG-scale model footprint.
	ShadowGroupRows = 1000
	// ShadowCeilingFactor bounds SHADOW: its shuffle throughput is
	// exceeded once one row sees ShadowCeilingFactor·T_RH activations in a
	// refresh window (the "defense threshold" of Fig. 7(a)).
	ShadowCeilingFactor = 40
)

// The other baselines' operating points.
const (
	// refreshLatency is the cost of one victim refresh.
	refreshLatency = 100 * dram.Nanosecond
	// paraProbability is PARA's per-activation refresh probability, and
	// paraSeed seeds its draws.
	paraProbability = 0.02
	paraSeed        = 1
	// grapheneTableSize is Graphene's Misra-Gries capacity per bank.
	grapheneTableSize = 16
	// hydraGroupSize is the number of rows one Hydra group counter covers.
	hydraGroupSize = 8
	// counterTreeLevels is the depth of the counter tree.
	counterTreeLevels = 6
)

// base carries shared bookkeeping for implementations.
type base struct {
	name  string
	stats Stats
}

func (b *base) Name() string { return b.name }

func (b *base) Stats() Stats { return b.stats }

func (b *base) record(d Decision) Decision {
	if d.Mitigated {
		b.stats.Mitigations++
	}
	b.stats.ExtraLatency += d.ExtraLatency
	return d
}

// --- No defense -------------------------------------------------------------

// None is the undefended baseline.
type None struct{ base }

// NewNone returns the no-defense baseline.
func NewNone() *None { return &None{base{name: "None"}} }

// OnActivate does nothing.
func (n *None) OnActivate(dram.RowAddr) Decision {
	return n.record(Decision{})
}

// --- SHADOW -----------------------------------------------------------------

// Shadow models Wi et al. HPCA'23: every protected row is shuffled within
// its subarray after accumulating ShufflePeriod activations, neutralising
// the disturbance toward its neighbors. Shuffling is "unintelligent": each
// trigger relocates the whole protected group of ShadowGroupRows rows,
// which is where SHADOW's latency comes from (paper §I, §V).
type Shadow struct {
	base
	// ShufflePeriod is how many activations a row may accumulate before
	// the group is shuffled; SHADOW must keep this below the device T_RH,
	// so the period is TRH/2 for a safety factor of 2.
	ShufflePeriod int

	engine *rowhammer.Engine
	counts map[int]int
	geom   dram.Geometry

	// DefenseCeiling is the per-window activation count on one row beyond
	// which SHADOW's shuffle throughput is exceeded and integrity is
	// compromised: ShadowCeilingFactor·T_RH.
	DefenseCeiling int
	compromised    bool
}

// NewShadow builds a SHADOW instance at device threshold trh, bound to a
// rowhammer engine (for counter neutralisation on shuffle).
func NewShadow(engine *rowhammer.Engine, geom dram.Geometry, trh int) (*Shadow, error) {
	if trh <= 1 {
		return nil, fmt.Errorf("defense: shadow TRH must be > 1, got %d", trh)
	}
	return &Shadow{
		base:           base{name: fmt.Sprintf("SHADOW%d", trh)},
		ShufflePeriod:  trh / 2,
		engine:         engine,
		counts:         make(map[int]int),
		geom:           geom,
		DefenseCeiling: ShadowCeilingFactor * trh,
	}, nil
}

// Compromised reports whether the attacker exceeded SHADOW's throughput.
func (s *Shadow) Compromised() bool { return s.compromised }

// OnActivate counts the activation and triggers a group shuffle when the
// row reaches the shuffle period.
func (s *Shadow) OnActivate(row dram.RowAddr) Decision {
	idx := s.geom.LinearIndex(row)
	s.counts[idx]++
	var d Decision
	if s.counts[idx] > s.DefenseCeiling {
		// Beyond the ceiling SHADOW cannot keep up; no further latency
		// is added because mitigation has effectively stopped.
		s.compromised = true
		return s.record(d)
	}
	if s.counts[idx]%s.ShufflePeriod == 0 {
		// Group shuffle: every potential target row is relocated, one
		// three-copy row SWAP each.
		d.Mitigated = true
		d.ExtraLatency = ShadowGroupRows * dram.DDR4Timing().SwapLatency()
		if s.engine != nil {
			s.engine.ResetRow(row)
		}
	}
	return s.record(d)
}

// --- PARA -------------------------------------------------------------------

// PARA models Kim et al. ISCA'14 probabilistic adjacent row activation:
// on every activation, with probability paraProbability, the victims are
// refreshed.
type PARA struct {
	base
	engine *rowhammer.Engine
	rng    *stats.RNG
}

// NewPARA builds a PARA instance.
func NewPARA(engine *rowhammer.Engine) *PARA {
	return &PARA{base: base{name: "PARA"}, engine: engine, rng: stats.NewRNG(paraSeed)}
}

// OnActivate probabilistically refreshes the neighbors.
func (p *PARA) OnActivate(row dram.RowAddr) Decision {
	var d Decision
	if p.rng.Bernoulli(paraProbability) {
		d.Mitigated = true
		d.ExtraLatency = refreshLatency
		if p.engine != nil {
			p.engine.ResetRow(row)
		}
	}
	return p.record(d)
}

// --- Counter-per-row ---------------------------------------------------------

// CounterPerRow keeps an exact activation counter for every row and
// refreshes victims when a row reaches the threshold.
type CounterPerRow struct {
	base
	TRH    int
	engine *rowhammer.Engine
	geom   dram.Geometry
	counts map[int]int
}

// NewCounterPerRow builds the exact-counting baseline.
func NewCounterPerRow(engine *rowhammer.Engine, geom dram.Geometry, trh int) (*CounterPerRow, error) {
	if trh <= 0 {
		return nil, fmt.Errorf("defense: TRH must be positive, got %d", trh)
	}
	return &CounterPerRow{
		base:   base{name: "CounterPerRow"},
		TRH:    trh,
		engine: engine,
		geom:   geom,
		counts: make(map[int]int),
	}, nil
}

// OnActivate counts and mitigates at the threshold.
func (c *CounterPerRow) OnActivate(row dram.RowAddr) Decision {
	idx := c.geom.LinearIndex(row)
	c.counts[idx]++
	var d Decision
	if c.counts[idx] >= c.TRH {
		c.counts[idx] = 0
		d.Mitigated = true
		d.ExtraLatency = refreshLatency
		if c.engine != nil {
			c.engine.ResetRow(row)
		}
	}
	return c.record(d)
}

// --- Graphene (Misra-Gries) ---------------------------------------------------

// Graphene models Park et al. MICRO'20: a Misra-Gries frequent-items table
// per bank catches every row whose count can exceed the threshold, using
// far fewer counters than rows.
type Graphene struct {
	base
	TRH    int
	engine *rowhammer.Engine
	geom   dram.Geometry
	// Misra-Gries state per bank.
	tables []map[int]int
	spill  []int
}

// NewGraphene builds the tracker with grapheneTableSize entries per bank;
// the classical guarantee needs that many >= activations/TRH.
func NewGraphene(engine *rowhammer.Engine, geom dram.Geometry, trh int) (*Graphene, error) {
	if trh <= 0 {
		return nil, fmt.Errorf("defense: graphene needs positive TRH")
	}
	g := &Graphene{
		base:   base{name: "Graphene"},
		TRH:    trh,
		engine: engine,
		geom:   geom,
		tables: make([]map[int]int, geom.Banks()),
		spill:  make([]int, geom.Banks()),
	}
	for i := range g.tables {
		g.tables[i] = make(map[int]int)
	}
	return g, nil
}

// OnActivate runs one Misra-Gries update and mitigates rows whose estimate
// reaches the threshold.
func (g *Graphene) OnActivate(row dram.RowAddr) Decision {
	var d Decision
	bank := row.Bank
	idx := g.geom.LinearIndex(row)
	t := g.tables[bank]
	if _, ok := t[idx]; ok {
		t[idx]++
	} else if len(t) < grapheneTableSize {
		t[idx] = g.spill[bank] + 1
	} else {
		// Decrement-all step of Misra-Gries, implemented as a spill floor.
		g.spill[bank]++
		for k, v := range t {
			if v <= g.spill[bank] {
				delete(t, k)
			}
		}
		if len(t) < grapheneTableSize {
			t[idx] = g.spill[bank] + 1
		}
	}
	if v, ok := t[idx]; ok && v >= g.TRH/2 {
		// Mitigate early (half threshold), as Graphene does.
		t[idx] = g.spill[bank]
		d.Mitigated = true
		d.ExtraLatency = refreshLatency
		if g.engine != nil {
			g.engine.ResetRow(row)
		}
	}
	return g.record(d)
}

// --- Row swap baselines -------------------------------------------------------

// RowSwap models the RRS defense: after SwapPeriod activations of a row,
// RRS swaps it with a random row of the bank, breaking the
// aggressor-victim adjacency. The model resets the row's accumulated
// disturbance (rowhammer.Engine.ResetRow) and charges a two-row migration.
type RowSwap struct {
	base
	SwapPeriod int
	engine     *rowhammer.Engine
	geom       dram.Geometry
	counts     map[int]int
}

// NewRowSwap builds an RRS instance.
func NewRowSwap(engine *rowhammer.Engine, geom dram.Geometry, swapPeriod int) (*RowSwap, error) {
	if swapPeriod <= 0 {
		return nil, fmt.Errorf("defense: swapPeriod must be positive, got %d", swapPeriod)
	}
	return &RowSwap{
		base:       base{name: "RRS"},
		SwapPeriod: swapPeriod,
		engine:     engine,
		geom:       geom,
		counts:     make(map[int]int),
	}, nil
}

// OnActivate counts and swaps at the period.
func (r *RowSwap) OnActivate(row dram.RowAddr) Decision {
	idx := r.geom.LinearIndex(row)
	r.counts[idx]++
	var d Decision
	if r.counts[idx]%r.SwapPeriod == 0 {
		d.Mitigated = true
		d.ExtraLatency = 2 * dram.DDR4Timing().SwapLatency()
		if r.engine != nil {
			r.engine.ResetRow(row)
		}
	}
	return r.record(d)
}
