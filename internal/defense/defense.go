// Package defense provides a common interface over RowHammer mitigation
// mechanisms and functional implementations of the baselines the paper
// compares against (Table I and Fig. 7): SHADOW-style intra-subarray
// shuffling, PARA probabilistic refresh, Graphene/Hydra-class counter
// trackers, naive counter-per-row, and randomized row-swap (RRS).
//
// A Defense sits between the request stream and the DRAM array: every
// activation is offered to the defense, which may mitigate (neutralise the
// accumulating disturbance at some latency cost) or — for DRAM-Locker,
// implemented in internal/controller — deny the activation outright.
package defense

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/rowhammer"
	"repro/internal/stats"
)

// Decision is a defense's verdict on one activation.
type Decision struct {
	// Allow is false when the activation must not reach the array
	// (lock-style defenses).
	Allow bool
	// ExtraLatency is mitigation work charged to this activation.
	ExtraLatency dram.Picoseconds
	// Mitigated is true when the defense performed a mitigation action
	// (victim refresh, shuffle, swap) on this activation.
	Mitigated bool
}

// Stats aggregates defense activity.
type Stats struct {
	Activations  int64
	Mitigations  int64
	Denials      int64
	ExtraLatency dram.Picoseconds
}

// Defense is the common mitigation interface.
type Defense interface {
	// Name identifies the mechanism in reports.
	Name() string
	// OnActivate is offered every activation before it reaches the array.
	OnActivate(row dram.RowAddr, privileged bool) Decision
	// OnWindowReset is called at every refresh-window boundary.
	OnWindowReset()
	// Stats returns accumulated counters.
	Stats() Stats
}

// base carries shared bookkeeping for implementations.
type base struct {
	name  string
	stats Stats
}

func (b *base) Name() string { return b.name }

func (b *base) Stats() Stats { return b.stats }

func (b *base) record(d Decision) Decision {
	b.stats.Activations++
	if d.Mitigated {
		b.stats.Mitigations++
	}
	if !d.Allow {
		b.stats.Denials++
	}
	b.stats.ExtraLatency += d.ExtraLatency
	return d
}

// --- No defense -------------------------------------------------------------

// None is the undefended baseline.
type None struct{ base }

// NewNone returns the no-defense baseline.
func NewNone() *None { return &None{base{name: "None"}} }

// OnActivate allows everything.
func (n *None) OnActivate(dram.RowAddr, bool) Decision {
	return n.record(Decision{Allow: true})
}

// OnWindowReset is a no-op.
func (n *None) OnWindowReset() {}

// --- SHADOW -----------------------------------------------------------------

// Shadow models Wi et al. HPCA'23: every protected row is shuffled within
// its subarray after accumulating ShufflePeriod activations, neutralising
// the disturbance toward its neighbors. Shuffling is "unintelligent": each
// trigger shuffles the whole protected group, which is where SHADOW's
// latency comes from (paper §I, §V).
type Shadow struct {
	base
	// ShufflePeriod is how many activations a row may accumulate before
	// the group is shuffled; SHADOW must keep this below the device T_RH,
	// so the period is TRH/2 for a safety factor of 2.
	ShufflePeriod int
	// GroupSize is the number of potential target rows shuffled per
	// trigger.
	GroupSize int
	// ShuffleCopyLatency is the cost of relocating one row.
	ShuffleCopyLatency dram.Picoseconds

	engine *rowhammer.Engine
	counts map[int]int
	geom   dram.Geometry
	rng    *stats.RNG

	// DefenseCeiling is the per-window activation count on one row beyond
	// which SHADOW's shuffle throughput is exceeded and integrity is
	// compromised (the "defense threshold" of Fig. 7(a)).
	DefenseCeiling int
	compromised    bool
}

// ShadowConfig parameterises Shadow.
type ShadowConfig struct {
	TRH                int
	GroupSize          int
	ShuffleCopyLatency dram.Picoseconds
	// CeilingFactor scales the defense ceiling: ceiling = CeilingFactor * TRH.
	CeilingFactor int
	Seed          uint64
}

// DefaultShadowConfig returns the Fig. 7 operating point for a given TRH.
func DefaultShadowConfig(trh int) ShadowConfig {
	return ShadowConfig{
		TRH:                trh,
		GroupSize:          1000,
		ShuffleCopyLatency: 270 * dram.Nanosecond,
		CeilingFactor:      10,
		Seed:               0x5ad0,
	}
}

// NewShadow builds a SHADOW instance bound to a rowhammer engine (for
// counter neutralisation on shuffle).
func NewShadow(engine *rowhammer.Engine, geom dram.Geometry, cfg ShadowConfig) (*Shadow, error) {
	if cfg.TRH <= 1 {
		return nil, fmt.Errorf("defense: shadow TRH must be > 1, got %d", cfg.TRH)
	}
	if cfg.GroupSize <= 0 {
		return nil, fmt.Errorf("defense: shadow GroupSize must be positive, got %d", cfg.GroupSize)
	}
	return &Shadow{
		base:               base{name: fmt.Sprintf("SHADOW%d", cfg.TRH)},
		ShufflePeriod:      cfg.TRH / 2,
		GroupSize:          cfg.GroupSize,
		ShuffleCopyLatency: cfg.ShuffleCopyLatency,
		engine:             engine,
		counts:             make(map[int]int),
		geom:               geom,
		rng:                stats.NewRNG(cfg.Seed),
		DefenseCeiling:     cfg.CeilingFactor * cfg.TRH,
	}, nil
}

// Compromised reports whether the attacker exceeded SHADOW's throughput.
func (s *Shadow) Compromised() bool { return s.compromised }

// OnActivate counts the activation and triggers a group shuffle when the
// row reaches the shuffle period.
func (s *Shadow) OnActivate(row dram.RowAddr, privileged bool) Decision {
	idx := s.geom.LinearIndex(row)
	s.counts[idx]++
	d := Decision{Allow: true}
	if s.counts[idx] > s.DefenseCeiling {
		// Beyond the ceiling SHADOW cannot keep up; no further latency
		// is added because mitigation has effectively stopped.
		s.compromised = true
		return s.record(d)
	}
	if s.counts[idx]%s.ShufflePeriod == 0 {
		// Group shuffle: every potential target row is relocated.
		d.Mitigated = true
		d.ExtraLatency = dram.Picoseconds(int64(s.GroupSize)) * s.ShuffleCopyLatency
		if s.engine != nil {
			s.engine.ResetRow(row)
		}
	}
	return s.record(d)
}

// OnWindowReset clears per-window counts.
func (s *Shadow) OnWindowReset() {
	s.counts = make(map[int]int)
	s.compromised = false
}

// --- PARA -------------------------------------------------------------------

// PARA models Kim et al. ISCA'14 probabilistic adjacent row activation:
// on every activation, with probability P, the victims are refreshed.
type PARA struct {
	base
	P              float64
	RefreshLatency dram.Picoseconds
	engine         *rowhammer.Engine
	rng            *stats.RNG
}

// NewPARA builds a PARA instance with mitigation probability p.
func NewPARA(engine *rowhammer.Engine, p float64, seed uint64) (*PARA, error) {
	if p <= 0 || p >= 1 {
		return nil, fmt.Errorf("defense: PARA probability must be in (0,1), got %g", p)
	}
	return &PARA{
		base:           base{name: "PARA"},
		P:              p,
		RefreshLatency: 100 * dram.Nanosecond,
		engine:         engine,
		rng:            stats.NewRNG(seed),
	}, nil
}

// OnActivate probabilistically refreshes the neighbors.
func (p *PARA) OnActivate(row dram.RowAddr, privileged bool) Decision {
	d := Decision{Allow: true}
	if p.rng.Bernoulli(p.P) {
		d.Mitigated = true
		d.ExtraLatency = p.RefreshLatency
		if p.engine != nil {
			p.engine.ResetRow(row)
		}
	}
	return p.record(d)
}

// OnWindowReset is a no-op (PARA is stateless).
func (p *PARA) OnWindowReset() {}

// --- Counter-per-row ---------------------------------------------------------

// CounterPerRow keeps an exact activation counter for every row and
// refreshes victims when a row reaches the threshold.
type CounterPerRow struct {
	base
	TRH            int
	RefreshLatency dram.Picoseconds
	engine         *rowhammer.Engine
	geom           dram.Geometry
	counts         map[int]int
}

// NewCounterPerRow builds the exact-counting baseline.
func NewCounterPerRow(engine *rowhammer.Engine, geom dram.Geometry, trh int) (*CounterPerRow, error) {
	if trh <= 0 {
		return nil, fmt.Errorf("defense: TRH must be positive, got %d", trh)
	}
	return &CounterPerRow{
		base:           base{name: "CounterPerRow"},
		TRH:            trh,
		RefreshLatency: 100 * dram.Nanosecond,
		engine:         engine,
		geom:           geom,
		counts:         make(map[int]int),
	}, nil
}

// OnActivate counts and mitigates at the threshold.
func (c *CounterPerRow) OnActivate(row dram.RowAddr, privileged bool) Decision {
	idx := c.geom.LinearIndex(row)
	c.counts[idx]++
	d := Decision{Allow: true}
	if c.counts[idx] >= c.TRH {
		c.counts[idx] = 0
		d.Mitigated = true
		d.ExtraLatency = c.RefreshLatency
		if c.engine != nil {
			c.engine.ResetRow(row)
		}
	}
	return c.record(d)
}

// OnWindowReset clears all counters.
func (c *CounterPerRow) OnWindowReset() { c.counts = make(map[int]int) }

// --- Graphene (Misra-Gries) ---------------------------------------------------

// Graphene models Park et al. MICRO'20: a Misra-Gries frequent-items table
// per bank catches every row whose count can exceed the threshold, using
// far fewer counters than rows.
type Graphene struct {
	base
	TRH            int
	TableSize      int
	RefreshLatency dram.Picoseconds
	engine         *rowhammer.Engine
	geom           dram.Geometry
	// Misra-Gries state per bank.
	tables []map[int]int
	spill  []int
}

// NewGraphene builds the tracker. tableSize is the Misra-Gries capacity
// per bank; the classical guarantee needs tableSize >= activations/TRH.
func NewGraphene(engine *rowhammer.Engine, geom dram.Geometry, trh, tableSize int) (*Graphene, error) {
	if trh <= 0 || tableSize <= 0 {
		return nil, fmt.Errorf("defense: graphene needs positive TRH and tableSize")
	}
	g := &Graphene{
		base:           base{name: "Graphene"},
		TRH:            trh,
		TableSize:      tableSize,
		RefreshLatency: 100 * dram.Nanosecond,
		engine:         engine,
		geom:           geom,
	}
	g.OnWindowReset()
	return g, nil
}

// OnActivate runs one Misra-Gries update and mitigates rows whose estimate
// reaches the threshold.
func (g *Graphene) OnActivate(row dram.RowAddr, privileged bool) Decision {
	d := Decision{Allow: true}
	bank := row.Bank
	idx := g.geom.LinearIndex(row)
	t := g.tables[bank]
	if _, ok := t[idx]; ok {
		t[idx]++
	} else if len(t) < g.TableSize {
		t[idx] = g.spill[bank] + 1
	} else {
		// Decrement-all step of Misra-Gries, implemented as a spill floor.
		g.spill[bank]++
		for k, v := range t {
			if v <= g.spill[bank] {
				delete(t, k)
			}
		}
		if len(t) < g.TableSize {
			t[idx] = g.spill[bank] + 1
		}
	}
	if v, ok := t[idx]; ok && v >= g.TRH/2 {
		// Mitigate early (half threshold), as Graphene does.
		t[idx] = g.spill[bank]
		d.Mitigated = true
		d.ExtraLatency = g.RefreshLatency
		if g.engine != nil {
			g.engine.ResetRow(row)
		}
	}
	return g.record(d)
}

// OnWindowReset clears tracker state.
func (g *Graphene) OnWindowReset() {
	g.tables = make([]map[int]int, g.geom.Banks())
	for i := range g.tables {
		g.tables[i] = make(map[int]int)
	}
	g.spill = make([]int, g.geom.Banks())
}

// --- Row swap baselines -------------------------------------------------------

// RowSwap models the RRS defense: after SwapPeriod activations of a row,
// RRS swaps it with a random row of the bank, breaking the
// aggressor-victim adjacency. The model resets the row's accumulated
// disturbance (rowhammer.Engine.ResetRow) and charges a two-row migration.
type RowSwap struct {
	base
	SwapPeriod  int
	SwapLatency dram.Picoseconds
	engine      *rowhammer.Engine
	geom        dram.Geometry
	counts      map[int]int
}

// NewRowSwap builds an RRS instance.
func NewRowSwap(engine *rowhammer.Engine, geom dram.Geometry, swapPeriod int) (*RowSwap, error) {
	if swapPeriod <= 0 {
		return nil, fmt.Errorf("defense: swapPeriod must be positive, got %d", swapPeriod)
	}
	return &RowSwap{
		base:        base{name: "RRS"},
		SwapPeriod:  swapPeriod,
		SwapLatency: 2 * 270 * dram.Nanosecond,
		engine:      engine,
		geom:        geom,
		counts:      make(map[int]int),
	}, nil
}

// OnActivate counts and swaps at the period.
func (r *RowSwap) OnActivate(row dram.RowAddr, privileged bool) Decision {
	idx := r.geom.LinearIndex(row)
	r.counts[idx]++
	d := Decision{Allow: true}
	if r.counts[idx]%r.SwapPeriod == 0 {
		d.Mitigated = true
		d.ExtraLatency = r.SwapLatency
		if r.engine != nil {
			r.engine.ResetRow(row)
		}
	}
	return r.record(d)
}

// OnWindowReset clears per-window counts.
func (r *RowSwap) OnWindowReset() { r.counts = make(map[int]int) }
