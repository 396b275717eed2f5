package defense

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/rowhammer"
)

// --- Hydra ---------------------------------------------------------------------

// Hydra models Qureshi et al. ISCA'22 hybrid tracking: a small SRAM of
// *group* counters covers many rows each; when a group's shared count
// crosses a fraction of the threshold, the group is "split" into exact
// per-row counters spilled to (modelled) DRAM. This keeps SRAM tiny while
// preserving exactness for hot rows.
type Hydra struct {
	base
	TRH int
	// SplitFraction of TRH at which a group graduates to per-row counters.
	SplitFraction float64
	// SpillLatency models the DRAM access for per-row counters.
	SpillLatency dram.Picoseconds

	engine *rowhammer.Engine
	geom   dram.Geometry

	groupCount map[int]int  // group id -> shared count
	split      map[int]bool // group id -> graduated
	rowCount   map[int]int  // linear row -> exact count (post split)
}

// NewHydra builds the hybrid tracker with groups of hydraGroupSize rows.
func NewHydra(engine *rowhammer.Engine, geom dram.Geometry, trh int) (*Hydra, error) {
	if trh <= 0 {
		return nil, fmt.Errorf("defense: hydra needs positive TRH")
	}
	return &Hydra{
		base:          base{name: "Hydra"},
		TRH:           trh,
		SplitFraction: 0.5,
		SpillLatency:  45 * dram.Nanosecond,
		engine:        engine,
		geom:          geom,
		groupCount:    make(map[int]int),
		split:         make(map[int]bool),
		rowCount:      make(map[int]int),
	}, nil
}

func (h *Hydra) groupOf(row dram.RowAddr) int {
	return h.geom.LinearIndex(row) / hydraGroupSize
}

// OnActivate implements Defense.
func (h *Hydra) OnActivate(row dram.RowAddr) Decision {
	var d Decision
	g := h.groupOf(row)
	if !h.split[g] {
		h.groupCount[g]++
		if float64(h.groupCount[g]) >= h.SplitFraction*float64(h.TRH) {
			// Graduate: exact counters start from the shared estimate
			// (conservative: every row inherits the group count).
			h.split[g] = true
			d.ExtraLatency += h.SpillLatency
		}
		return h.record(d)
	}
	idx := h.geom.LinearIndex(row)
	h.rowCount[idx]++
	d.ExtraLatency += h.SpillLatency
	if h.rowCount[idx]+h.groupCount[g] >= h.TRH {
		h.rowCount[idx] = 0
		d.Mitigated = true
		d.ExtraLatency += refreshLatency
		if h.engine != nil {
			h.engine.ResetRow(row)
		}
	}
	return h.record(d)
}

// --- Counter Tree ----------------------------------------------------------------

// CounterTree models Seyedzadeh et al. CAL'16: a binary tree of shared
// counters over the row space. Interior counters saturate and push
// tracking toward the leaves, so few counters cover many rows with
// bounded undercounting.
type CounterTree struct {
	base
	TRH int

	engine *rowhammer.Engine
	geom   dram.Geometry
	counts []map[int]int // per level: node id -> count
}

// NewCounterTree builds a tree tracker counterTreeLevels deep.
func NewCounterTree(engine *rowhammer.Engine, geom dram.Geometry, trh int) (*CounterTree, error) {
	if trh <= 0 {
		return nil, fmt.Errorf("defense: counter tree needs positive TRH")
	}
	c := &CounterTree{
		base:   base{name: "CounterTree"},
		TRH:    trh,
		engine: engine,
		geom:   geom,
		counts: make([]map[int]int, counterTreeLevels),
	}
	for i := range c.counts {
		c.counts[i] = make(map[int]int)
	}
	return c, nil
}

// OnActivate implements Defense: increment the counter on every level of
// the row's root-to-leaf path; mitigate when the leaf-level estimate
// crosses the per-level share of the threshold.
func (c *CounterTree) OnActivate(row dram.RowAddr) Decision {
	var d Decision
	idx := c.geom.LinearIndex(row)
	span := c.geom.TotalRows()
	node := 0
	trigger := false
	for lvl := 0; lvl < counterTreeLevels; lvl++ {
		// Node id at this level: index within 2^lvl equal partitions.
		parts := 1 << lvl
		width := (span + parts - 1) / parts
		node = idx / width
		key := lvl<<24 | node
		c.counts[lvl][key]++
		if lvl == counterTreeLevels-1 && c.counts[lvl][key] >= c.TRH/2 {
			trigger = true
			c.counts[lvl][key] = 0
		}
	}
	if trigger {
		d.Mitigated = true
		d.ExtraLatency = refreshLatency
		if c.engine != nil {
			c.engine.ResetRow(row)
		}
	}
	return c.record(d)
}

// --- TWiCE ----------------------------------------------------------------------

// TWiCE models Lee et al. ISCA'19 time-window counters: rows enter a
// pruned table on first activation; entries whose rate cannot reach the
// threshold within the window are periodically pruned, and entries that
// cross the threshold trigger a victim refresh.
type TWiCE struct {
	base
	TRH           int
	PruneInterval int

	engine *rowhammer.Engine
	geom   dram.Geometry

	entries map[int]*twiceEntry
	tick    int
}

type twiceEntry struct {
	count     int
	firstTick int
}

// NewTWiCE builds the time-window tracker.
func NewTWiCE(engine *rowhammer.Engine, geom dram.Geometry, trh int) (*TWiCE, error) {
	if trh <= 0 {
		return nil, fmt.Errorf("defense: TWiCE needs positive TRH")
	}
	t := &TWiCE{
		base:          base{name: "TWiCE"},
		TRH:           trh,
		PruneInterval: 4 * trh,
		engine:        engine,
		geom:          geom,
		entries:       make(map[int]*twiceEntry),
	}
	return t, nil
}

// OnActivate implements Defense.
func (t *TWiCE) OnActivate(row dram.RowAddr) Decision {
	var d Decision
	t.tick++
	idx := t.geom.LinearIndex(row)
	e := t.entries[idx]
	if e == nil {
		e = &twiceEntry{firstTick: t.tick}
		t.entries[idx] = e
	}
	e.count++
	if e.count >= t.TRH/2 {
		e.count = 0
		d.Mitigated = true
		d.ExtraLatency = refreshLatency
		if t.engine != nil {
			t.engine.ResetRow(row)
		}
	}
	if t.tick%t.PruneInterval == 0 {
		t.prune()
	}
	return t.record(d)
}

// prune drops entries whose activation rate is too low to ever reach the
// threshold within the remaining window (the "twice" insight).
func (t *TWiCE) prune() {
	for idx, e := range t.entries {
		age := t.tick - e.firstTick + 1
		// Rows accumulating at less than half the required rate cannot
		// reach TRH before refresh; drop them.
		if float64(e.count) < float64(t.TRH)*float64(age)/float64(4*t.PruneInterval) {
			delete(t.entries, idx)
		}
	}
}

// TableSize returns the live tracker entry count (TWiCE's pruning keeps
// this bounded; exported for tests).
func (t *TWiCE) TableSize() int { return len(t.entries) }
