// Package locktable implements the DRAM-Locker lock-table: a small SRAM
// structure at the memory controller recording the physical row addresses
// that must not be activated (paper §IV-A/B).
//
// Unlike the count-tables of counter-based RowHammer trackers, the
// lock-table stores no activation counters — only row addresses plus a
// small re-lock countdown — which is where the paper's 56KB SRAM / 0.02%
// area overhead comes from (Table I).
//
// A locked row stays locked: a SWAP moves the protected data, not the
// lock entry (Fig. 4(b)). The one place a row is re-secured is the
// controller's redirect countdown, which swaps the data back after
// controller.RelockInterval R/W instructions (Fig. 4(d)); that countdown
// is what the entry's 16-bit field prices. The table has the paper's one
// size, Capacity entries. The simulator keeps one flag per geometry row
// (Geometry.LinearIndex -> locked), so the lookup on every memory request
// is one slice index.
package locktable

import (
	"errors"
	"fmt"

	"repro/internal/dram"
)

// Errors returned by Lock.
var (
	ErrFull   = errors.New("locktable: table full")
	ErrLocked = errors.New("locktable: row already locked")
)

// EntryBytes is the SRAM cost of one lock-table entry: a 32-bit physical
// row address, a 16-bit re-lock countdown and a valid/state byte.
const EntryBytes = 7

// Capacity bounds the number of simultaneously locked rows: the paper's
// 56KB SRAM at EntryBytes per entry is 8192 entries.
const Capacity = 56 * 1024 / EntryBytes

// Table is the lock-table. Lookup semantics are identical to the paper's
// set-associative SRAM; occupancy is bounded by Capacity.
type Table struct {
	geom dram.Geometry
	// locked is indexed by the geometry's linear row index.
	locked []bool
	n      int
}

// New creates an empty table for rows of the given geometry.
func New(geom dram.Geometry) *Table {
	return &Table{geom: geom, locked: make([]bool, geom.TotalRows())}
}

// Len returns the number of locked rows.
func (t *Table) Len() int { return t.n }

// Lock adds a row to the table.
func (t *Table) Lock(row dram.RowAddr) error {
	if !t.geom.Valid(row) {
		return fmt.Errorf("locktable: invalid row %v", row)
	}
	idx := t.geom.LinearIndex(row)
	if t.locked[idx] {
		return fmt.Errorf("%w: %v", ErrLocked, row)
	}
	if t.n >= Capacity {
		return fmt.Errorf("%w: capacity %d", ErrFull, Capacity)
	}
	t.locked[idx] = true
	t.n++
	return nil
}

// IsLocked reports whether a row is locked. Rows outside the geometry
// never are.
func (t *Table) IsLocked(row dram.RowAddr) bool {
	return t.geom.Valid(row) && t.locked[t.geom.LinearIndex(row)]
}
