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
// RelockInterval R/W instructions (Fig. 4(d)); that countdown is what the
// entry's 16-bit field prices. The simulator keeps one flag per geometry
// row (Geometry.LinearIndex -> locked), so the lookup on every memory
// request is one slice index.
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

// Config sizes the table.
type Config struct {
	// CapacityEntries bounds the number of simultaneously tracked rows.
	// The paper's 56KB SRAM at 7B/entry is 8192 entries.
	CapacityEntries int
}

// DefaultConfig returns the paper's 56KB SRAM sizing.
func DefaultConfig() Config { return Config{CapacityEntries: 56 * 1024 / EntryBytes} }

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.CapacityEntries <= 0 {
		return fmt.Errorf("locktable: CapacityEntries must be positive, got %d", c.CapacityEntries)
	}
	return nil
}

// Table is the lock-table. Lookup semantics are identical to the paper's
// set-associative SRAM; occupancy is bounded by the configured capacity.
type Table struct {
	cfg  Config
	geom dram.Geometry
	// locked is indexed by the geometry's linear row index.
	locked []bool
	n      int
}

// New creates an empty table for rows of the given geometry.
func New(geom dram.Geometry, cfg Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Table{cfg: cfg, geom: geom, locked: make([]bool, geom.TotalRows())}, nil
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
	if t.n >= t.cfg.CapacityEntries {
		return fmt.Errorf("%w: capacity %d", ErrFull, t.cfg.CapacityEntries)
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
