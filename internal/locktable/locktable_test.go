package locktable

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/dram"
	"repro/internal/stats"
)

func newTable(t *testing.T, capacity int) *Table {
	t.Helper()
	tab, err := New(dram.SmallGeometry(), Config{CapacityEntries: capacity})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestCapacityEnforced(t *testing.T) {
	tab := newTable(t, 2)
	tab.Lock(dram.RowAddr{Bank: 0, Row: 1})
	tab.Lock(dram.RowAddr{Bank: 0, Row: 2})
	if err := tab.Lock(dram.RowAddr{Bank: 0, Row: 3}); !errors.Is(err, ErrFull) {
		t.Fatalf("err = %v, want ErrFull", err)
	}
	if tab.Len() != 2 {
		t.Fatalf("len = %d", tab.Len())
	}
}

func TestSRAMBudgetMatchesPaper(t *testing.T) {
	// The paper's Table I row: 56KB of SRAM.
	if got := DefaultConfig().CapacityEntries * EntryBytes; got > 56*1024 || got < 50*1024 {
		t.Fatalf("SRAM = %d bytes, want ~56KB", got)
	}
}

// TestModelConformance drives the table with random operations and checks
// it against a plain map reference model: duplicate locks fail with
// ErrLocked, a full table with ErrFull, and rows outside the geometry are
// rejected and never locked.
func TestModelConformance(t *testing.T) {
	const capacity = 8
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		geom := dram.SmallGeometry()
		tab, err := New(geom, Config{CapacityEntries: capacity})
		if err != nil {
			return false
		}
		model := make(map[dram.RowAddr]bool)
		for op := 0; op < 200; op++ {
			// One bank past the last is outside the geometry.
			row := dram.RowAddr{Bank: rng.Intn(geom.Banks() + 1), Row: rng.Intn(16)}
			valid := geom.Valid(row)
			if rng.Intn(2) == 0 {
				err := tab.Lock(row)
				switch {
				case !valid:
					if err == nil || errors.Is(err, ErrLocked) || errors.Is(err, ErrFull) {
						return false
					}
				case model[row]:
					if !errors.Is(err, ErrLocked) {
						return false
					}
				case len(model) >= capacity:
					if !errors.Is(err, ErrFull) {
						return false
					}
				default:
					if err != nil {
						return false
					}
					model[row] = true
				}
			} else if tab.IsLocked(row) != model[row] {
				return false
			}
			if tab.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	if err := (Config{CapacityEntries: 0}).Validate(); err == nil {
		t.Fatal("zero capacity must fail")
	}
	if _, err := New(dram.SmallGeometry(), Config{CapacityEntries: -1}); err == nil {
		t.Fatal("negative capacity must fail")
	}
}

func TestLockInvalidRow(t *testing.T) {
	tab := newTable(t, 4)
	if err := tab.Lock(dram.RowAddr{Bank: 99, Row: 0}); err == nil {
		t.Fatal("invalid row must be rejected")
	}
}
