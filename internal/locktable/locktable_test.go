package locktable

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/dram"
	"repro/internal/stats"
)

func TestCapacityEnforced(t *testing.T) {
	// Two banks of 8192 rows: more rows than the table holds.
	geom := dram.Geometry{Ranks: 1, BanksPerRank: 2, SubarraysPerBank: 16, RowsPerSubarray: 512, RowBytes: 64}
	tab := New(geom)
	for i := range Capacity {
		if err := tab.Lock(geom.FromLinearIndex(i)); err != nil {
			t.Fatalf("lock %d: %v", i, err)
		}
	}
	full := geom.FromLinearIndex(Capacity)
	if err := tab.Lock(full); !errors.Is(err, ErrFull) {
		t.Fatalf("err = %v, want ErrFull", err)
	}
	if tab.Len() != Capacity || tab.IsLocked(full) {
		t.Fatalf("len = %d, locked(%v) = %v", tab.Len(), full, tab.IsLocked(full))
	}
}

func TestSRAMBudgetMatchesPaper(t *testing.T) {
	// The paper's Table I row: 56KB of SRAM.
	if got := Capacity * EntryBytes; got > 56*1024 || got < 50*1024 {
		t.Fatalf("SRAM = %d bytes, want ~56KB", got)
	}
}

// TestModelConformance drives the table with random operations and checks
// it against a plain map reference model: duplicate locks fail with
// ErrLocked, and rows outside the geometry are rejected and never
// locked. (TestCapacityEnforced covers a full table.)
func TestModelConformance(t *testing.T) {
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		geom := dram.SmallGeometry()
		tab := New(geom)
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

func TestLockInvalidRow(t *testing.T) {
	tab := New(dram.SmallGeometry())
	if err := tab.Lock(dram.RowAddr{Bank: 99, Row: 0}); err == nil {
		t.Fatal("invalid row must be rejected")
	}
}
