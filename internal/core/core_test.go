package core

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/memmap"
	"repro/internal/nn"
	"repro/internal/pagetable"
	"repro/internal/quant"
)

func newSystem(t *testing.T) *System {
	t.Helper()
	sys, err := NewSystem(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestNewSystemWiresComponents(t *testing.T) {
	sys := newSystem(t)
	if sys.Device() == nil || sys.Hammer() == nil || sys.Controller() == nil || sys.Table() == nil {
		t.Fatal("missing component")
	}
	// The hammer engine must observe activations issued by the controller.
	row := dram.RowAddr{Bank: 0, Row: 10}
	sys.Controller().HammerAttempt(row)
	if sys.Hammer().Count(row) != 1 {
		t.Fatal("hammer engine not observing controller activations")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.TRH = 0
	if _, err := NewSystem(bad); err == nil {
		t.Fatal("TRH 0 must fail")
	}
	bad = DefaultConfig()
	bad.Geometry.RowsPerSubarray = 0
	if _, err := NewSystem(bad); err == nil {
		t.Fatal("bad geometry must fail")
	}
	bad = DefaultConfig()
	bad.Geometry.RowsPerSubarray = 3 // all reserved by the controller
	if _, err := NewSystem(bad); err == nil {
		t.Fatal("a geometry without room for the controller's reserved rows must fail")
	}
}

func layoutFor(t *testing.T, sys *System) (*quant.Model, *memmap.Layout) {
	t.Helper()
	qm := quant.NewModel(nn.NewResNet20(4, 0.125, 9))
	layout, err := memmap.New(qm, sys.Device(), sys.Controller().IsReserved)
	if err != nil {
		t.Fatal(err)
	}
	return qm, layout
}

func TestProtectWeightsLocksAggressors(t *testing.T) {
	sys := newSystem(t)
	_, layout := layoutFor(t, sys)
	locked, err := sys.ProtectWeights(layout)
	if err != nil {
		t.Fatal(err)
	}
	if locked == 0 {
		t.Fatal("nothing locked")
	}
	for _, a := range layout.AggressorRows() {
		if sys.Controller().IsReserved(a) {
			continue
		}
		if !sys.Table().IsLocked(a) {
			t.Fatalf("aggressor %v not locked", a)
		}
	}
	// Weight rows themselves stay unlocked.
	for _, wr := range layout.WeightRows() {
		if sys.Table().IsLocked(wr) {
			t.Fatalf("weight row %v must not be locked", wr)
		}
	}
	// Idempotent: calling again locks nothing new.
	again, err := sys.ProtectWeights(layout)
	if err != nil {
		t.Fatal(err)
	}
	if again != 0 {
		t.Fatalf("second call locked %d rows", again)
	}
}

func TestProtectWeightsStopsHammering(t *testing.T) {
	sys := newSystem(t)
	_, layout := layoutFor(t, sys)
	if _, err := sys.ProtectWeights(layout); err != nil {
		t.Fatal(err)
	}
	victim := layout.WeightRows()[0]
	geom := sys.Device().Geometry()
	for _, agg := range geom.Neighbors(victim, 1) {
		for i := 0; i < sys.Config().TRH*2; i++ {
			activated, _, err := sys.Controller().HammerAttempt(agg)
			if err != nil {
				t.Fatal(err)
			}
			if activated {
				t.Fatalf("activation of locked aggressor %v allowed", agg)
			}
		}
	}
	if sys.Hammer().TotalFlips() != 0 {
		t.Fatal("flips occurred despite protection")
	}
}

func TestProtectPageTable(t *testing.T) {
	sys := newSystem(t)
	ptRows := []dram.RowAddr{{Bank: 1, Row: 10}, {Bank: 1, Row: 14}}
	tab, err := pagetable.New(sys.Device(), ptRows, 8)
	if err != nil {
		t.Fatal(err)
	}
	locked, err := sys.ProtectPageTable(tab)
	if err != nil {
		t.Fatal(err)
	}
	// 8 pages fit in one PT row (256B / 8B = 32 entries), so the table
	// trims to one row with two lockable neighbors.
	if len(tab.PTRows()) != 1 {
		t.Fatalf("PT rows = %d, want 1", len(tab.PTRows()))
	}
	if locked != 2 {
		t.Fatalf("locked %d rows, want 2 (two neighbors of the PT row)", locked)
	}
	geom := sys.Device().Geometry()
	for _, pt := range tab.PTRows() {
		for _, n := range geom.Neighbors(pt, 1) {
			if !sys.Table().IsLocked(n) {
				t.Fatalf("PT neighbor %v not locked", n)
			}
		}
	}
}

func TestProtectRow(t *testing.T) {
	sys := newSystem(t)
	row := dram.RowAddr{Bank: 0, Row: 20}
	if err := sys.ProtectRow(row); err != nil {
		t.Fatal(err)
	}
	if !sys.Table().IsLocked(row) {
		t.Fatal("manual lock missing")
	}
}
