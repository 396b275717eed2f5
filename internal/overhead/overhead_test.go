package overhead

import (
	"strings"
	"testing"

	"repro/internal/dram"
)

// table1 computes every Table I row in paper order, as the table1 job's
// shards do.
func table1(t *testing.T) []Report {
	t.Helper()
	var reports []Report
	for _, name := range Table1Frameworks() {
		r, err := Table1Report(DefaultConfig(), name)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, r)
	}
	return reports
}

func TestTable1HasAllPaperRows(t *testing.T) {
	reports := table1(t)
	want := []string{
		"Graphene", "Hydra", "TWiCE", "Counter per Row", "Counter Tree",
		"RRS", "SRS", "SHADOW", "P-PIM", "DRAM-Locker",
	}
	if len(reports) != len(want) {
		t.Fatalf("rows = %d, want %d", len(reports), len(want))
	}
	for i, name := range want {
		if reports[i].Framework != name {
			t.Fatalf("row %d = %s, want %s (paper order)", i, reports[i].Framework, name)
		}
	}
}

func TestDRAMLockerRowMatchesPaper(t *testing.T) {
	r := DRAMLocker(DefaultConfig())
	caps := r.CapacityBytesByKind()
	if caps[MemDRAM] != 0 {
		t.Fatalf("DRAM overhead = %d, paper says 0", caps[MemDRAM])
	}
	// 56KB SRAM lock-table.
	if caps[MemSRAM] < 50*1024 || caps[MemSRAM] > 56*1024 {
		t.Fatalf("SRAM overhead = %d, paper says 56KB", caps[MemSRAM])
	}
	if !r.AreaKnown || r.AreaPercent != 0.02 {
		t.Fatalf("area = %v/%v, paper says 0.02%%", r.AreaKnown, r.AreaPercent)
	}
	if r.Counters != 0 {
		t.Fatal("DRAM-Locker needs no counters")
	}
}

func TestDRAMLockerHasSmallestArea(t *testing.T) {
	for _, r := range table1(t) {
		if r.AreaKnown && r.Framework != "DRAM-Locker" {
			if r.AreaPercent <= 0.02 {
				t.Fatalf("%s area %.3f%% undercuts DRAM-Locker", r.Framework, r.AreaPercent)
			}
		}
	}
}

func TestCounterPerRowScalesWithGeometry(t *testing.T) {
	cfg := DefaultConfig()
	full := CounterPerRow(cfg).TotalBytes()
	small := cfg
	small.Geometry = dram.SmallGeometry()
	tiny := CounterPerRow(small).TotalBytes()
	if tiny >= full {
		t.Fatal("counter storage must scale with row count")
	}
	// 32MB at the paper's 4Mi rows x 8B.
	if full != int64(cfg.Geometry.TotalRows())*8 {
		t.Fatalf("counter bytes = %d", full)
	}
}

func TestPublishedSizesScaleWithCapacity(t *testing.T) {
	cfg := DefaultConfig()
	half := cfg
	half.Geometry.BanksPerRank = 8 // 16GB
	g, gh := Graphene(cfg).TotalBytes(), Graphene(half).TotalBytes()
	if gh >= g {
		t.Fatalf("Graphene at half capacity should shrink: %d vs %d", gh, g)
	}
}

func TestInvolvedMemoryStrings(t *testing.T) {
	cfg := DefaultConfig()
	cases := map[string]string{
		Graphene(cfg).InvolvedMemory():   "CAM-SRAM",
		Hydra(cfg).InvolvedMemory():      "DRAM-SRAM",
		SHADOW(cfg).InvolvedMemory():     "DRAM",
		DRAMLocker(cfg).InvolvedMemory(): "DRAM-SRAM",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("involved memory %q, want %q", got, want)
		}
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		0:             "0",
		512:           "512B",
		56 * 1024:     "56KB",
		4 << 20:       "4MB",
		1<<20 + 1<<19: "1.50MB",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestAreaCells(t *testing.T) {
	cfg := DefaultConfig()
	if got := Graphene(cfg).AreaCell(); got != "1 counter" {
		t.Errorf("Graphene area cell = %q", got)
	}
	if got := CounterPerRow(cfg).AreaCell(); got != "16384 counters" {
		t.Errorf("CounterPerRow area cell = %q", got)
	}
	if got := RRS(cfg).AreaCell(); got != "NULL" {
		t.Errorf("RRS area cell = %q", got)
	}
	if got := DRAMLocker(cfg).AreaCell(); got != "0.02%" {
		t.Errorf("DRAM-Locker area cell = %q", got)
	}
}

func TestCapacityCellMentionsNR(t *testing.T) {
	cfg := DefaultConfig()
	if cell := RRS(cfg).CapacityCell(); !strings.Contains(cell, "NR") {
		t.Errorf("RRS capacity cell %q must flag unreported SRAM", cell)
	}
	if cell := SRS(cfg).CapacityCell(); !strings.Contains(cell, "NR") {
		t.Errorf("SRS capacity cell %q must flag unreported SRAM", cell)
	}
}

func TestHydraMatchesPaperNumbers(t *testing.T) {
	r := Hydra(DefaultConfig())
	caps := r.CapacityBytesByKind()
	if caps[MemSRAM] != 56*1024 {
		t.Fatalf("Hydra SRAM = %d, want 56KB", caps[MemSRAM])
	}
	if caps[MemDRAM] != 4<<20 {
		t.Fatalf("Hydra DRAM = %d, want 4MB", caps[MemDRAM])
	}
}
