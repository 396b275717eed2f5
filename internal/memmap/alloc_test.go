//go:build !race

package memmap

// Excluded from -race builds, whose instrumentation allocates.

import "testing"

// TestSyncAndWriteAllDoNotAllocate pins that a layout moves its rows
// through the one row buffer it owns: a sync that finds a flipped weight
// and a full rewrite each read 0 allocs.
func TestSyncAndWriteAllDoNotAllocate(t *testing.T) {
	dev, _, l := newRig(t)
	row := l.WeightRows()[0]
	sync := func() {
		if err := dev.FlipBit(row, 0); err != nil {
			t.Fatal(err)
		}
		if changed, err := l.SyncFromDRAM(); err != nil || changed != 1 {
			t.Fatalf("SyncFromDRAM = %d, %v; want 1 changed weight", changed, err)
		}
	}
	writeAll := func() {
		if err := l.WriteAll(); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(5, sync); allocs != 0 {
		t.Errorf("SyncFromDRAM allocates %.1f objects per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(5, writeAll); allocs != 0 {
		t.Errorf("WriteAll allocates %.1f objects per call, want 0", allocs)
	}
}
