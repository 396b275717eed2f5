//go:build !race

package pagetable

// Excluded from -race builds, whose instrumentation allocates.

import (
	"testing"

	"repro/internal/dram"
)

// TestMapFrameOfUnmapDoNotAllocate pins that a table moves its rows
// through the one row buffer it owns: a PTA round's Map, FrameOf and
// Unmap read 0 allocs together.
func TestMapFrameOfUnmapDoNotAllocate(t *testing.T) {
	_, tab := newTable(t, 16)
	frame := dram.RowAddr{Bank: 0, Row: 33}
	round := func() {
		if err := tab.Map(5, frame); err != nil {
			t.Fatal(err)
		}
		if got, err := tab.FrameOf(5); err != nil || got != frame {
			t.Fatalf("FrameOf(5) = %v, %v; want %v", got, err, frame)
		}
		if err := tab.Unmap(5); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(5, round); allocs != 0 {
		t.Errorf("Map+FrameOf+Unmap allocates %.1f objects per round, want 0", allocs)
	}
}
