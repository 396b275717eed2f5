package defense

import (
	"testing"

	"repro/internal/dram"
)

func TestHydraSplitsHotGroupsAndMitigates(t *testing.T) {
	dev, eng := newRig(t, 100)
	h, err := NewHydra(eng, dev.Geometry(), 40)
	if err != nil {
		t.Fatal(err)
	}
	agg := dram.RowAddr{Bank: 0, Row: 10}
	victim := dram.RowAddr{Bank: 0, Row: 11}
	eng.RegisterTarget(victim, 0)
	driveAttack(t, dev, h, agg, 200)
	if h.Stats().Mitigations == 0 {
		t.Fatal("Hydra never mitigated the hot row")
	}
	if set, _ := dev.PeekBit(victim, 0); set {
		t.Fatal("Hydra must prevent the flip")
	}
}

func TestHydraColdGroupsStayCheap(t *testing.T) {
	dev, eng := newRig(t, 1000)
	h, err := NewHydra(eng, dev.Geometry(), 400)
	if err != nil {
		t.Fatal(err)
	}
	// Touch many distinct rows a few times each: no group splits, no
	// per-row spill latency.
	for r := 0; r < 32; r++ {
		driveAttack(t, dev, h, dram.RowAddr{Bank: 0, Row: r}, 3)
	}
	if h.Stats().Mitigations != 0 {
		t.Fatal("cold workload must not mitigate")
	}
	if h.Stats().ExtraLatency != 0 {
		t.Fatal("cold workload must stay on shared counters (no spill)")
	}
}

func TestCounterTreeMitigatesHotRow(t *testing.T) {
	dev, eng := newRig(t, 100)
	c, err := NewCounterTree(eng, dev.Geometry(), 40)
	if err != nil {
		t.Fatal(err)
	}
	agg := dram.RowAddr{Bank: 0, Row: 10}
	victim := dram.RowAddr{Bank: 0, Row: 11}
	eng.RegisterTarget(victim, 0)
	driveAttack(t, dev, c, agg, 200)
	if c.Stats().Mitigations == 0 {
		t.Fatal("CounterTree never mitigated")
	}
	if set, _ := dev.PeekBit(victim, 0); set {
		t.Fatal("CounterTree must prevent the flip")
	}
}

func TestCounterTreeValidation(t *testing.T) {
	dev, eng := newRig(t, 100)
	if _, err := NewCounterTree(eng, dev.Geometry(), 0); err == nil {
		t.Fatal("zero TRH must fail")
	}
	if _, err := NewCounterTree(eng, dev.Geometry(), -1); err == nil {
		t.Fatal("negative TRH must fail")
	}
}

func TestTWiCEMitigatesAndPrunes(t *testing.T) {
	dev, eng := newRig(t, 100)
	tw, err := NewTWiCE(eng, dev.Geometry(), 40)
	if err != nil {
		t.Fatal(err)
	}
	agg := dram.RowAddr{Bank: 0, Row: 10}
	victim := dram.RowAddr{Bank: 0, Row: 11}
	eng.RegisterTarget(victim, 0)
	// Hot row hammering interleaved with one-shot cold rows.
	for i := 0; i < 300; i++ {
		driveAttack(t, dev, tw, agg, 1)
		driveAttack(t, dev, tw, dram.RowAddr{Bank: 1, Row: i % 60}, 1)
	}
	if tw.Stats().Mitigations == 0 {
		t.Fatal("TWiCE never mitigated the hot row")
	}
	if set, _ := dev.PeekBit(victim, 0); set {
		t.Fatal("TWiCE must prevent the flip")
	}
	// Once the cold rows go quiet, pruning evicts them: after another
	// prune interval of hot-row-only traffic the table must have shrunk
	// well below the 61 touched rows.
	driveAttack(t, dev, tw, agg, 200)
	if tw.TableSize() >= 30 {
		t.Fatalf("table size %d: pruning ineffective", tw.TableSize())
	}
}

func TestTrackersImplementDefense(t *testing.T) {
	dev, eng := newRig(t, 100)
	geom := dev.Geometry()
	var defenses []Defense
	if h, err := NewHydra(eng, geom, 50); err == nil {
		defenses = append(defenses, h)
	}
	if c, err := NewCounterTree(eng, geom, 50); err == nil {
		defenses = append(defenses, c)
	}
	if tw, err := NewTWiCE(eng, geom, 50); err == nil {
		defenses = append(defenses, tw)
	}
	if len(defenses) != 3 {
		t.Fatalf("built %d trackers", len(defenses))
	}
	for _, d := range defenses {
		if dec := d.OnActivate(dram.RowAddr{Bank: 0, Row: 1}); dec.Mitigated {
			t.Fatalf("%s: first activation of a cold row: %+v", d.Name(), dec)
		}
		if st := d.Stats(); st.Mitigations != 0 {
			t.Fatalf("%s: stats %+v", d.Name(), st)
		}
	}
}
