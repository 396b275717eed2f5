package defense

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/rowhammer"
)

func newRig(t *testing.T, trh int) (*dram.Device, *rowhammer.Engine) {
	t.Helper()
	dev, err := dram.NewDevice(dram.SmallGeometry())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := rowhammer.New(dev, trh)
	if err != nil {
		t.Fatal(err)
	}
	return dev, eng
}

// driveAttack hammers the aggressor n times through the defense: each
// activation is first offered to the defense, then reaches the device.
func driveAttack(t *testing.T, dev *dram.Device, d Defense, agg dram.RowAddr, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		d.OnActivate(agg)
		if _, err := dev.Activate(agg); err != nil {
			t.Fatal(err)
		}
		if _, err := dev.Precharge(agg.Bank); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNoneAllowsEverythingAndFlipsHappen(t *testing.T) {
	dev, eng := newRig(t, 20)
	victim := dram.RowAddr{Bank: 0, Row: 11}
	eng.RegisterTarget(victim, 0)
	d := NewNone()
	driveAttack(t, dev, d, dram.RowAddr{Bank: 0, Row: 10}, 25)
	if set, _ := dev.PeekBit(victim, 0); !set {
		t.Fatal("undefended victim must flip")
	}
	if st := d.Stats(); st.Mitigations != 0 || st.ExtraLatency != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestShadowPreventsFlipsBelowCeiling(t *testing.T) {
	dev, eng := newRig(t, 20)
	victim := dram.RowAddr{Bank: 0, Row: 11}
	eng.RegisterTarget(victim, 0)
	sh, err := NewShadow(eng, dev.Geometry(), 20)
	if err != nil {
		t.Fatal(err)
	}
	driveAttack(t, dev, sh, dram.RowAddr{Bank: 0, Row: 10}, 100)
	if set, _ := dev.PeekBit(victim, 0); set {
		t.Fatal("SHADOW must shuffle before the threshold")
	}
	if sh.Stats().Mitigations == 0 {
		t.Fatal("SHADOW never shuffled")
	}
	if sh.Compromised() {
		t.Fatalf("100 activations is below the ceiling (%dx20)", ShadowCeilingFactor)
	}
}

func TestShadowCompromisedBeyondCeiling(t *testing.T) {
	dev, eng := newRig(t, 20)
	sh, err := NewShadow(eng, dev.Geometry(), 20)
	if err != nil {
		t.Fatal(err)
	}
	agg := dram.RowAddr{Bank: 0, Row: 10}
	driveAttack(t, dev, sh, agg, ShadowCeilingFactor*20)
	if sh.Compromised() {
		t.Fatal("SHADOW holds up to its ceiling")
	}
	before := sh.Stats()
	driveAttack(t, dev, sh, agg, 20)
	if !sh.Compromised() {
		t.Fatal("SHADOW must report compromise past its ceiling")
	}
	if sh.Stats() != before {
		t.Fatalf("past the ceiling SHADOW stops mitigating: %+v, then %+v", before, sh.Stats())
	}
}

// TestShadowLatencyScalesWithGroup: every shuffle relocates the whole
// protected group, one row SWAP each.
func TestShadowLatencyScalesWithGroup(t *testing.T) {
	_, eng := newRig(t, 20)
	sh, _ := NewShadow(eng, dram.SmallGeometry(), 20)
	agg := dram.RowAddr{Bank: 0, Row: 10}
	for i := 0; i < 30; i++ { // three shuffle periods
		sh.OnActivate(agg)
	}
	st := sh.Stats()
	if want := 3 * ShadowGroupRows * dram.DDR4Timing().SwapLatency(); st.Mitigations != 3 || st.ExtraLatency != want {
		t.Fatalf("%d shuffles cost %v, want 3 costing %v", st.Mitigations, st.ExtraLatency, want)
	}
}

func TestPARAMitigatesStatistically(t *testing.T) {
	dev, eng := newRig(t, 1000)
	p := NewPARA(eng)
	agg := dram.RowAddr{Bank: 0, Row: 10}
	driveAttack(t, dev, p, agg, 10000)
	m := p.Stats().Mitigations
	if m < 150 || m > 250 {
		t.Fatalf("PARA mitigations = %d, want ~%g", m, 10000*paraProbability)
	}
}

func TestCounterPerRowMitigatesExactlyAtThreshold(t *testing.T) {
	dev, eng := newRig(t, 50)
	c, err := NewCounterPerRow(eng, dev.Geometry(), 10)
	if err != nil {
		t.Fatal(err)
	}
	agg := dram.RowAddr{Bank: 0, Row: 10}
	victim := dram.RowAddr{Bank: 0, Row: 11}
	eng.RegisterTarget(victim, 0)
	driveAttack(t, dev, c, agg, 100)
	if got := c.Stats().Mitigations; got != 10 {
		t.Fatalf("mitigations = %d, want 10 (every 10 activations)", got)
	}
	if set, _ := dev.PeekBit(victim, 0); set {
		t.Fatal("counter-per-row at TRH/5 must prevent the flip")
	}
}

func TestGrapheneCatchesHotRow(t *testing.T) {
	dev, eng := newRig(t, 100)
	g, err := NewGraphene(eng, dev.Geometry(), 40)
	if err != nil {
		t.Fatal(err)
	}
	agg := dram.RowAddr{Bank: 0, Row: 10}
	victim := dram.RowAddr{Bank: 0, Row: 11}
	eng.RegisterTarget(victim, 0)
	// Interleave the hot row with more background noise rows than the
	// table holds.
	for i := 0; i < 400; i++ {
		driveAttack(t, dev, g, agg, 1)
		driveAttack(t, dev, g, dram.RowAddr{Bank: 0, Row: 20 + i%(2*grapheneTableSize)}, 1)
	}
	if g.Stats().Mitigations == 0 {
		t.Fatal("Graphene must mitigate the hot row")
	}
	if set, _ := dev.PeekBit(victim, 0); set {
		t.Fatal("Graphene must prevent the flip")
	}
}

func TestRowSwapBreaksCorrelation(t *testing.T) {
	dev, eng := newRig(t, 50)
	rrs, err := NewRowSwap(eng, dev.Geometry(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if rrs.Name() != "RRS" {
		t.Fatalf("name: %s", rrs.Name())
	}
	agg := dram.RowAddr{Bank: 0, Row: 10}
	victim := dram.RowAddr{Bank: 0, Row: 11}
	eng.RegisterTarget(victim, 0)
	driveAttack(t, dev, rrs, agg, 100)
	if set, _ := dev.PeekBit(victim, 0); set {
		t.Fatal("RRS must break the aggressor-victim correlation")
	}
}

func TestDefenseInterfaceCompliance(t *testing.T) {
	dev, eng := newRig(t, 50)
	geom := dev.Geometry()
	defenses := []Defense{NewNone(), NewPARA(eng)}
	if sh, err := NewShadow(eng, geom, 1000); err == nil {
		defenses = append(defenses, sh)
	}
	if c, err := NewCounterPerRow(eng, geom, 500); err == nil {
		defenses = append(defenses, c)
	}
	if g, err := NewGraphene(eng, geom, 500); err == nil {
		defenses = append(defenses, g)
	}
	if r, err := NewRowSwap(eng, geom, 250); err == nil {
		defenses = append(defenses, r)
	}
	if len(defenses) != 6 {
		t.Fatalf("constructed %d defenses, want 6", len(defenses))
	}
	agg := dram.RowAddr{Bank: 0, Row: 10}
	for _, d := range defenses {
		if d.Name() == "" {
			t.Fatal("defense must have a name")
		}
		// A first activation on a cold row is far from any mitigation
		// except PARA's draw; the stats count exactly what it did.
		dec := d.OnActivate(agg)
		want := Stats{ExtraLatency: dec.ExtraLatency}
		if dec.Mitigated {
			want.Mitigations = 1
		}
		if st := d.Stats(); st != want {
			t.Fatalf("%s: stats %+v after %+v", d.Name(), st, dec)
		}
	}
}
