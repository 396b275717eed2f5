package defense

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/rowhammer"
)

func newRig(t *testing.T, trh int) (*dram.Device, *rowhammer.Engine) {
	t.Helper()
	dev, err := dram.NewDevice(dram.SmallGeometry(), dram.DDR4Timing())
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
// activation is first offered to the defense, and only allowed activations
// reach the device.
func driveAttack(t *testing.T, dev *dram.Device, d Defense, agg dram.RowAddr, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		dec := d.OnActivate(agg, false)
		if !dec.Allow {
			continue
		}
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
	if d.Stats().Activations != 25 || d.Stats().Denials != 0 {
		t.Fatalf("stats = %+v", d.Stats())
	}
}

func TestShadowPreventsFlipsBelowCeiling(t *testing.T) {
	dev, eng := newRig(t, 20)
	victim := dram.RowAddr{Bank: 0, Row: 11}
	eng.RegisterTarget(victim, 0)
	cfg := DefaultShadowConfig(20)
	cfg.GroupSize = 4
	sh, err := NewShadow(eng, dev.Geometry(), cfg)
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
		t.Fatal("100 activations is below the ceiling (10x20=200)")
	}
}

func TestShadowCompromisedBeyondCeiling(t *testing.T) {
	dev, eng := newRig(t, 20)
	cfg := DefaultShadowConfig(20)
	cfg.CeilingFactor = 2 // ceiling = 40
	sh, err := NewShadow(eng, dev.Geometry(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	driveAttack(t, dev, sh, dram.RowAddr{Bank: 0, Row: 10}, 60)
	if !sh.Compromised() {
		t.Fatal("SHADOW must report compromise past its ceiling")
	}
	sh.OnWindowReset()
	if sh.Compromised() {
		t.Fatal("window reset must clear the compromise flag")
	}
}

func TestShadowLatencyScalesWithGroup(t *testing.T) {
	_, eng := newRig(t, 20)
	geom := dram.SmallGeometry()
	small, _ := NewShadow(eng, geom, ShadowConfig{TRH: 20, GroupSize: 2, ShuffleCopyLatency: 100, CeilingFactor: 10})
	large, _ := NewShadow(eng, geom, ShadowConfig{TRH: 20, GroupSize: 20, ShuffleCopyLatency: 100, CeilingFactor: 10})
	agg := dram.RowAddr{Bank: 0, Row: 10}
	for i := 0; i < 10; i++ {
		small.OnActivate(agg, false)
		large.OnActivate(agg, false)
	}
	if large.Stats().ExtraLatency <= small.Stats().ExtraLatency {
		t.Fatal("larger protected group must cost more shuffle latency")
	}
}

func TestPARAMitigatesStatistically(t *testing.T) {
	dev, eng := newRig(t, 1000)
	p, err := NewPARA(eng, 0.3, 42)
	if err != nil {
		t.Fatal(err)
	}
	agg := dram.RowAddr{Bank: 0, Row: 10}
	driveAttack(t, dev, p, agg, 1000)
	m := p.Stats().Mitigations
	if m < 220 || m > 380 {
		t.Fatalf("PARA mitigations = %d, want ~300", m)
	}
}

func TestPARARejectsBadProbability(t *testing.T) {
	_, eng := newRig(t, 10)
	if _, err := NewPARA(eng, 0, 1); err == nil {
		t.Fatal("p=0 must be rejected")
	}
	if _, err := NewPARA(eng, 1, 1); err == nil {
		t.Fatal("p=1 must be rejected")
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
	g, err := NewGraphene(eng, dev.Geometry(), 40, 4)
	if err != nil {
		t.Fatal(err)
	}
	agg := dram.RowAddr{Bank: 0, Row: 10}
	victim := dram.RowAddr{Bank: 0, Row: 11}
	eng.RegisterTarget(victim, 0)
	// Interleave the hot row with background noise rows.
	for i := 0; i < 400; i++ {
		driveAttack(t, dev, g, agg, 1)
		driveAttack(t, dev, g, dram.RowAddr{Bank: 0, Row: 20 + i%8}, 1)
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

func TestWindowResetClearsCounters(t *testing.T) {
	dev, eng := newRig(t, 50)
	c, _ := NewCounterPerRow(eng, dev.Geometry(), 10)
	agg := dram.RowAddr{Bank: 0, Row: 10}
	driveAttack(t, dev, c, agg, 9)
	c.OnWindowReset()
	driveAttack(t, dev, c, agg, 9)
	if c.Stats().Mitigations != 0 {
		t.Fatal("window reset must clear progress toward mitigation")
	}
}

func TestDefenseInterfaceCompliance(t *testing.T) {
	dev, eng := newRig(t, 50)
	geom := dev.Geometry()
	defenses := []Defense{NewNone()}
	if sh, err := NewShadow(eng, geom, DefaultShadowConfig(1000)); err == nil {
		defenses = append(defenses, sh)
	}
	if p, err := NewPARA(eng, 0.01, 2); err == nil {
		defenses = append(defenses, p)
	}
	if c, err := NewCounterPerRow(eng, geom, 500); err == nil {
		defenses = append(defenses, c)
	}
	if g, err := NewGraphene(eng, geom, 500, 8); err == nil {
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
		d.OnActivate(agg, false)
		d.OnWindowReset()
		if d.Name() == "" {
			t.Fatal("defense must have a name")
		}
		if d.Stats().Activations == 0 {
			t.Fatalf("%s did not record activation", d.Name())
		}
	}
}
