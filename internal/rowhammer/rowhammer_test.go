package rowhammer

import (
	"testing"

	"repro/internal/dram"
)

func newRig(t *testing.T, trh int) (*dram.Device, *Engine) {
	t.Helper()
	dev, err := dram.NewDevice(dram.SmallGeometry(), dram.DDR4Timing())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(dev, trh)
	if err != nil {
		t.Fatal(err)
	}
	return dev, eng
}

// hammer activates the row n times through the command interface.
func hammer(t *testing.T, dev *dram.Device, a dram.RowAddr, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := dev.Activate(a); err != nil {
			t.Fatal(err)
		}
		if _, err := dev.Precharge(a.Bank); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNoFlipAtThreshold(t *testing.T) {
	dev, eng := newRig(t, 20)
	agg := dram.RowAddr{Bank: 0, Row: 10}
	victim := dram.RowAddr{Bank: 0, Row: 11}
	if err := eng.RegisterTarget(victim, 5); err != nil {
		t.Fatal(err)
	}
	hammer(t, dev, agg, 20)
	if set, _ := dev.PeekBit(victim, 5); set {
		t.Fatal("flip at exactly TRH activations; threshold must be exceeded")
	}
	if eng.TotalFlips() != 0 {
		t.Fatal("no flips expected")
	}
}

func TestFlipPastThresholdHitsBothNeighbors(t *testing.T) {
	dev, eng := newRig(t, 20)
	agg := dram.RowAddr{Bank: 0, Row: 10}
	up := dram.RowAddr{Bank: 0, Row: 9}
	down := dram.RowAddr{Bank: 0, Row: 11}
	eng.RegisterTarget(up, 3)
	eng.RegisterTarget(down, 4)
	hammer(t, dev, agg, 21)
	if set, _ := dev.PeekBit(up, 3); !set {
		t.Fatal("upper victim must flip")
	}
	if set, _ := dev.PeekBit(down, 4); !set {
		t.Fatal("lower victim must flip")
	}
	// One crossing flips each victim's registered bit once.
	if got := eng.TotalFlips(); got != 2 {
		t.Fatalf("flips = %d, want 2", got)
	}
}

func TestCrossingFiresOncePerWindow(t *testing.T) {
	dev, eng := newRig(t, 10)
	agg := dram.RowAddr{Bank: 0, Row: 10}
	victim := dram.RowAddr{Bank: 0, Row: 11}
	eng.RegisterTarget(victim, 0)
	hammer(t, dev, agg, 40) // far past threshold in one window
	// One crossing: the registered bit of row 11 and one drawn bit of
	// row 9.
	if got := eng.TotalFlips(); got != 2 {
		t.Fatalf("flips = %d, want 2 (single crossing per window)", got)
	}
	// The single crossing flipped the bit exactly once.
	if set, _ := dev.PeekBit(victim, 0); !set {
		t.Fatal("victim must be flipped once")
	}
}

func TestWindowResetClearsCounts(t *testing.T) {
	dev, eng := newRig(t, 10)
	agg := dram.RowAddr{Bank: 0, Row: 10}
	hammer(t, dev, agg, 8)
	if eng.Count(agg) != 8 {
		t.Fatalf("count = %d, want 8", eng.Count(agg))
	}
	eng.ResetWindow(dev.Now())
	if eng.Count(agg) != 0 {
		t.Fatal("reset must clear counts")
	}
	// After reset the threshold distance is full again.
	victim := dram.RowAddr{Bank: 0, Row: 11}
	eng.RegisterTarget(victim, 1)
	hammer(t, dev, agg, 10)
	if set, _ := dev.PeekBit(victim, 1); set {
		t.Fatal("flip before re-crossing the threshold")
	}
}

func TestRefreshWindowExpiresAutomatically(t *testing.T) {
	dev, eng := newRig(t, 5)
	agg := dram.RowAddr{Bank: 0, Row: 10}
	hammer(t, dev, agg, 4)
	// Advance past the refresh window; next activation must land in a
	// fresh window with count 1.
	dev.AdvanceClock(dev.Timing().TREFW + 1)
	hammer(t, dev, agg, 1)
	if got := eng.Count(agg); got != 1 {
		t.Fatalf("count after window expiry = %d, want 1", got)
	}
	if eng.Epoch() == 1 {
		t.Fatal("window rollover did not advance the epoch")
	}
}

func TestUntargetedFlipsAreRandomButDeterministic(t *testing.T) {
	victims := []dram.RowAddr{{Bank: 0, Row: 9}, {Bank: 0, Row: 11}}
	// run returns the flipped bit positions of both victim rows.
	run := func() []int {
		dev, eng := newRig(t, 10)
		hammer(t, dev, dram.RowAddr{Bank: 0, Row: 10}, 11)
		if got := eng.TotalFlips(); got != 2 {
			t.Fatalf("flips = %d, want one per victim", got)
		}
		var bits []int
		for _, v := range victims {
			row := make([]byte, dev.Geometry().RowBytes)
			if err := dev.PeekRow(v, row); err != nil {
				t.Fatal(err)
			}
			for i := range len(row) * 8 {
				if row[i/8]&(1<<(i%8)) != 0 {
					bits = append(bits, i)
				}
			}
		}
		return bits
	}
	a := run()
	b := run()
	if len(a) != 2 {
		t.Fatalf("flipped bits %v, want one per victim row", a)
	}
	if a[0] == a[1] {
		t.Fatalf("both victims flipped bit %d; positions must be drawn", a[0])
	}
	if len(b) != len(a) || a[0] != b[0] || a[1] != b[1] {
		t.Fatalf("flip positions %v then %v; they must be seed-deterministic", a, b)
	}
}

func TestResetRowNeutralizesAccumulation(t *testing.T) {
	dev, eng := newRig(t, 10)
	agg := dram.RowAddr{Bank: 0, Row: 10}
	victim := dram.RowAddr{Bank: 0, Row: 11}
	eng.RegisterTarget(victim, 2)
	hammer(t, dev, agg, 9)
	eng.ResetRow(agg) // defense mitigation
	hammer(t, dev, agg, 2)
	if set, _ := dev.PeekBit(victim, 2); set {
		t.Fatal("mitigated row must not flip at 9+2 activations")
	}
}

// TestWindowEpochSemantics pins the epoch-stamped dense reset: a row's
// counter survives arbitrarily many activations within one window,
// clears across a single ResetWindow, and counting restarts from zero in
// the next window.
func TestWindowEpochSemantics(t *testing.T) {
	dev, eng := newRig(t, 1000)
	a := dram.RowAddr{Bank: 0, Row: 10}
	b := dram.RowAddr{Bank: 1, Row: 20}

	hammer(t, dev, a, 7)
	hammer(t, dev, b, 3)
	if eng.Count(a) != 7 || eng.Count(b) != 3 {
		t.Fatalf("counts within window = (%d, %d), want (7, 3)", eng.Count(a), eng.Count(b))
	}
	epoch := eng.Epoch()

	eng.ResetWindow(dev.Now())
	if eng.Epoch() != epoch+1 {
		t.Fatalf("epoch = %d after reset, want %d", eng.Epoch(), epoch+1)
	}
	if eng.Count(a) != 0 || eng.Count(b) != 0 {
		t.Fatal("one ResetWindow must clear every row's count")
	}
	hammer(t, dev, a, 2)
	if eng.Count(a) != 2 || eng.Count(b) != 0 {
		t.Fatalf("fresh-window counts = (%d, %d), want (2, 0)", eng.Count(a), eng.Count(b))
	}
}

// TestEpochWrapClearsStamps drives the window epoch over the uint32 wrap
// and checks a stale stamp from epoch 1 cannot masquerade as current.
func TestEpochWrapClearsStamps(t *testing.T) {
	dev, eng := newRig(t, 1000)
	a := dram.RowAddr{Bank: 0, Row: 10}
	hammer(t, dev, a, 4) // stamps the row at epoch 1
	eng.epoch = ^uint32(0)
	eng.ResetWindow(dev.Now())
	if eng.Epoch() != 1 {
		t.Fatalf("epoch after wrap = %d, want 1 (restart)", eng.Epoch())
	}
	if eng.Count(a) != 0 {
		t.Fatalf("stale epoch-1 stamp leaked a count of %d through the wrap", eng.Count(a))
	}
	hammer(t, dev, a, 2)
	if eng.Count(a) != 2 {
		t.Fatalf("post-wrap count = %d, want 2", eng.Count(a))
	}
}

// TestClearTargetsReusesStorage: the register/clear cycle the DRAM
// executor runs per flip attempt must not leak or misroute targets.
func TestClearTargetsReusesStorage(t *testing.T) {
	dev, eng := newRig(t, 5)
	v1 := dram.RowAddr{Bank: 0, Row: 11}
	v2 := dram.RowAddr{Bank: 0, Row: 21}
	eng.RegisterTarget(v1, 3)
	eng.ClearTargets()
	// After a clear, v1 must be untargeted and a new registration on v2
	// (recycling v1's slot) must only affect v2.
	eng.RegisterTarget(v2, 4)
	hammer(t, dev, dram.RowAddr{Bank: 0, Row: 10}, 6) // crosses next to v1
	hammer(t, dev, dram.RowAddr{Bank: 0, Row: 20}, 6) // crosses next to v2
	if set, _ := dev.PeekBit(v1, 3); set {
		t.Fatal("cleared target must not flip")
	}
	if set, _ := dev.PeekBit(v2, 4); !set {
		t.Fatal("re-registered target must flip")
	}
}

func TestRegisterTargetValidation(t *testing.T) {
	_, eng := newRig(t, 10)
	if err := eng.RegisterTarget(dram.RowAddr{Bank: 99, Row: 0}, 0); err == nil {
		t.Fatal("invalid row must be rejected")
	}
	if err := eng.RegisterTarget(dram.RowAddr{Bank: 0, Row: 0}, 1<<30); err == nil {
		t.Fatal("out-of-range bit must be rejected")
	}
	// Duplicate registrations collapse.
	v := dram.RowAddr{Bank: 0, Row: 3}
	eng.RegisterTarget(v, 5)
	eng.RegisterTarget(v, 5)
	dev, eng2 := newRig(t, 5)
	eng2.RegisterTarget(v, 5)
	eng2.RegisterTarget(v, 5)
	hammer(t, dev, dram.RowAddr{Bank: 0, Row: 2}, 6)
	if set, _ := dev.PeekBit(v, 5); !set {
		t.Fatal("flip expected")
	}
	// A second flip of the same bit would restore it to 0; dedup ensures
	// exactly one flip happened.
}

func TestConfigValidation(t *testing.T) {
	dev, err := dram.NewDevice(dram.SmallGeometry(), dram.DDR4Timing())
	if err != nil {
		t.Fatal(err)
	}
	for _, trh := range []int{0, -1} {
		if _, err := New(dev, trh); err == nil {
			t.Errorf("TRH %d: expected validation error", trh)
		}
	}
}

func TestPublishedThresholdsMatchPaper(t *testing.T) {
	ths := PublishedThresholds()
	want := map[string]int{
		"DDR3 (old)":   139_000,
		"DDR3 (new)":   22_400,
		"DDR4 (old)":   17_500,
		"DDR4 (new)":   10_000,
		"LPDDR4 (old)": 16_800,
		"LPDDR4 (new)": 4_800,
	}
	if len(ths) != len(want) {
		t.Fatalf("got %d generations, want %d", len(ths), len(want))
	}
	for _, th := range ths {
		if want[th.Generation] != th.TRH {
			t.Errorf("%s: TRH %d, want %d", th.Generation, th.TRH, want[th.Generation])
		}
	}
	// The downward trend the paper highlights: LPDDR4(new) needs ~4.5x
	// fewer activations than DDR3(new).
	ratio := float64(want["DDR3 (new)"]) / float64(want["LPDDR4 (new)"])
	if ratio < 4 || ratio > 5 {
		t.Fatalf("DDR3(new)/LPDDR4(new) ratio = %.2f, want ~4.5", ratio)
	}
}
