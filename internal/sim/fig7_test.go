package sim

import (
	"math"
	"testing"
)

func TestShadowLatencyMonotoneInAttackIntensity(t *testing.T) {
	cfg := DefaultLatencyConfig()
	var prev LatencyPoint
	for n := 0; n <= 80000; n += 5000 {
		pt := ShadowLatency(cfg, 1000, n)
		if pt.Latency < prev.Latency {
			t.Fatalf("latency decreased at n=%d", n)
		}
		prev = pt
	}
}

func TestShadowSlopeInverseInThreshold(t *testing.T) {
	cfg := DefaultLatencyConfig()
	n := 8000 // below every ceiling
	l1 := ShadowLatency(cfg, 1000, n).Latency
	l8 := ShadowLatency(cfg, 8000, n).Latency
	if l1 <= l8 {
		t.Fatalf("SHADOW1000 (%v) must cost more than SHADOW8000 (%v)", l1, l8)
	}
	// The ratio should be roughly the threshold ratio (8x).
	ratio := float64(l1) / float64(l8)
	if ratio < 6 || ratio > 10 {
		t.Fatalf("slope ratio %.1f, want ~8", ratio)
	}
}

func TestShadowDefenseThresholdPlateaus(t *testing.T) {
	cfg := DefaultLatencyConfig()
	trh := 1000
	ceiling := cfg.ShadowCeilingFactor * trh
	below := ShadowLatency(cfg, trh, ceiling)
	above := ShadowLatency(cfg, trh, ceiling*2)
	if !above.Compromised {
		t.Fatal("beyond the ceiling SHADOW must be compromised")
	}
	if below.Compromised {
		t.Fatal("at the ceiling SHADOW is not yet compromised")
	}
	if above.Latency != below.Latency {
		t.Fatal("past the ceiling, delay escalation must halt (plateau)")
	}
}

func TestLockerLatencyBelowShadowAndUnbounded(t *testing.T) {
	cfg := DefaultLatencyConfig()
	for n := 10000; n <= 80000; n += 10000 {
		dl := LockerLatency(cfg, n)
		if dl.Compromised {
			t.Fatal("DRAM-Locker has no defense threshold")
		}
		for _, trh := range []int{1000, 2000, 4000, 8000} {
			sh := ShadowLatency(cfg, trh, n)
			if dl.Latency >= sh.Latency {
				t.Fatalf("n=%d trh=%d: DL latency %v not below SHADOW %v",
					n, trh, dl.Latency, sh.Latency)
			}
		}
	}
}

func TestFig7aCurveSet(t *testing.T) {
	// The fig7a job's shards: SHADOW at every paper threshold, then DL.
	cfg := DefaultLatencyConfig()
	var curves []Fig7aCurve
	for _, trh := range PaperThresholds() {
		c, err := ShadowCurve(cfg, trh, 80000, 20000)
		if err != nil {
			t.Fatal(err)
		}
		curves = append(curves, c)
	}
	dl, err := LockerCurve(cfg, 80000, 20000)
	if err != nil {
		t.Fatal(err)
	}
	curves = append(curves, dl)
	if len(curves) != 5 {
		t.Fatalf("curves = %d, want 4 SHADOW + 1 DL", len(curves))
	}
	labels := map[string]bool{}
	for _, c := range curves {
		labels[c.Label] = true
		if len(c.Points) != 5 {
			t.Fatalf("%s has %d points", c.Label, len(c.Points))
		}
		if c.Points[0].Latency != 0 {
			t.Fatalf("%s latency at 0 BFA = %v", c.Label, c.Points[0].Latency)
		}
	}
	for _, want := range []string{"SHADOW1000", "SHADOW2000", "SHADOW4000", "SHADOW8000", "DL"} {
		if !labels[want] {
			t.Fatalf("missing curve %s", want)
		}
	}
	if dl := curves[4]; dl.TRH != 1000 {
		t.Fatalf("DL must be labelled at the smallest threshold, got %d", dl.TRH)
	}
}

func TestFig7aValidation(t *testing.T) {
	if _, err := ShadowCurve(DefaultLatencyConfig(), 1000, 0, 10); err == nil {
		t.Fatal("zero max must fail")
	}
	if _, err := LockerCurve(DefaultLatencyConfig(), 0, 10); err == nil {
		t.Fatal("zero max must fail")
	}
	bad := DefaultLatencyConfig()
	bad.ProtectedRows = 0
	if _, err := ShadowCurve(bad, 1000, 100, 10); err == nil {
		t.Fatal("bad config must fail")
	}
	if _, err := LockerCurve(bad, 100, 10); err == nil {
		t.Fatal("bad config must fail")
	}
}

func TestLockerDefenseDaysCalibration(t *testing.T) {
	cfg := DefaultDefenseTimeConfig()
	// The paper's headline numbers: >500 days at TRH=1k, >4000 at 8k.
	if d := LockerDefenseDays(cfg, 1000); d < 500 || d > 700 {
		t.Fatalf("DL @1k = %.1f days, want >500 (calibrated ~550)", d)
	}
	if d := LockerDefenseDays(cfg, 8000); d < 4000 {
		t.Fatalf("DL @8k = %.1f days, want >4000", d)
	}
}

func TestDefenseDaysGrowWithThreshold(t *testing.T) {
	cfg := DefaultDefenseTimeConfig()
	var prevDL, prevSh float64
	for _, trh := range []int{1000, 2000, 4000, 8000} {
		dl := LockerDefenseDays(cfg, trh)
		sh := ShadowDefenseDays(cfg, trh)
		if dl <= prevDL || sh <= prevSh {
			t.Fatalf("defense time must grow with threshold")
		}
		if dl <= sh {
			t.Fatalf("trh=%d: DL (%.1f) must outlast SHADOW (%.1f)", trh, dl, sh)
		}
		prevDL, prevSh = dl, sh
	}
}

func TestFig7bBars(t *testing.T) {
	cfg := DefaultDefenseTimeConfig()
	var bars []Fig7bBar
	for _, trh := range PaperThresholds() {
		bar, err := Fig7bBarAt(cfg, trh)
		if err != nil {
			t.Fatal(err)
		}
		bars = append(bars, bar)
	}
	if len(bars) != 4 {
		t.Fatalf("bars = %d", len(bars))
	}
	for i, trh := range []int{1000, 2000, 4000, 8000} {
		if bars[i].Threshold != trh {
			t.Fatalf("bar %d threshold %d", i, bars[i].Threshold)
		}
		if bars[i].LockerDays != LockerDefenseDays(cfg, trh) || bars[i].ShadowDays != ShadowDefenseDays(cfg, trh) {
			t.Fatalf("bar %d: %+v", i, bars[i])
		}
	}
	if _, err := Fig7bBarAt(cfg, 0); err == nil {
		t.Fatal("zero threshold must fail")
	}
}

func TestSilentExposureProb(t *testing.T) {
	if p := SilentExposureProb(0); p != 0 {
		t.Fatalf("p(0) = %g", p)
	}
	if p := SilentExposureProb(1); p != 1 {
		t.Fatalf("p(1) = %g", p)
	}
	// e=0.1: 3*0.01*0.9 + 0.001 = 0.028.
	if p := SilentExposureProb(0.1); math.Abs(p-0.028) > 1e-12 {
		t.Fatalf("p(0.1) = %g, want 0.028", p)
	}
}

func TestSwapErrorProbabilityReExport(t *testing.T) {
	if got := SwapErrorProbability(0.1); math.Abs(got-(1-0.9*0.9*0.9)) > 1e-12 {
		t.Fatalf("SwapErrorProbability(0.1) = %g", got)
	}
}

func TestDefenseTimeValidation(t *testing.T) {
	bad := DefaultDefenseTimeConfig()
	bad.TargetProb = 0
	if _, err := Fig7bBarAt(bad, 1000); err == nil {
		t.Fatal("zero target probability must fail")
	}
	bad = DefaultDefenseTimeConfig()
	bad.CopyErrorProb = 2
	if _, err := Fig7bBarAt(bad, 1000); err == nil {
		t.Fatal("invalid copy error probability must fail")
	}
}

func TestWindowsPerDay(t *testing.T) {
	cfg := DefaultDefenseTimeConfig()
	// 64ms windows: 86400/0.064 = 1.35e6.
	got := cfg.WindowsPerDay()
	if math.Abs(got-1.35e6) > 1e4 {
		t.Fatalf("windows/day = %g", got)
	}
}
