package circuit

import (
	"math"
	"testing"
)

func TestNominalCornerIsErrorFree(t *testing.T) {
	r, err := MonteCarlo(0, 10000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.SwapRate != 0 {
		t.Fatalf("nominal corner produced errors: %+v", r)
	}
}

func TestErrorRateGrowsWithVariation(t *testing.T) {
	var prev float64
	for _, v := range []float64{0, 0.05, 0.10, 0.15, 0.20} {
		r, err := MonteCarlo(v, 20000, 7)
		if err != nil {
			t.Fatal(err)
		}
		if r.SwapRate < prev {
			t.Fatalf("swap rate at %.0f%% (%.4f) below rate at smaller variation (%.4f)",
				v*100, r.SwapRate, prev)
		}
		prev = r.SwapRate
	}
}

func TestMatchesPaperBands(t *testing.T) {
	var rs []Result
	for i := range PaperVariations() {
		r, err := PaperPoint(i, 10000, 42)
		if err != nil {
			t.Fatal(err)
		}
		rs = append(rs, r)
	}
	if len(rs) != 3 {
		t.Fatalf("sweep length %d", len(rs))
	}
	// Paper: 0%, 0.14%, 9.6%. Accept the statistical neighborhood.
	if rs[0].SwapRate != 0 {
		t.Errorf("±0%%: rate %.4f, want 0", rs[0].SwapRate)
	}
	if rs[1].SwapRate < 0.0003 || rs[1].SwapRate > 0.005 {
		t.Errorf("±10%%: rate %.4f, want ~0.0014", rs[1].SwapRate)
	}
	if rs[2].SwapRate < 0.07 || rs[2].SwapRate > 0.125 {
		t.Errorf("±20%%: rate %.4f, want ~0.096", rs[2].SwapRate)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	a, _ := MonteCarlo(0.2, 5000, 99)
	b, _ := MonteCarlo(0.2, 5000, 99)
	if a != b {
		t.Fatal("Monte-Carlo must be deterministic per seed")
	}
	c, _ := MonteCarlo(0.2, 5000, 100)
	if a.SwapRate == c.SwapRate {
		t.Fatal("different seeds should differ")
	}
}

func TestMarginDecreasesWithWeakerTransistor(t *testing.T) {
	p := Default45nm()
	nominal := p.Margin(p.Cc, p.Cb, p.Vth, 1.0)
	weak := p.Margin(p.Cc, p.Cb, p.Vth*1.2, 0.9) // higher Vth, sagging WL
	if weak >= nominal {
		t.Fatalf("weak cell margin %.4f must be below nominal %.4f", weak, nominal)
	}
	// Transistor effectively off.
	if m := p.Margin(p.Cc, p.Cb, 10, 1.0); m != 0 {
		t.Fatalf("cut-off transistor margin = %g, want 0", m)
	}
}

func TestMarginIncreasesWithCellCap(t *testing.T) {
	p := Default45nm()
	small := p.Margin(p.Cc*0.8, p.Cb, p.Vth, 1)
	big := p.Margin(p.Cc*1.2, p.Cb, p.Vth, 1)
	if big <= small {
		t.Fatalf("more cell charge must give more margin: %g vs %g", big, small)
	}
}

// TestValidation checks the one operating point every run uses (its
// electrical values are positive and the word-line boost clears the
// threshold) and that MonteCarlo refuses out-of-range variation and
// trial counts, which come from presets.
func TestValidation(t *testing.T) {
	p := Default45nm()
	if p.VDD <= 0 || p.Cc <= 0 || p.Cb <= 0 || p.R0 <= 0 || p.Tsh <= 0 || p.CopiesPerSwap <= 0 {
		t.Fatalf("non-positive parameter in the operating point: %+v", p)
	}
	if p.Vpp <= p.Vth+float64(p.VDD/2) {
		t.Fatalf("word-line boost too low: Vpp=%g Vth=%g", p.Vpp, p.Vth)
	}
	if _, err := MonteCarlo(-0.1, 100, 1); err == nil {
		t.Fatal("negative variation must fail")
	}
	if _, err := MonteCarlo(0.1, 0, 1); err == nil {
		t.Fatal("zero trials must fail")
	}
}

func TestResultBookkeeping(t *testing.T) {
	r, err := MonteCarlo(0.2, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Variation != 0.2 {
		t.Fatalf("variation = %g", r.Variation)
	}
	// The rate is a count of erroneous swaps over the 1000 trials.
	errs := r.SwapRate * 1000
	if errs <= 0 || errs > 1000 || math.Abs(errs-math.Round(errs)) > 1e-9 {
		t.Fatalf("swap rate %g is not a count of 1000 trials", r.SwapRate)
	}
}

func TestPaperReportedRates(t *testing.T) {
	rates := PaperReportedSwapRates()
	if rates[0.0] != 0 || rates[0.10] != 0.0014 || rates[0.20] != 0.096 {
		t.Fatalf("paper rates = %v", rates)
	}
}
