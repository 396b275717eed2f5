// Package circuit replaces the paper's Cadence Spectre Monte-Carlo study
// (§IV.D) with an analytic charge-sharing model of the in-DRAM SWAP.
//
// A RowClone copy succeeds when, for the worst-case cell of the row, the
// bit-line deviation developed during charge sharing exceeds the sense
// amplifier's offset. The deviation is
//
//	dV = (VDD/2) * Cc/(Cc+Cb) * eta
//
// where eta = 1 - exp(-tShare/tau) is the charge-transfer efficiency and
// tau = R_on * Cc the access time constant. R_on degrades quadratically
// with lost gate overdrive, R_on = R0 * (Vov0/Vov)^2, which is what makes
// failure probability grow super-linearly with process variation — the
// effect the paper observes (0% at nominal, 0.14% at +-10%, 9.6% at +-20%).
//
// Process variation of +-X% is modelled as independent Gaussian variation
// with 3*sigma = X% on every component the paper lists: cell capacitance,
// bit-line capacitance, word-line (gate overdrive) level and the access
// transistor threshold voltage, plus a fixed sense-amplifier offset spread.
package circuit

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Params holds the nominal 45nm-class operating point of the model.
type Params struct {
	VDD  float64 // supply voltage (V)
	Cc   float64 // cell capacitance (F)
	Cb   float64 // bit-line capacitance (F)
	Vpp  float64 // boosted word-line voltage (V)
	Vth  float64 // access transistor threshold (V)
	R0   float64 // nominal access transistor on-resistance (Ohm)
	Tsh  float64 // charge-sharing window (s)
	Voff float64 // sense amplifier offset the margin must beat (V)
	// SenseSigma is the fixed (variation-independent) sigma of the sense
	// amplifier offset in volts.
	SenseSigma float64
	// CopiesPerSwap is the number of RowClone copies per SWAP (three).
	CopiesPerSwap int
}

// Default45nm returns the calibrated 45nm NCSU-PDK-class operating point.
func Default45nm() Params {
	return Params{
		VDD:           1.1,
		Cc:            22e-15,
		Cb:            85e-15,
		Vpp:           2.2,
		Vth:           0.46,
		R0:            9.0e4,
		Tsh:           4.0e-9,
		Voff:          0.0758,
		SenseSigma:    0.004,
		CopiesPerSwap: 3,
	}
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.VDD <= 0 || p.Cc <= 0 || p.Cb <= 0 || p.R0 <= 0 || p.Tsh <= 0 {
		return fmt.Errorf("circuit: non-positive electrical parameter: %+v", p)
	}
	if p.Vpp <= p.Vth+float64(p.VDD/2) {
		return fmt.Errorf("circuit: word-line boost too low: Vpp=%g Vth=%g", p.Vpp, p.Vth)
	}
	if p.CopiesPerSwap <= 0 {
		return fmt.Errorf("circuit: CopiesPerSwap must be positive, got %d", p.CopiesPerSwap)
	}
	return nil
}

// overdrive returns the access transistor gate overdrive for a threshold.
func (p Params) overdrive(vth float64) float64 { return p.Vpp - vth - float64(p.VDD/2) }

// Margin computes the bit-line sense margin for one sampled cell instance.
func (p Params) Margin(cc, cb, vth, vwlScale float64) float64 {
	vov0 := p.overdrive(p.Vth)
	vov := float64(p.Vpp*vwlScale) - vth - float64(p.VDD/2)
	if vov <= 0.02 {
		// Transistor effectively off within the sharing window.
		return 0
	}
	ron := p.R0 * (vov0 / vov) * (vov0 / vov)
	tau := ron * cc
	eta := 1 - math.Exp(-p.Tsh/tau)
	return (p.VDD / 2) * cc / (cc + cb) * eta
}

// Result reports one Monte-Carlo run.
type Result struct {
	Variation float64 // the +-X variation fraction (0.0, 0.1, 0.2)
	SwapRate  float64 // fraction of swaps with >= 1 erroneous copy
}

// MonteCarlo runs `trials` SWAP instances at the given +-variation fraction
// (e.g. 0.20 for +-20%) and returns the erroneous-SWAP rate. Each of the
// three copies in a SWAP samples an independent worst-case cell, matching
// the paper's per-operation error accounting.
func MonteCarlo(p Params, variation float64, trials int, seed uint64) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, err
	}
	if variation < 0 || variation > 0.5 {
		return Result{}, fmt.Errorf("circuit: variation must be in [0, 0.5], got %g", variation)
	}
	if trials <= 0 {
		return Result{}, fmt.Errorf("circuit: trials must be positive, got %d", trials)
	}
	rng := stats.NewRNG(seed)
	sigma := variation / 3 // +-X% interpreted as 3-sigma bounds
	swapErrors := 0
	for t := 0; t < trials; t++ {
		swapErred := false
		for c := 0; c < p.CopiesPerSwap; c++ {
			cc := p.Cc * (1 + rng.Normal(0, sigma))
			cb := p.Cb * (1 + rng.Normal(0, sigma))
			vth := p.Vth * (1 + rng.Normal(0, sigma))
			vwl := 1 + rng.Normal(0, sigma)
			if cc < p.Cc*0.1 {
				cc = p.Cc * 0.1
			}
			if cb < p.Cb*0.1 {
				cb = p.Cb * 0.1
			}
			m := p.Margin(cc, cb, vth, vwl)
			if off := p.Voff + rng.Normal(0, p.SenseSigma); m < off {
				swapErred = true
			}
		}
		if swapErred {
			swapErrors++
		}
	}
	return Result{Variation: variation, SwapRate: float64(swapErrors) / float64(trials)}, nil
}

// PaperVariations returns the §IV.D process-variation sweep (±0/10/20%).
func PaperVariations() []float64 {
	return []float64{0.0, 0.10, 0.20}
}

// PaperPoint runs the i-th variation of the §IV.D experiment: trials
// SWAPs at ±0%, ±10% or ±20% variation, for which the paper reports
// erroneous-SWAP rates of 0%, 0.14% and 9.6% (10,000 trials each). The
// point's seed depends only on seed and i, so points computed
// independently (as the mc grid's shards are) never depend on each other.
func PaperPoint(p Params, i, trials int, seed uint64) (Result, error) {
	vs := PaperVariations()
	if i < 0 || i >= len(vs) {
		return Result{}, fmt.Errorf("circuit: sweep point %d out of range [0,%d)", i, len(vs))
	}
	return MonteCarlo(p, vs[i], trials, seed+uint64(i)*7919)
}

// PaperReportedSwapRates returns the paper's §IV.D numbers for comparison.
func PaperReportedSwapRates() map[float64]float64 {
	return map[float64]float64{0.0: 0.0, 0.10: 0.0014, 0.20: 0.096}
}
