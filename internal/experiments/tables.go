package experiments

import "repro/internal/circuit"

// MonteCarloRow is one process-variation point of the §IV.D experiment:
// the measured erroneous-SWAP rate next to the paper's reported number.
type MonteCarloRow struct {
	Variation float64
	Measured  float64
	Paper     float64
}

// MonteCarloRowFor computes the i-th variation point of the §IV.D sweep,
// one shard of the mc grid, with the calibrated charge-sharing model.
// circuit.PaperPoint derives each point's seed from the preset seed and
// i alone, so every point is the same whichever shards run.
func MonteCarloRowFor(p Preset, i int) (MonteCarloRow, error) {
	r, err := circuit.PaperPoint(i, p.MCTrials, p.Seed+5)
	if err != nil {
		return MonteCarloRow{}, err
	}
	return MonteCarloRow{
		Variation: r.Variation,
		Measured:  r.SwapRate,
		Paper:     circuit.PaperReportedSwapRates()[r.Variation],
	}, nil
}

// fig7aMaxBFA/fig7aStep are the paper's Fig. 7(a) x-axis (0..8e4 BFA in
// 1e4 steps), shared by every curve shard of the fig7a grid.
const (
	fig7aMaxBFA = 80000
	fig7aStep   = 10000
)
