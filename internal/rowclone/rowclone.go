// Package rowclone implements the in-DRAM bulk copy (RowClone FPM, Seshadri
// et al. MICRO'13). The DRAM-Locker SWAP is three such copies through a
// reserved buffer row (paper Fig. 4(b)); it runs as isa.SwapProgram on the
// controller's Sequencer, which issues each copy through Engine.Copy.
//
// Copy carries the process-variation failure model from §IV.D: each row
// copy independently fails with a configurable probability (0.14% at ±10%
// variation, 9.6% at ±20%); a failed copy leaves the destination row with
// sporadic bit errors, exactly as charge-sharing failures in the array
// would.
package rowclone

import (
	"errors"
	"fmt"

	"repro/internal/dram"
	"repro/internal/stats"
)

// ErrCrossSubarray is returned when a copy spans subarrays, which
// RowClone's fast parallel mode cannot do.
var ErrCrossSubarray = errors.New("rowclone: rows not in the same subarray")

// Config parameterises the copy engine.
type Config struct {
	// CopyErrorProb is the probability that a single row copy is erroneous
	// (paper §IV.D: 0 at nominal, 0.0014 at ±10%, 0.096 at ±20% variation).
	CopyErrorProb float64
	// ErrorBits is how many bit positions are corrupted by an erroneous
	// copy. The Monte-Carlo study shows failures are isolated cells, so
	// the default is 1.
	ErrorBits int
	// Seed drives error injection.
	Seed uint64
}

// DefaultConfig returns an error-free engine (nominal process corner).
func DefaultConfig() Config {
	return Config{CopyErrorProb: 0, ErrorBits: 1, Seed: 0xc10e}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.CopyErrorProb < 0 || c.CopyErrorProb > 1 {
		return fmt.Errorf("rowclone: CopyErrorProb must be in [0,1], got %g", c.CopyErrorProb)
	}
	if c.ErrorBits < 0 {
		return fmt.Errorf("rowclone: ErrorBits must be >= 0, got %d", c.ErrorBits)
	}
	return nil
}

// Engine performs RowClone copies on a device.
type Engine struct {
	dev *dram.Device
	cfg Config
	rng *stats.RNG
}

// New builds an engine over the device.
func New(dev *dram.Device, cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Engine{dev: dev, cfg: cfg, rng: stats.NewRNG(cfg.Seed)}, nil
}

// Copy performs one RowClone FPM copy src -> dst, injecting an error with
// the configured probability. It reports whether the copy was erroneous
// and the latency spent.
func (e *Engine) Copy(src, dst dram.RowAddr) (erred bool, lat dram.Picoseconds, err error) {
	geom := e.dev.Geometry()
	if !geom.SameSubarray(src, dst) {
		return false, 0, fmt.Errorf("%w: %v -> %v", ErrCrossSubarray, src, dst)
	}
	lat, err = e.dev.RowCloneCopy(src, dst)
	if err != nil {
		return false, lat, err
	}
	if e.rng.Bernoulli(e.cfg.CopyErrorProb) {
		for i := 0; i < e.cfg.ErrorBits; i++ {
			bit := e.rng.Intn(geom.RowBytes * 8)
			if ferr := e.dev.FlipBit(dst, bit); ferr != nil {
				return true, lat, ferr
			}
		}
		return true, lat, nil
	}
	return false, lat, nil
}
