// Package rowclone implements the in-DRAM bulk copy (RowClone FPM, Seshadri
// et al. MICRO'13) and the DRAM-Locker SWAP operation built from it: three
// row copies through a reserved buffer row that exchange a locked row's data
// with a free unlocked row (paper Fig. 4(b)).
//
// SWAP is the paper's key primitive, so the package also carries the
// process-variation failure model from §IV.D: each row copy independently
// fails with a configurable probability (0.14% at ±10% variation, 9.6% at
// ±20%); a failed copy leaves the destination row with sporadic bit errors,
// exactly as charge-sharing failures in the array would.
package rowclone

import (
	"errors"
	"fmt"

	"repro/internal/dram"
	"repro/internal/stats"
)

// ErrCrossSubarray is returned when a copy or swap spans subarrays, which
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

// Stats counts copy operations and injected failures.
type Stats struct {
	Copies      int64
	CopyErrors  int64
	Swaps       int64
	SwapErrors  int64 // swaps in which at least one copy erred
	TotalTimePs dram.Picoseconds
}

// Engine performs RowClone copies and SWAPs on a device.
type Engine struct {
	dev   *dram.Device
	cfg   Config
	rng   *stats.RNG
	stats Stats
}

// New builds an engine over the device.
func New(dev *dram.Device, cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Engine{dev: dev, cfg: cfg, rng: stats.NewRNG(cfg.Seed)}, nil
}

// Stats returns a copy of the operation counters.
func (e *Engine) Stats() Stats { return e.stats }

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// SetCopyErrorProb adjusts the per-copy error probability at run time
// (experiments sweep the process corner).
func (e *Engine) SetCopyErrorProb(p float64) error {
	if p < 0 || p > 1 {
		return fmt.Errorf("rowclone: CopyErrorProb must be in [0,1], got %g", p)
	}
	e.cfg.CopyErrorProb = p
	return nil
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
	e.stats.Copies++
	e.stats.TotalTimePs += lat
	if e.rng.Bernoulli(e.cfg.CopyErrorProb) {
		e.stats.CopyErrors++
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

// SwapResult reports the outcome of one SWAP operation.
type SwapResult struct {
	// Erred is true when any of the three copies was erroneous.
	Erred bool
	// CopyErrors is how many of the three copies erred.
	CopyErrors int
	// Latency is the total SWAP latency (three RowClone copies).
	Latency dram.Picoseconds
}

// Swap exchanges the contents of rows a and b through the buffer row
// (paper Fig. 4(b)): (1) a -> buffer, (2) b -> a, (3) buffer -> b.
// All three rows must share a subarray.
func (e *Engine) Swap(a, b, buffer dram.RowAddr) (SwapResult, error) {
	geom := e.dev.Geometry()
	if !geom.SameSubarray(a, b) || !geom.SameSubarray(a, buffer) {
		return SwapResult{}, fmt.Errorf("%w: swap %v <-> %v via %v", ErrCrossSubarray, a, b, buffer)
	}
	if a == b || a == buffer || b == buffer {
		return SwapResult{}, fmt.Errorf("rowclone: swap rows must be distinct: %v, %v, %v", a, b, buffer)
	}
	var res SwapResult
	steps := [][2]dram.RowAddr{{a, buffer}, {b, a}, {buffer, b}}
	for _, s := range steps {
		erred, lat, err := e.Copy(s[0], s[1])
		if err != nil {
			return res, err
		}
		res.Latency += lat
		if erred {
			res.CopyErrors++
		}
	}
	res.Erred = res.CopyErrors > 0
	e.stats.Swaps++
	if res.Erred {
		e.stats.SwapErrors++
	}
	return res, nil
}

// SwapErrorProb returns the probability that a SWAP (three copies) has at
// least one erroneous copy under per-copy error probability p.
func SwapErrorProb(p float64) float64 {
	q := 1 - p
	return 1 - float64(q*q*q)
}
