// Package rowclone implements the in-DRAM bulk copy (RowClone FPM, Seshadri
// et al. MICRO'13). The DRAM-Locker SWAP is three such copies through a
// reserved buffer row (paper Fig. 4(b)); it runs as isa.SwapProgram on the
// controller's Sequencer, which issues each copy through Engine.Copy.
//
// Every copy is exact: the model is the nominal process corner. The
// erroneous copies of §IV.D live in internal/circuit's Monte-Carlo, whose
// ±20% SWAP failure rate (experiments.Fig8Leak) attack.DRAMExecutor
// applies as the chance that a denied flip lands anyway.
package rowclone

import (
	"errors"
	"fmt"

	"repro/internal/dram"
)

// ErrCrossSubarray is returned when a copy spans subarrays, which
// RowClone's fast parallel mode cannot do.
var ErrCrossSubarray = errors.New("rowclone: rows not in the same subarray")

// Engine performs RowClone copies on a device.
type Engine struct {
	dev *dram.Device
}

// New builds an engine over the device.
func New(dev *dram.Device) *Engine { return &Engine{dev: dev} }

// Copy performs one RowClone FPM copy src -> dst and reports the latency
// spent.
func (e *Engine) Copy(src, dst dram.RowAddr) (dram.Picoseconds, error) {
	if !e.dev.Geometry().SameSubarray(src, dst) {
		return 0, fmt.Errorf("%w: %v -> %v", ErrCrossSubarray, src, dst)
	}
	return e.dev.RowCloneCopy(src, dst)
}
