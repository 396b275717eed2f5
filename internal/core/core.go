// Package core is the top-level DRAM-Locker API: it assembles the DRAM
// device, the RowHammer fault model, the DRAM-Locker memory controller
// (lock-table + ISA SWAP sequencer) and the protection policies into one
// system a user can drop a workload onto.
//
// The protection policies lock the rows at distance 1 from the protected
// data, the reach of the fault model's blast radius.
//
// Typical use:
//
//	sys, _ := core.NewSystem(core.DefaultConfig())
//	layout, _ := memmap.New(quantModel, sys.Device(), sys.Controller().IsReserved)
//	sys.ProtectWeights(layout)          // lock aggressor-candidate rows
//	...
//	sys.Controller().Submit(req)        // guarded accesses
package core

import (
	"fmt"

	"repro/internal/controller"
	"repro/internal/dram"
	"repro/internal/locktable"
	"repro/internal/memmap"
	"repro/internal/pagetable"
	"repro/internal/rowhammer"
)

// Config holds what a system's callers set: the DRAM geometry and the
// fault model's threshold. The device runs at dram.DDR4Timing and the
// controller at its one operating point (see internal/controller).
type Config struct {
	Geometry dram.Geometry
	// TRH is the RowHammer threshold of the fault model.
	TRH int
}

// DefaultConfig returns the paper's operating point (T_RH = 1k) on a
// small test geometry. Production-scale runs swap in
// dram.DefaultGeometry().
func DefaultConfig() Config {
	return Config{Geometry: dram.SmallGeometry(), TRH: 1000}
}

// System is an assembled DRAM-Locker deployment.
type System struct {
	cfg    Config
	dev    *dram.Device
	hammer *rowhammer.Engine
	ctl    *controller.Controller
}

// NewSystem builds the device, fault model and controller.
func NewSystem(cfg Config) (*System, error) {
	dev, err := dram.NewDevice(cfg.Geometry)
	if err != nil {
		return nil, err
	}
	hammer, err := rowhammer.New(dev, cfg.TRH)
	if err != nil {
		return nil, err
	}
	ctl, err := controller.New(dev)
	if err != nil {
		return nil, err
	}
	return &System{cfg: cfg, dev: dev, hammer: hammer, ctl: ctl}, nil
}

// Device returns the DRAM device.
func (s *System) Device() *dram.Device { return s.dev }

// Hammer returns the RowHammer fault engine.
func (s *System) Hammer() *rowhammer.Engine { return s.hammer }

// Controller returns the DRAM-Locker memory controller.
func (s *System) Controller() *controller.Controller { return s.ctl }

// Table returns the lock-table.
func (s *System) Table() *locktable.Table { return s.ctl.Table() }

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// ProtectWeights locks every row physically adjacent to the layout's
// weight rows (the paper's recommended policy: lock aggressor candidates,
// not the frequently-accessed weights themselves). It returns the number
// of rows locked.
func (s *System) ProtectWeights(layout *memmap.Layout) (int, error) {
	locked := 0
	for _, row := range layout.AggressorRows() {
		if s.ctl.IsReserved(row) || s.ctl.Table().IsLocked(row) {
			continue
		}
		if err := s.ctl.LockRow(row); err != nil {
			return locked, fmt.Errorf("core: locking %v: %w", row, err)
		}
		locked++
	}
	return locked, nil
}

// ProtectPageTable locks the rows adjacent to every page-table row, the
// PTA counterpart of ProtectWeights.
func (s *System) ProtectPageTable(t *pagetable.Table) (int, error) {
	geom := s.dev.Geometry()
	locked := 0
	for _, ptr := range t.PTRows() {
		for _, n := range geom.Neighbors(ptr, 1) {
			if s.ctl.IsReserved(n) || s.ctl.Table().IsLocked(n) {
				continue
			}
			if err := s.ctl.LockRow(n); err != nil {
				return locked, fmt.Errorf("core: locking %v: %w", n, err)
			}
			locked++
		}
	}
	return locked, nil
}

// ProtectRow adds one explicit row to the lock-table (the paper's "users
// can manually add any row that has a high probability of becoming an
// aggressor row").
func (s *System) ProtectRow(row dram.RowAddr) error { return s.ctl.LockRow(row) }
