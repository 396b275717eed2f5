package dram

import (
	"errors"
	"fmt"
)

// CommandKind enumerates the DRAM bus commands the model understands.
type CommandKind uint8

// DRAM command kinds.
const (
	CmdACT CommandKind = iota // activate a row into the bank's row buffer
	CmdPRE                    // precharge (close) the bank's open row
	CmdRD                     // read a burst from the open row
	CmdWR                     // write a burst into the open row
	CmdREF                    // refresh; resets RowHammer activation counts
)

// String returns the JEDEC mnemonic of the command.
func (k CommandKind) String() string {
	switch k {
	case CmdACT:
		return "ACT"
	case CmdPRE:
		return "PRE"
	case CmdRD:
		return "RD"
	case CmdWR:
		return "WR"
	case CmdREF:
		return "REF"
	default:
		return fmt.Sprintf("CMD(%d)", uint8(k))
	}
}

// Errors returned by the device state machine.
var (
	ErrBankOpen     = errors.New("dram: ACT issued to a bank with an open row")
	ErrBankClosed   = errors.New("dram: RD/WR issued to a bank with no open row")
	ErrBadAddress   = errors.New("dram: address outside geometry")
	ErrBadColumn    = errors.New("dram: column outside row")
	ErrWrongOpenRow = errors.New("dram: RD/WR issued to a different row than the open one")
)

// ActivateObserver is notified of every row activation that reaches the
// array. The RowHammer engine registers itself here; so can tests.
type ActivateObserver interface {
	ObserveActivate(addr RowAddr, now Picoseconds)
}

// bankState tracks the open row of one bank.
type bankState struct {
	open    bool
	openRow int
}

// Device is a command-level DRAM channel model with bit-accurate storage.
//
// Storage is sparse: rows hold nil until first written, and a nil row reads
// as all zeroes. This keeps even 32GB geometries cheap to instantiate.
//
// Device is not safe for concurrent use; the memory controller serialises
// command issue exactly as a real single-channel bus would.
type Device struct {
	geom   Geometry
	timing Timing

	banks []bankState
	rows  map[int][]byte // LinearIndex -> row data

	now Picoseconds // device-local clock, advanced by command latencies

	observers []ActivateObserver

	energyPJ float64 // command energy accumulated so far
}

// NewDevice constructs a device with the given geometry and timing.
func NewDevice(geom Geometry, timing Timing) (*Device, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	if err := timing.Validate(); err != nil {
		return nil, err
	}
	return &Device{
		geom:   geom,
		timing: timing,
		banks:  make([]bankState, geom.Banks()),
		rows:   make(map[int][]byte),
	}, nil
}

// Geometry returns the device geometry.
func (d *Device) Geometry() Geometry { return d.geom }

// Timing returns the device timing parameters.
func (d *Device) Timing() Timing { return d.timing }

// Now returns the device-local clock.
func (d *Device) Now() Picoseconds { return d.now }

// AdvanceClock moves the device clock forward by delta without issuing a
// command (e.g. idle time between requests).
func (d *Device) AdvanceClock(delta Picoseconds) {
	if delta > 0 {
		d.now += delta
	}
}

// EnergyPJ returns the energy of every command issued so far, in
// picojoules.
func (d *Device) EnergyPJ() float64 { return d.energyPJ }

// AddActivateObserver registers an observer for row activations.
func (d *Device) AddActivateObserver(o ActivateObserver) {
	d.observers = append(d.observers, o)
}

// rowData returns the backing slice for a row, allocating it if needed.
func (d *Device) rowData(a RowAddr) []byte {
	idx := d.geom.LinearIndex(a)
	row := d.rows[idx]
	if row == nil {
		row = make([]byte, d.geom.RowBytes)
		d.rows[idx] = row
	}
	return row
}

// rowDataIfPresent returns the row slice or nil if never written.
func (d *Device) rowDataIfPresent(a RowAddr) []byte {
	return d.rows[d.geom.LinearIndex(a)]
}

// AllocatedRows returns how many rows have backing storage (for tests).
func (d *Device) AllocatedRows() int { return len(d.rows) }

// Activate opens a row. The bank must be precharged. The activation is
// reported to observers (RowHammer tracking) before returning.
func (d *Device) Activate(a RowAddr) (Picoseconds, error) {
	if !d.geom.Valid(a) {
		return 0, fmt.Errorf("%w: %v", ErrBadAddress, a)
	}
	b := &d.banks[a.Bank]
	if b.open {
		return 0, fmt.Errorf("%w: bank %d row %d", ErrBankOpen, a.Bank, b.openRow)
	}
	b.open = true
	b.openRow = a.Row
	d.now += d.timing.TRCD
	d.energyPJ += d.timing.ActEnergyPJ
	for _, o := range d.observers {
		o.ObserveActivate(a, d.now)
	}
	return d.timing.TRCD, nil
}

// Precharge closes the open row of a bank. Precharging an already-closed
// bank is a no-op in real devices and here too.
func (d *Device) Precharge(bank int) (Picoseconds, error) {
	if bank < 0 || bank >= len(d.banks) {
		return 0, fmt.Errorf("%w: bank %d", ErrBadAddress, bank)
	}
	b := &d.banks[bank]
	if !b.open {
		return 0, nil
	}
	b.open = false
	d.now += d.timing.TRP
	d.energyPJ += d.timing.PreEnergyPJ
	return d.timing.TRP, nil
}

// OpenRow returns the open row of a bank, or ok=false if precharged.
func (d *Device) OpenRow(bank int) (row int, ok bool) {
	if bank < 0 || bank >= len(d.banks) {
		return 0, false
	}
	b := d.banks[bank]
	return b.openRow, b.open
}

// Read copies n bytes starting at column col from the open row of a.Bank
// into dst. The row must already be activated and match a.Row.
func (d *Device) Read(a RowAddr, col int, dst []byte) (Picoseconds, error) {
	if err := d.checkOpen(a, col, len(dst)); err != nil {
		return 0, err
	}
	src := d.rowDataIfPresent(a)
	if src == nil {
		for i := range dst {
			dst[i] = 0
		}
	} else {
		copy(dst, src[col:col+len(dst)])
	}
	d.now += d.timing.ReadLatency()
	d.energyPJ += d.timing.RdWrEnergyPJ
	return d.timing.ReadLatency(), nil
}

// Write stores src into the open row of a.Bank at column col.
func (d *Device) Write(a RowAddr, col int, src []byte) (Picoseconds, error) {
	if err := d.checkOpen(a, col, len(src)); err != nil {
		return 0, err
	}
	copy(d.rowData(a)[col:], src)
	d.now += d.timing.WriteLatency()
	d.energyPJ += d.timing.RdWrEnergyPJ
	return d.timing.WriteLatency(), nil
}

func (d *Device) checkOpen(a RowAddr, col, n int) error {
	if !d.geom.Valid(a) {
		return fmt.Errorf("%w: %v", ErrBadAddress, a)
	}
	if col < 0 || col+n > d.geom.RowBytes {
		return fmt.Errorf("%w: col %d len %d rowBytes %d", ErrBadColumn, col, n, d.geom.RowBytes)
	}
	b := d.banks[a.Bank]
	if !b.open {
		return fmt.Errorf("%w: bank %d", ErrBankClosed, a.Bank)
	}
	if b.openRow != a.Row {
		return fmt.Errorf("%w: open %d want %d", ErrWrongOpenRow, b.openRow, a.Row)
	}
	return nil
}

// --- Direct (out-of-band) row access -------------------------------------
//
// The functions below bypass the command state machine. They model effects
// that do not travel over the command bus: RowHammer disturbance flips,
// RowClone's in-array copies, and test fixture setup.

// RowCloneCopy performs an in-subarray RowClone FPM copy src -> dst.
// Both rows must be in the same subarray. The copy itself counts as an
// internal operation, not as bus ACTs, so it does not feed RowHammer
// tracking (the rows are opened back-to-back well below any T_RH).
func (d *Device) RowCloneCopy(src, dst RowAddr) (Picoseconds, error) {
	if !d.geom.Valid(src) || !d.geom.Valid(dst) {
		return 0, fmt.Errorf("%w: %v -> %v", ErrBadAddress, src, dst)
	}
	if !d.geom.SameSubarray(src, dst) {
		return 0, fmt.Errorf("dram: RowClone FPM requires same subarray: %v -> %v", src, dst)
	}
	if src == dst {
		d.now += d.timing.RowCloneFPM
		d.energyPJ += d.timing.RowCloneEnergyPJ
		return d.timing.RowCloneFPM, nil
	}
	s := d.rowDataIfPresent(src)
	if s == nil {
		// Source row was never written: destination becomes zeroes.
		dstRow := d.rowData(dst)
		for i := range dstRow {
			dstRow[i] = 0
		}
	} else {
		copy(d.rowData(dst), s)
	}
	d.now += d.timing.RowCloneFPM
	d.energyPJ += d.timing.RowCloneEnergyPJ
	return d.timing.RowCloneFPM, nil
}

// FlipBit inverts a single stored bit (RowHammer disturbance). bit indexes
// the row's bits little-endian within each byte.
func (d *Device) FlipBit(a RowAddr, bit int) error {
	if !d.geom.Valid(a) {
		return fmt.Errorf("%w: %v", ErrBadAddress, a)
	}
	if bit < 0 || bit >= d.geom.RowBytes*8 {
		return fmt.Errorf("%w: bit %d", ErrBadColumn, bit)
	}
	row := d.rowData(a)
	row[bit/8] ^= 1 << (bit % 8)
	return nil
}

// PeekRow copies the first len(dst) bytes of the row into dst without
// timing effects. A row never written reads as zeroes.
func (d *Device) PeekRow(a RowAddr, dst []byte) error {
	if !d.geom.Valid(a) {
		return fmt.Errorf("%w: %v", ErrBadAddress, a)
	}
	if len(dst) > d.geom.RowBytes {
		return fmt.Errorf("%w: len %d", ErrBadColumn, len(dst))
	}
	if src := d.rowDataIfPresent(a); src != nil {
		copy(dst, src)
	} else {
		clear(dst)
	}
	return nil
}

// PokeRow overwrites the row's content without timing effects.
func (d *Device) PokeRow(a RowAddr, data []byte) error {
	if !d.geom.Valid(a) {
		return fmt.Errorf("%w: %v", ErrBadAddress, a)
	}
	if len(data) > d.geom.RowBytes {
		return fmt.Errorf("%w: len %d", ErrBadColumn, len(data))
	}
	row := d.rowData(a)
	copy(row, data)
	for i := len(data); i < len(row); i++ {
		row[i] = 0
	}
	return nil
}

// PeekBit returns the value of one stored bit without timing effects.
func (d *Device) PeekBit(a RowAddr, bit int) (bool, error) {
	if !d.geom.Valid(a) {
		return false, fmt.Errorf("%w: %v", ErrBadAddress, a)
	}
	if bit < 0 || bit >= d.geom.RowBytes*8 {
		return false, fmt.Errorf("%w: bit %d", ErrBadColumn, bit)
	}
	row := d.rowDataIfPresent(a)
	if row == nil {
		return false, nil
	}
	return row[bit/8]&(1<<(bit%8)) != 0, nil
}
