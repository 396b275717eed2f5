package dram

import "fmt"

// Picoseconds is the simulator's time unit. All latency accounting is done
// in integer picoseconds to keep accumulation exact and deterministic.
type Picoseconds int64

// Common time unit constants.
const (
	Nanosecond  Picoseconds = 1_000
	Microsecond Picoseconds = 1_000_000
	Millisecond Picoseconds = 1_000_000_000
	Second      Picoseconds = 1_000_000_000_000
)

// Seconds converts a picosecond count to floating-point seconds.
func (p Picoseconds) Seconds() float64 { return float64(p) / float64(Second) }

// Nanoseconds converts a picosecond count to floating-point nanoseconds.
func (p Picoseconds) Nanoseconds() float64 { return float64(p) / float64(Nanosecond) }

// String renders the duration with an adaptive unit.
func (p Picoseconds) String() string {
	switch {
	case p >= Second:
		return fmt.Sprintf("%.3fs", p.Seconds())
	case p >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(p)/float64(Millisecond))
	case p >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(p)/float64(Microsecond))
	case p >= Nanosecond:
		return fmt.Sprintf("%.3fns", p.Nanoseconds())
	default:
		return fmt.Sprintf("%dps", int64(p))
	}
}

// Timing holds the JEDEC-style timing parameters the simulator accounts.
// Values are for one command at the device; the controller composes them.
type Timing struct {
	TRCD Picoseconds // ACT to RD/WR delay
	TRP  Picoseconds // PRE to ACT delay
	TRAS Picoseconds // ACT to PRE minimum
	TCL  Picoseconds // RD to first data
	TCWL Picoseconds // WR to first data
	TBL  Picoseconds // burst transfer time (BL8)
	TWR  Picoseconds // write recovery before PRE
	TRFC Picoseconds // refresh cycle time
	TRC  Picoseconds // ACT-to-ACT same bank (row cycle): tRAS + tRP

	// TREFW is the refresh window (retention time); every row is refreshed
	// once per window and RowHammer activation counts reset.
	TREFW Picoseconds
	// TREFI is the interval between the controller's REF commands.
	TREFI Picoseconds

	// RowCloneFPM is the latency of one in-subarray RowClone copy
	// (back-to-back ACT-ACT then PRE); Seshadri et al. report < 100ns.
	RowCloneFPM Picoseconds
	// LockLookup is the SRAM lock-table lookup latency per instruction.
	LockLookup Picoseconds

	// Energy model (picojoules per operation) for the analytic energy
	// accounting; derived from CACTI-class numbers for DDR4.
	ActEnergyPJ      float64
	PreEnergyPJ      float64
	RdWrEnergyPJ     float64
	RowCloneEnergyPJ float64
}

// DDR4Timing returns DDR4-2400-class timing (tCK = 0.833ns, 18-18-18).
func DDR4Timing() Timing {
	const tck = 833 // ps
	return Timing{
		TRCD:        18 * tck,
		TRP:         18 * tck,
		TRAS:        39 * tck,
		TCL:         18 * tck,
		TCWL:        14 * tck,
		TBL:         4 * tck,
		TWR:         18 * tck,
		TRFC:        350 * Nanosecond,
		TRC:         39*tck + 18*tck,
		TREFW:       64 * Millisecond,
		TREFI:       7800 * Nanosecond,
		RowCloneFPM: 90 * Nanosecond,
		LockLookup:  1 * Nanosecond,

		ActEnergyPJ:      909,
		PreEnergyPJ:      585,
		RdWrEnergyPJ:     1510,
		RowCloneEnergyPJ: 696, // RowClone cuts copy energy ~74x vs CPU copy
	}
}

// ReadLatency returns the latency of an RD on an already-open row.
func (t Timing) ReadLatency() Picoseconds { return t.TCL + t.TBL }

// WriteLatency returns the latency of a WR on an already-open row.
func (t Timing) WriteLatency() Picoseconds { return t.TCWL + t.TBL }

// SwapLatency returns the latency of a DRAM-Locker SWAP: three RowClone
// copies through the buffer row (locked->buffer, unlocked->locked,
// buffer->unlocked).
func (t Timing) SwapLatency() Picoseconds { return 3 * t.RowCloneFPM }
