// Package memmap places a quantized DNN's weights into simulated DRAM rows
// and keeps the two views coherent: the attack flips bits in the DRAM
// arrays (through RowHammer), and the victim model's weights are refreshed
// from DRAM contents, so defense interception has exactly the effect it
// would have on a real system.
//
// Placement follows the paper's threat model (§III assumption 3): weight
// rows are *scattered* — interleaved with attacker-mappable rows — rather
// than packed contiguously. The default stride of 2 leaves a non-weight
// row between consecutive weight rows, which is what gives the attacker
// its aggressor rows and gives the lock-table something to lock.
package memmap

import (
	"fmt"
	"sort"

	"repro/internal/dram"
	"repro/internal/quant"
)

// Options controls weight placement.
type Options struct {
	// StartBank and StartRow position the first weight row.
	StartBank, StartRow int
	// RowStride is the spacing between consecutive weight rows within a
	// bank (2 = one attacker-mappable gap row between weight rows).
	RowStride int
	// Avoid excludes rows from allocation (e.g. the controller's reserved
	// buffer and free-pool rows). May be nil.
	Avoid func(dram.RowAddr) bool
}

// DefaultOptions returns the paper-faithful scattered placement.
func DefaultOptions() Options { return Options{RowStride: 2} }

// Validate checks the options against a geometry.
func (o Options) Validate(geom dram.Geometry) error {
	if o.RowStride < 1 {
		return fmt.Errorf("memmap: RowStride must be >= 1, got %d", o.RowStride)
	}
	if o.StartBank < 0 || o.StartBank >= geom.Banks() {
		return fmt.Errorf("memmap: StartBank %d outside %d banks", o.StartBank, geom.Banks())
	}
	if o.StartRow < 0 || o.StartRow >= geom.RowsPerBank() {
		return fmt.Errorf("memmap: StartRow %d outside bank", o.StartRow)
	}
	return nil
}

// Layout records where each quantized weight lives in DRAM.
type Layout struct {
	QM     *quant.Model
	Dev    *dram.Device
	Mapper dram.AddrMapper

	rows   []dram.RowAddr // allocation order; weight w is in rows[w/RowBytes]
	rowSet map[int]bool
}

// New lays the model's quantized weights out in DRAM under the options and
// writes their current values into the device.
func New(qm *quant.Model, dev *dram.Device, opts Options) (*Layout, error) {
	geom := dev.Geometry()
	if err := opts.Validate(geom); err != nil {
		return nil, err
	}
	l := &Layout{
		QM:     qm,
		Dev:    dev,
		Mapper: dram.NewAddrMapper(geom),
		rowSet: make(map[int]bool),
	}
	needRows := (qm.TotalWeights() + geom.RowBytes - 1) / geom.RowBytes
	bank, row := opts.StartBank, opts.StartRow
	for len(l.rows) < needRows {
		if bank >= geom.Banks() {
			return nil, fmt.Errorf("memmap: geometry exhausted after %d of %d rows", len(l.rows), needRows)
		}
		a := dram.RowAddr{Bank: bank, Row: row}
		if opts.Avoid == nil || !opts.Avoid(a) {
			l.rows = append(l.rows, a)
			l.rowSet[geom.LinearIndex(a)] = true
		}
		row += opts.RowStride
		if row >= geom.RowsPerBank() {
			row = opts.StartRow
			bank++
		}
	}
	if err := l.WriteAll(); err != nil {
		return nil, err
	}
	return l, nil
}

// rowAndCol returns the DRAM row and byte column of a global weight.
func (l *Layout) rowAndCol(globalW int) (dram.RowAddr, int, error) {
	rb := l.Dev.Geometry().RowBytes
	ri := globalW / rb
	if globalW < 0 || ri >= len(l.rows) {
		return dram.RowAddr{}, 0, fmt.Errorf("memmap: weight %d outside layout", globalW)
	}
	return l.rows[ri], globalW % rb, nil
}

// PhysOfWeight returns the physical byte address of a global weight index.
func (l *Layout) PhysOfWeight(globalW int) (int64, error) {
	row, col, err := l.rowAndCol(globalW)
	if err != nil {
		return 0, err
	}
	return l.Mapper.Untranslate(row, col)
}

// LocationOfBit returns the DRAM row and in-row bit position of bit k of a
// global weight.
func (l *Layout) LocationOfBit(globalW, k int) (dram.RowAddr, int, error) {
	if k < 0 || k >= quant.Bits {
		return dram.RowAddr{}, 0, fmt.Errorf("memmap: bit %d out of range", k)
	}
	row, col, err := l.rowAndCol(globalW)
	if err != nil {
		return dram.RowAddr{}, 0, err
	}
	return row, col*8 + k, nil
}

// WeightsInRow returns the global weight index range [lo, hi) stored in
// the i-th allocated row.
func (l *Layout) WeightsInRow(i int) (lo, hi int) {
	rb := l.Dev.Geometry().RowBytes
	lo = i * rb
	hi = lo + rb
	if hi > l.QM.TotalWeights() {
		hi = l.QM.TotalWeights()
	}
	return lo, hi
}

// WeightRows returns every DRAM row containing weights, in allocation
// order. The returned slice is shared; do not modify.
func (l *Layout) WeightRows() []dram.RowAddr { return l.rows }

// IsWeightRow reports whether a row holds any weights.
func (l *Layout) IsWeightRow(a dram.RowAddr) bool {
	return l.rowSet[l.Dev.Geometry().LinearIndex(a)]
}

// AggressorRows returns the rows physically adjacent (within distance) to
// any weight row — the lock-table's protection set. Weight rows themselves
// are excluded (they are frequently accessed; locking them would force
// constant unlocks, which is exactly what the paper argues against).
func (l *Layout) AggressorRows(distance int) []dram.RowAddr {
	geom := l.Dev.Geometry()
	seen := make(map[int]bool)
	var out []dram.RowAddr
	for _, wr := range l.rows {
		for d := 1; d <= distance; d++ {
			for _, n := range geom.Neighbors(wr, d) {
				li := geom.LinearIndex(n)
				if seen[li] || l.rowSet[li] {
					continue
				}
				seen[li] = true
				out = append(out, n)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		return geom.LinearIndex(out[i]) < geom.LinearIndex(out[j])
	})
	return out
}

// WriteAll writes every quantized weight into DRAM (out-of-band: the
// initial model load, not part of the measured request stream).
func (l *Layout) WriteAll() error {
	total := l.QM.TotalWeights()
	for ri := range l.rows {
		lo, hi := l.WeightsInRow(ri)
		if lo >= total {
			break
		}
		data, err := l.Dev.PeekRow(l.rows[ri])
		if err != nil {
			return err
		}
		for w := lo; w < hi; w++ {
			pi, li := l.QM.Locate(w)
			data[w-lo] = byte(l.QM.Params[pi].Get(li))
		}
		if err := l.Dev.PokeRow(l.rows[ri], data); err != nil {
			return err
		}
	}
	return nil
}

// SyncFromDRAM reads every weight row back from the device and refreshes
// the quantized model (and its float weights) to match the stored bits.
// It returns the number of weights whose value changed.
func (l *Layout) SyncFromDRAM() (int, error) {
	changed := 0
	for ri := range l.rows {
		lo, hi := l.WeightsInRow(ri)
		data, err := l.Dev.PeekRow(l.rows[ri])
		if err != nil {
			return changed, err
		}
		for w := lo; w < hi; w++ {
			pi, li := l.QM.Locate(w)
			qp := l.QM.Params[pi]
			nv := int8(data[w-lo])
			if qp.Get(li) != nv {
				qp.Q[li] = nv
				qp.Param.W.Data[li] = quant.Dequantize(nv, qp.Scale)
				changed++
			}
		}
	}
	return changed, nil
}
