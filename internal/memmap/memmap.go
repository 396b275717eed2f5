// Package memmap places a quantized DNN's weights into simulated DRAM rows
// and keeps the two views coherent: the attack flips bits in the DRAM
// arrays (through RowHammer), and the victim model's weights are refreshed
// from DRAM contents, so defense interception has exactly the effect it
// would have on a real system.
//
// Placement follows the paper's threat model (§III assumption 3): weight
// rows are *scattered* — interleaved with attacker-mappable rows — rather
// than packed contiguously. Weights fill the odd rows of each bank from
// bank 0 on (row 1, stride 2), skipping the controller's reserved rows, so
// a non-weight row lies between consecutive weight rows: that gives the
// attacker its aggressor rows and the lock-table something to lock.
package memmap

import (
	"fmt"
	"sort"

	"repro/internal/dram"
	"repro/internal/quant"
)

// Weight rows start at row firstRow of each bank and advance by rowStride.
const (
	firstRow  = 1
	rowStride = 2
)

// Layout records where each quantized weight lives in DRAM.
type Layout struct {
	QM     *quant.Model
	Dev    *dram.Device
	Mapper dram.AddrMapper

	rows   []dram.RowAddr // allocation order; weight w is in rows[w/RowBytes]
	rowSet map[int]bool
}

// New lays the model's quantized weights out in DRAM, skipping every row
// for which reserved reports true (the controller's buffer and free-pool
// rows), and writes their current values into the device.
func New(qm *quant.Model, dev *dram.Device, reserved func(dram.RowAddr) bool) (*Layout, error) {
	geom := dev.Geometry()
	l := &Layout{
		QM:     qm,
		Dev:    dev,
		Mapper: dram.NewAddrMapper(geom),
		rowSet: make(map[int]bool),
	}
	needRows := (qm.TotalWeights() + geom.RowBytes - 1) / geom.RowBytes
	bank, row := 0, firstRow
	for len(l.rows) < needRows {
		if bank >= geom.Banks() {
			return nil, fmt.Errorf("memmap: geometry exhausted after %d of %d rows", len(l.rows), needRows)
		}
		a := dram.RowAddr{Bank: bank, Row: row}
		if !reserved(a) {
			l.rows = append(l.rows, a)
			l.rowSet[geom.LinearIndex(a)] = true
		}
		row += rowStride
		if row >= geom.RowsPerBank() {
			row = firstRow
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

// AggressorRows returns the rows physically adjacent to any weight row —
// the lock-table's protection set. Weight rows themselves are excluded
// (they are frequently accessed; locking them would force constant
// unlocks, which is exactly what the paper argues against).
func (l *Layout) AggressorRows() []dram.RowAddr {
	geom := l.Dev.Geometry()
	seen := make(map[int]bool)
	var out []dram.RowAddr
	for _, wr := range l.rows {
		for _, n := range geom.Neighbors(wr, 1) {
			li := geom.LinearIndex(n)
			if seen[li] || l.rowSet[li] {
				continue
			}
			seen[li] = true
			out = append(out, n)
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
	cur := cursor{qm: l.QM}
	for ri, row := range l.rows {
		lo, hi := l.WeightsInRow(ri)
		data, err := l.Dev.PeekRow(row)
		if err != nil {
			return err
		}
		for off := 0; off < hi-lo; {
			qp, li, n := cur.next(hi - lo - off)
			for j, v := range qp.Q[li : li+n] {
				data[off+j] = byte(v)
			}
			off += n
		}
		if err := l.Dev.PokeRow(row, data); err != nil {
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
	cur := cursor{qm: l.QM}
	for ri, row := range l.rows {
		lo, hi := l.WeightsInRow(ri)
		data, err := l.Dev.PeekRow(row)
		if err != nil {
			return changed, err
		}
		for off := 0; off < hi-lo; {
			qp, li, n := cur.next(hi - lo - off)
			for j, b := range data[off : off+n] {
				if nv := int8(b); qp.Q[li+j] != nv {
					qp.Q[li+j] = nv
					qp.Param.W.Data[li+j] = quant.Dequantize(nv, qp.Scale)
					changed++
				}
			}
			off += n
		}
	}
	return changed, nil
}

// cursor walks the model's weights in global index order, one run
// within a parameter at a time, so the rows' weights map to (param,
// local) pairs without a search per weight.
type cursor struct {
	qm     *quant.Model
	pi, li int // the next weight is qm.Params[pi].Q[li]
}

// next returns the parameter the next weight is in, that weight's local
// index li, and how many weights from li on, at most want, the
// parameter still holds; it moves the cursor past them.
func (c *cursor) next(want int) (qp *quant.QuantizedParam, li, n int) {
	for c.li == len(c.qm.Params[c.pi].Q) {
		c.pi, c.li = c.pi+1, 0
	}
	qp, li = c.qm.Params[c.pi], c.li
	n = min(want, len(qp.Q)-li)
	c.li += n
	return qp, li, n
}
