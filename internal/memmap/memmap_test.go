package memmap

import (
	"testing"

	"repro/internal/dram"
	"repro/internal/nn"
	"repro/internal/quant"
)

// noneReserved is a reserved-row predicate that reserves nothing.
func noneReserved(dram.RowAddr) bool { return false }

func newRig(t *testing.T) (*dram.Device, *quant.Model, *Layout) {
	t.Helper()
	dev, err := dram.NewDevice(dram.SmallGeometry())
	if err != nil {
		t.Fatal(err)
	}
	qm := quant.NewModel(nn.NewResNet20(4, 0.125, 5))
	l, err := New(qm, dev, noneReserved)
	if err != nil {
		t.Fatal(err)
	}
	return dev, qm, l
}

func TestPlacementStrideLeavesGaps(t *testing.T) {
	_, _, l := newRig(t)
	rows := l.WeightRows()
	if len(rows) < 2 {
		t.Skip("model too small for this geometry")
	}
	if rows[0] != (dram.RowAddr{Bank: 0, Row: 1}) {
		t.Fatalf("first weight row %v, want bank 0 row 1", rows[0])
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Row%2 != 1 {
			t.Fatalf("weight row %v is even; even rows are attacker space", rows[i])
		}
		if rows[i].Bank != rows[i-1].Bank {
			continue
		}
		if rows[i].Row-rows[i-1].Row < 2 {
			t.Fatalf("rows %v and %v adjacent; stride 2 must leave gaps", rows[i-1], rows[i])
		}
	}
}

func TestAggressorRowsAreNeighborsNotWeights(t *testing.T) {
	dev, _, l := newRig(t)
	geom := dev.Geometry()
	aggs := l.AggressorRows()
	if len(aggs) == 0 {
		t.Fatal("no aggressor rows found")
	}
	for _, a := range aggs {
		if l.IsWeightRow(a) {
			t.Fatalf("aggressor %v is itself a weight row", a)
		}
		// Every aggressor is adjacent to at least one weight row.
		adjacent := false
		for _, n := range geom.Neighbors(a, 1) {
			if l.IsWeightRow(n) {
				adjacent = true
			}
		}
		if !adjacent {
			t.Fatalf("aggressor %v not adjacent to any weight row", a)
		}
	}
}

func TestEveryWeightRowIsCovered(t *testing.T) {
	dev, _, l := newRig(t)
	geom := dev.Geometry()
	aggSet := make(map[int]bool)
	for _, a := range l.AggressorRows() {
		aggSet[geom.LinearIndex(a)] = true
	}
	for _, wr := range l.WeightRows() {
		for _, n := range geom.Neighbors(wr, 1) {
			if !l.IsWeightRow(n) && !aggSet[geom.LinearIndex(n)] {
				t.Fatalf("neighbor %v of weight row %v missing from aggressor set", n, wr)
			}
		}
	}
}

func TestWriteAllStoresQuantizedBytes(t *testing.T) {
	dev, qm, l := newRig(t)
	// Check the first few weights byte-for-byte.
	for w := 0; w < 16 && w < qm.TotalWeights(); w++ {
		row, col, err := l.rowAndCol(w)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, col+1)
		if err := dev.PeekRow(row, data); err != nil {
			t.Fatal(err)
		}
		pi, li := qm.Locate(w)
		if int8(data[col]) != qm.Params[pi].Get(li) {
			t.Fatalf("weight %d: DRAM %d != model %d", w, int8(data[col]), qm.Params[pi].Get(li))
		}
	}
}

func TestSyncFromDRAMPropagatesFlips(t *testing.T) {
	dev, qm, l := newRig(t)
	const target = 5
	row, bit, err := l.LocationOfBit(target, 7)
	if err != nil {
		t.Fatal(err)
	}
	pi, li := qm.Locate(target)
	before := qm.Params[pi].Get(li)
	beforeFloat := qm.Params[pi].Param.W.Data[li]

	if err := dev.FlipBit(row, bit); err != nil {
		t.Fatal(err)
	}
	changed, err := l.SyncFromDRAM()
	if err != nil {
		t.Fatal(err)
	}
	if changed != 1 {
		t.Fatalf("changed = %d, want 1", changed)
	}
	after := qm.Params[pi].Get(li)
	if after == before {
		t.Fatal("model value unchanged after DRAM flip")
	}
	if int(after)-int(before) != quant.BitDelta(before, 7) {
		t.Fatalf("delta %d, want MSB delta %d", int(after)-int(before), quant.BitDelta(before, 7))
	}
	if qm.Params[pi].Param.W.Data[li] == beforeFloat {
		t.Fatal("float view not refreshed")
	}
	// Sync again: nothing more to do.
	changed, _ = l.SyncFromDRAM()
	if changed != 0 {
		t.Fatalf("second sync changed %d", changed)
	}
}

// TestSyncFromDRAMAcrossParamBoundaries flips bits on both sides of
// every parameter boundary, two of them in one weight. Rows are as long
// as the first parameter, so the first boundary falls at a row's start
// and later ones inside rows. Each flipped weight's Q and float weight
// must change in its own parameter, nothing else may, and changed must
// count each weight once.
func TestSyncFromDRAMAcrossParamBoundaries(t *testing.T) {
	qm := quant.NewModel(nn.NewResNet20(4, 0.125, 5))
	geom := dram.SmallGeometry()
	geom.RowBytes = qm.Params[0].NumWeights()
	dev, err := dram.NewDevice(geom)
	if err != nil {
		t.Fatal(err)
	}
	l, err := New(qm, dev, noneReserved)
	if err != nil {
		t.Fatal(err)
	}
	rb := geom.RowBytes
	snap := qm.Snapshot()
	bits := map[int][]int{} // global weight -> bits flipped
	inRow, atRowStart := 0, 0
	for p := 1; p < len(qm.Params); p++ {
		g := qm.GlobalIndex(p, 0)
		if g%rb == 0 {
			atRowStart++
		} else {
			inRow++
		}
		bits[g-1] = append(bits[g-1], 7)
		bits[g] = append(bits[g], 2)
	}
	if inRow == 0 || atRowStart == 0 {
		t.Fatalf("%d boundaries inside a row and %d at a row's start: the rig must have both", inRow, atRowStart)
	}
	last := qm.GlobalIndex(1, 0) - 1
	bits[last] = append(bits[last], 0) // a second bit in one weight
	flipped := 0
	for w, ks := range bits {
		for _, k := range ks {
			row, bit, err := l.LocationOfBit(w, k)
			if err != nil {
				t.Fatal(err)
			}
			if err := dev.FlipBit(row, bit); err != nil {
				t.Fatal(err)
			}
			flipped++
		}
	}
	changed, err := l.SyncFromDRAM()
	if err != nil {
		t.Fatal(err)
	}
	if changed != len(bits) {
		t.Fatalf("changed = %d, want %d weights", changed, len(bits))
	}
	if d := qm.HammingDistance(snap); d != flipped {
		t.Fatalf("model differs from before in %d bits, want %d", d, flipped)
	}
	for w, ks := range bits {
		pi, li := qm.Locate(w)
		qp := qm.Params[pi]
		want := snap[pi][li]
		for _, k := range ks {
			want = quant.FlipBit(want, k)
		}
		if qp.Q[li] != want || qp.Param.W.Data[li] != quant.Dequantize(want, qp.Scale) {
			t.Fatalf("weight %d (param %d, local %d): Q %d, W %v; want %d, %v",
				w, pi, li, qp.Q[li], qp.Param.W.Data[li], want, quant.Dequantize(want, qp.Scale))
		}
	}
}

func TestLocationOfBitConsistentWithPhys(t *testing.T) {
	dev, qm, l := newRig(t)
	mapper := dram.NewAddrMapper(dev.Geometry())
	for w := 0; w < qm.TotalWeights(); w += 997 {
		phys, err := l.PhysOfWeight(w)
		if err != nil {
			t.Fatal(err)
		}
		row, col, err := mapper.Translate(phys)
		if err != nil {
			t.Fatal(err)
		}
		row2, bit, err := l.LocationOfBit(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		if row2 != row || bit != col*8+3 {
			t.Fatalf("weight %d: (%v,%d) vs (%v,%d)", w, row2, bit, row, col*8+3)
		}
	}
}

func TestAvoidExcludesRows(t *testing.T) {
	dev, err := dram.NewDevice(dram.SmallGeometry())
	if err != nil {
		t.Fatal(err)
	}
	qm := quant.NewModel(nn.NewResNet20(4, 0.125, 5))
	l, err := New(qm, dev, func(a dram.RowAddr) bool { return a.Row%4 == 1 })
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range l.WeightRows() {
		if r.Row%4 == 1 {
			t.Fatalf("avoided row %v was allocated", r)
		}
	}
}

func TestGeometryExhaustion(t *testing.T) {
	tiny := dram.Geometry{Ranks: 1, BanksPerRank: 1, SubarraysPerBank: 1, RowsPerSubarray: 4, RowBytes: 16}
	dev, err := dram.NewDevice(tiny)
	if err != nil {
		t.Fatal(err)
	}
	qm := quant.NewModel(nn.NewResNet20(4, 0.25, 5))
	if _, err := New(qm, dev, noneReserved); err == nil {
		t.Fatal("oversized model must fail placement")
	}
}

func TestWeightsInRowBounds(t *testing.T) {
	dev, qm, l := newRig(t)
	rb := dev.Geometry().RowBytes
	total := 0
	for i := range l.WeightRows() {
		lo, hi := l.WeightsInRow(i)
		if hi-lo > rb {
			t.Fatalf("row %d holds %d weights > rowBytes", i, hi-lo)
		}
		total += hi - lo
	}
	if total != qm.TotalWeights() {
		t.Fatalf("rows cover %d weights, want %d", total, qm.TotalWeights())
	}
}

// BenchmarkSyncFromDRAM times the read every landed hammer and every
// PTA round ends with: one sync of a VGG-11/100 at width 0.25 (the tiny
// preset's fig8b victim) laid out on the tiny preset's geometry, 288
// rows of 2 KiB. A sync reads through the layout's row buffer, so it
// allocates nothing.
func BenchmarkSyncFromDRAM(b *testing.B) {
	geom := dram.Geometry{Ranks: 1, BanksPerRank: 4, SubarraysPerBank: 16, RowsPerSubarray: 512, RowBytes: 2048}
	dev, err := dram.NewDevice(geom)
	if err != nil {
		b.Fatal(err)
	}
	l, err := New(quant.NewModel(nn.NewVGG11(100, 0.25, 3)), dev, noneReserved)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.SyncFromDRAM(); err != nil {
			b.Fatal(err)
		}
	}
}
