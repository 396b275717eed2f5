package dram

import (
	"errors"
	"testing"
	"testing/quick"
)

func testDevice(t *testing.T) *Device {
	t.Helper()
	d, err := NewDevice(SmallGeometry(), DDR4Timing())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// peek returns a copy of row a.
func peek(t *testing.T, d *Device, a RowAddr) []byte {
	t.Helper()
	row := make([]byte, d.Geometry().RowBytes)
	if err := d.PeekRow(a, row); err != nil {
		t.Fatal(err)
	}
	return row
}

func TestGeometryValidate(t *testing.T) {
	if err := DefaultGeometry().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultGeometry()
	bad.RowsPerSubarray = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for zero rows")
	}
}

func TestDefaultGeometryIs32GB(t *testing.T) {
	g := DefaultGeometry()
	if got := g.CapacityBytes(); got != 32<<30 {
		t.Fatalf("capacity = %d, want 32GiB", got)
	}
	if g.Banks() != 16 {
		t.Fatalf("banks = %d, want 16", g.Banks())
	}
}

func TestNeighborsInterior(t *testing.T) {
	g := SmallGeometry()
	a := RowAddr{Bank: 0, Row: 10}
	n := g.Neighbors(a, 1)
	if len(n) != 2 || n[0].Row != 9 || n[1].Row != 11 {
		t.Fatalf("neighbors = %v", n)
	}
}

func TestNeighborsSubarrayBoundary(t *testing.T) {
	g := SmallGeometry() // 64 rows per subarray
	// Row 63 is the last row of subarray 0; row 64 belongs to subarray 1,
	// separated by sense amps, so it is NOT a RowHammer neighbor.
	edge := RowAddr{Bank: 0, Row: 63}
	n := g.Neighbors(edge, 1)
	if len(n) != 1 || n[0].Row != 62 {
		t.Fatalf("neighbors at subarray edge = %v, want only row 62", n)
	}
	first := RowAddr{Bank: 1, Row: 0}
	n = g.Neighbors(first, 1)
	if len(n) != 1 || n[0].Row != 1 {
		t.Fatalf("neighbors at bank edge = %v, want only row 1", n)
	}
}

func TestNeighborsDistance2(t *testing.T) {
	g := SmallGeometry()
	n := g.Neighbors(RowAddr{Bank: 0, Row: 10}, 2)
	if len(n) != 2 || n[0].Row != 8 || n[1].Row != 12 {
		t.Fatalf("distance-2 neighbors = %v", n)
	}
}

func TestLinearIndexRoundTrip(t *testing.T) {
	g := SmallGeometry()
	f := func(bank, row uint16) bool {
		a := RowAddr{Bank: int(bank) % g.Banks(), Row: int(row) % g.RowsPerBank()}
		return g.FromLinearIndex(g.LinearIndex(a)) == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSameSubarray(t *testing.T) {
	g := SmallGeometry()
	a := RowAddr{Bank: 0, Row: 0}
	b := RowAddr{Bank: 0, Row: 63}
	c := RowAddr{Bank: 0, Row: 64}
	d := RowAddr{Bank: 1, Row: 0}
	if !g.SameSubarray(a, b) {
		t.Fatal("rows 0 and 63 share subarray 0")
	}
	if g.SameSubarray(a, c) {
		t.Fatal("rows 0 and 64 are different subarrays")
	}
	if g.SameSubarray(a, d) {
		t.Fatal("different banks can never share a subarray")
	}
}

func TestActivateReadWritePrechargeCycle(t *testing.T) {
	d := testDevice(t)
	a := RowAddr{Bank: 1, Row: 5}
	if _, err := d.Activate(a); err != nil {
		t.Fatal(err)
	}
	payload := []byte{1, 2, 3, 4}
	if _, err := d.Write(a, 10, payload); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := d.Read(a, 10, buf); err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		if buf[i] != payload[i] {
			t.Fatalf("read back %v, want %v", buf, payload)
		}
	}
	if _, err := d.Precharge(a.Bank); err != nil {
		t.Fatal(err)
	}
	if _, open := d.OpenRow(a.Bank); open {
		t.Fatal("bank still open after precharge")
	}
}

func TestActivateTwiceFails(t *testing.T) {
	d := testDevice(t)
	a := RowAddr{Bank: 0, Row: 1}
	if _, err := d.Activate(a); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Activate(RowAddr{Bank: 0, Row: 2}); !errors.Is(err, ErrBankOpen) {
		t.Fatalf("err = %v, want ErrBankOpen", err)
	}
}

func TestReadClosedBankFails(t *testing.T) {
	d := testDevice(t)
	buf := make([]byte, 1)
	if _, err := d.Read(RowAddr{Bank: 0, Row: 1}, 0, buf); !errors.Is(err, ErrBankClosed) {
		t.Fatalf("err = %v, want ErrBankClosed", err)
	}
}

func TestReadWrongOpenRowFails(t *testing.T) {
	d := testDevice(t)
	if _, err := d.Activate(RowAddr{Bank: 0, Row: 1}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := d.Read(RowAddr{Bank: 0, Row: 2}, 0, buf); !errors.Is(err, ErrWrongOpenRow) {
		t.Fatalf("err = %v, want ErrWrongOpenRow", err)
	}
}

func TestColumnBoundsChecked(t *testing.T) {
	d := testDevice(t)
	a := RowAddr{Bank: 0, Row: 1}
	if _, err := d.Activate(a); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	if _, err := d.Read(a, d.Geometry().RowBytes-5, buf); !errors.Is(err, ErrBadColumn) {
		t.Fatalf("err = %v, want ErrBadColumn", err)
	}
}

func TestUnwrittenRowsReadZero(t *testing.T) {
	d := testDevice(t)
	a := RowAddr{Bank: 0, Row: 40}
	if _, err := d.Activate(a); err != nil {
		t.Fatal(err)
	}
	buf := []byte{9, 9, 9}
	if _, err := d.Read(a, 0, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("unwritten row must read as zeroes")
		}
	}
	if d.AllocatedRows() != 0 {
		t.Fatalf("read must not allocate storage, got %d rows", d.AllocatedRows())
	}
}

func TestPeekRowReadsPrefixIntoBuffer(t *testing.T) {
	d := testDevice(t)
	a := RowAddr{Bank: 0, Row: 4}
	if err := d.PokeRow(a, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	dst := []byte{9, 9, 9}
	if err := d.PeekRow(a, dst); err != nil || string(dst) != "hel" {
		t.Fatalf("PeekRow = %q, %v; want \"hel\"", dst, err)
	}
	if err := d.PeekRow(RowAddr{Bank: 0, Row: 5}, dst); err != nil || string(dst) != "\x00\x00\x00" {
		t.Fatalf("unwritten row peeked as %q, %v; want zeroes", dst, err)
	}
	if d.AllocatedRows() != 1 {
		t.Fatalf("peeking must not allocate storage, got %d rows", d.AllocatedRows())
	}
	if err := d.PeekRow(a, make([]byte, d.Geometry().RowBytes+1)); !errors.Is(err, ErrBadColumn) {
		t.Fatalf("over-long peek: err = %v, want ErrBadColumn", err)
	}
	if err := d.PeekRow(RowAddr{Bank: 9}, dst); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("invalid row: err = %v, want ErrBadAddress", err)
	}
}

func TestLazyAllocationOnWrite(t *testing.T) {
	d := testDevice(t)
	a := RowAddr{Bank: 0, Row: 3}
	if _, err := d.Activate(a); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Write(a, 0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if d.AllocatedRows() != 1 {
		t.Fatalf("allocated rows = %d, want 1", d.AllocatedRows())
	}
}

func TestClockAdvancesWithCommands(t *testing.T) {
	d := testDevice(t)
	tm := d.Timing()
	a := RowAddr{Bank: 0, Row: 1}
	d.Activate(a)
	if d.Now() != tm.TRCD {
		t.Fatalf("clock = %v after ACT, want %v", d.Now(), tm.TRCD)
	}
	buf := make([]byte, 1)
	d.Read(a, 0, buf)
	want := tm.TRCD + tm.ReadLatency()
	if d.Now() != want {
		t.Fatalf("clock = %v after RD, want %v", d.Now(), want)
	}
	d.AdvanceClock(100)
	if d.Now() != want+100 {
		t.Fatal("AdvanceClock must add idle time")
	}
}

func TestRowCloneCopySameSubarray(t *testing.T) {
	d := testDevice(t)
	src := RowAddr{Bank: 0, Row: 4}
	dst := RowAddr{Bank: 0, Row: 9}
	if err := d.PokeRow(src, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	lat, err := d.RowCloneCopy(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if lat != d.Timing().RowCloneFPM {
		t.Fatalf("latency %v, want %v", lat, d.Timing().RowCloneFPM)
	}
	got := peek(t, d, dst)
	if string(got[:5]) != "hello" {
		t.Fatalf("copy result %q", got[:5])
	}
}

func TestRowCloneCopyCrossSubarrayFails(t *testing.T) {
	d := testDevice(t)
	if _, err := d.RowCloneCopy(RowAddr{Bank: 0, Row: 4}, RowAddr{Bank: 0, Row: 100}); err == nil {
		t.Fatal("cross-subarray RowClone must fail")
	}
}

func TestRowCloneFromUnwrittenSourceZeroesDest(t *testing.T) {
	d := testDevice(t)
	dst := RowAddr{Bank: 0, Row: 9}
	if err := d.PokeRow(dst, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.RowCloneCopy(RowAddr{Bank: 0, Row: 4}, dst); err != nil {
		t.Fatal(err)
	}
	got := peek(t, d, dst)
	for _, b := range got[:3] {
		if b != 0 {
			t.Fatal("copy of unwritten row must zero the destination")
		}
	}
}

func TestFlipBitAndPeekBit(t *testing.T) {
	d := testDevice(t)
	a := RowAddr{Bank: 1, Row: 7}
	if err := d.FlipBit(a, 13); err != nil {
		t.Fatal(err)
	}
	set, err := d.PeekBit(a, 13)
	if err != nil {
		t.Fatal(err)
	}
	if !set {
		t.Fatal("bit must be set after flip from zero")
	}
	if err := d.FlipBit(a, 13); err != nil {
		t.Fatal(err)
	}
	set, _ = d.PeekBit(a, 13)
	if set {
		t.Fatal("double flip must restore the bit")
	}
	row := peek(t, d, a)
	if row[1] != 0 {
		t.Fatalf("byte 1 = %#x, want 0 after double flip", row[1])
	}
}

func TestActivateObserverSeesActivations(t *testing.T) {
	d := testDevice(t)
	var seen []RowAddr
	d.AddActivateObserver(observerFunc(func(a RowAddr, _ Picoseconds) {
		seen = append(seen, a)
	}))
	a := RowAddr{Bank: 0, Row: 2}
	d.Activate(a)
	d.Precharge(0)
	d.Activate(RowAddr{Bank: 0, Row: 3})
	if len(seen) != 2 || seen[0] != a {
		t.Fatalf("observer saw %v", seen)
	}
}

type observerFunc func(RowAddr, Picoseconds)

func (f observerFunc) ObserveActivate(a RowAddr, now Picoseconds) { f(a, now) }

// TestDeviceStatsAndEnergy: every command adds its own energy once, and
// a command that fails adds none.
func TestDeviceStatsAndEnergy(t *testing.T) {
	d := testDevice(t)
	tm := d.Timing()
	a := RowAddr{Bank: 0, Row: 1}
	d.Activate(a)
	d.Write(a, 0, []byte{1})
	d.Activate(a) // fails: the bank is open
	d.Precharge(0)
	d.Precharge(0) // no-op: the bank is closed
	d.RowCloneCopy(a, RowAddr{Bank: 0, Row: 2})
	want := tm.ActEnergyPJ + tm.RdWrEnergyPJ + tm.PreEnergyPJ + tm.RowCloneEnergyPJ
	if got := d.EnergyPJ(); got != want {
		t.Fatalf("energy = %g pJ, want %g", got, want)
	}
}

func TestTimingValidate(t *testing.T) {
	if err := DDR4Timing().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DDR4Timing()
	bad.TRC = 1
	if err := bad.Validate(); err == nil {
		t.Fatal("tRC < tRAS+tRP must fail validation")
	}
	bad2 := DDR4Timing()
	bad2.TRCD = 0
	if err := bad2.Validate(); err == nil {
		t.Fatal("zero tRCD must fail validation")
	}
}

func TestSwapLatencyIsThreeCopies(t *testing.T) {
	tm := DDR4Timing()
	if tm.SwapLatency() != 3*tm.RowCloneFPM {
		t.Fatalf("swap latency %v, want 3x %v", tm.SwapLatency(), tm.RowCloneFPM)
	}
}

func TestPicosecondsString(t *testing.T) {
	cases := map[Picoseconds]string{
		500:             "500ps",
		2 * Nanosecond:  "2.000ns",
		3 * Microsecond: "3.000us",
		4 * Millisecond: "4.000ms",
		2 * Second:      "2.000s",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(in), got, want)
		}
	}
}

func TestAddrMapperRoundTrip(t *testing.T) {
	m := NewAddrMapper(SmallGeometry())
	f := func(p uint32) bool {
		phys := int64(p) % m.Geometry().CapacityBytes()
		row, col, err := m.Translate(phys)
		if err != nil {
			return false
		}
		back, err := m.Untranslate(row, col)
		return err == nil && back == phys
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAddrMapperInterleavesBanks(t *testing.T) {
	g := SmallGeometry()
	m := NewAddrMapper(g)
	r0, _, _ := m.Translate(0)
	r1, _, _ := m.Translate(int64(g.RowBytes))
	if r0.Bank == r1.Bank {
		t.Fatal("consecutive rows must map to different banks")
	}
}

func TestAddrMapperRejectsOutOfRange(t *testing.T) {
	m := NewAddrMapper(SmallGeometry())
	if _, _, err := m.Translate(-1); err == nil {
		t.Fatal("negative address must fail")
	}
	if _, _, err := m.Translate(m.Geometry().CapacityBytes()); err == nil {
		t.Fatal("address past capacity must fail")
	}
}
