package pagetable

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/dram"
	"repro/internal/stats"
)

func newTable(t *testing.T, pages int) (*dram.Device, *Table) {
	t.Helper()
	dev, err := dram.NewDevice(dram.SmallGeometry())
	if err != nil {
		t.Fatal(err)
	}
	var ptRows []dram.RowAddr
	for r := 0; r < 8; r++ {
		ptRows = append(ptRows, dram.RowAddr{Bank: 1, Row: r * 2})
	}
	tab, err := New(dev, ptRows, pages)
	if err != nil {
		t.Fatal(err)
	}
	return dev, tab
}

func TestPTEEncodeDecodeRoundTrip(t *testing.T) {
	f := func(pfn uint64, valid bool) bool {
		p := PTE{Valid: valid, PFN: pfn & ((1 << 52) - 1)}
		return DecodePTE(p.Encode()) == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMapFrameOfRoundTrip(t *testing.T) {
	_, tab := newTable(t, 16)
	frame := dram.RowAddr{Bank: 0, Row: 33}
	if err := tab.Map(3, frame); err != nil {
		t.Fatal(err)
	}
	got, err := tab.FrameOf(3)
	if err != nil {
		t.Fatal(err)
	}
	if got != frame {
		t.Fatalf("FrameOf(3) = %v, want %v", got, frame)
	}
}

func TestFrameOfUnmappedFails(t *testing.T) {
	_, tab := newTable(t, 16)
	if _, err := tab.FrameOf(5); !errors.Is(err, ErrUnmapped) {
		t.Fatalf("err = %v, want ErrUnmapped", err)
	}
	tab.Map(0, dram.RowAddr{Bank: 0, Row: 5})
	tab.Unmap(0)
	if _, err := tab.FrameOf(0); !errors.Is(err, ErrUnmapped) {
		t.Fatal("unmapped page must not resolve")
	}
	if _, err := tab.FrameOf(16); !errors.Is(err, ErrBadVirtual) {
		t.Fatalf("err = %v, want ErrBadVirtual past the last page", err)
	}
}

func TestFrameOfRandomMappingProperty(t *testing.T) {
	_, tab := newTable(t, 32)
	rng := stats.NewRNG(3)
	geom := dram.SmallGeometry()
	frames := make(map[int]dram.RowAddr)
	for p := 0; p < 32; p++ {
		f := dram.RowAddr{Bank: rng.Intn(geom.Banks()), Row: rng.Intn(geom.RowsPerBank())}
		if err := tab.Map(p, f); err != nil {
			t.Fatal(err)
		}
		frames[p] = f
	}
	for p, f := range frames {
		row, err := tab.FrameOf(p)
		if err != nil {
			t.Fatal(err)
		}
		if row != f {
			t.Fatalf("page %d resolves to %v, want %v", p, row, f)
		}
	}
}

func TestPFNBitFlipRedirects(t *testing.T) {
	dev, tab := newTable(t, 16)
	geom := dev.Geometry()
	frame := dram.RowAddr{Bank: 0, Row: 8}
	if err := tab.Map(2, frame); err != nil {
		t.Fatal(err)
	}
	// Flip PFN bit 0: the page now points at linear index ^ 1.
	row, bit, err := tab.PFNBitOf(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.FlipBit(row, bit); err != nil {
		t.Fatal(err)
	}
	got, err := tab.FrameOf(2)
	if err != nil {
		t.Fatal(err)
	}
	want := geom.FromLinearIndex(geom.LinearIndex(frame) ^ 1)
	if got != want {
		t.Fatalf("redirected frame %v, want %v", got, want)
	}
}

func TestCorruptPFNBeyondRowsDetected(t *testing.T) {
	dev, tab := newTable(t, 16)
	tab.Map(1, dram.RowAddr{Bank: 0, Row: 1})
	// Flip a high PFN bit pushing it past the row count.
	row, bit, err := tab.PFNBitOf(1, 40)
	if err != nil {
		t.Fatal(err)
	}
	dev.FlipBit(row, bit)
	if _, err := tab.FrameOf(1); err == nil {
		t.Fatal("corrupt out-of-range PFN must be detected")
	}
}

func TestEntryRowAssignment(t *testing.T) {
	dev, tab := newTable(t, 64)
	per := dev.Geometry().RowBytes / PTESize
	r0, err := tab.EntryRowOf(0)
	if err != nil {
		t.Fatal(err)
	}
	rLast, err := tab.EntryRowOf(per - 1)
	if err != nil {
		t.Fatal(err)
	}
	if r0 != rLast {
		t.Fatal("entries within one row's capacity must share the row")
	}
	if per < 64 {
		rNext, _ := tab.EntryRowOf(per)
		if rNext == r0 {
			t.Fatal("entry past row capacity must move to the next PT row")
		}
	}
}

func TestTableCapacityValidation(t *testing.T) {
	dev, err := dram.NewDevice(dram.SmallGeometry())
	if err != nil {
		t.Fatal(err)
	}
	one := []dram.RowAddr{{Bank: 0, Row: 0}}
	per := dev.Geometry().RowBytes / PTESize
	if _, err := New(dev, one, per+1); !errors.Is(err, ErrTableFull) {
		t.Fatalf("err = %v, want ErrTableFull", err)
	}
	if _, err := New(dev, one, 0); err == nil {
		t.Fatal("zero pages must fail")
	}
	if _, err := New(dev, []dram.RowAddr{{Bank: 99, Row: 0}}, 1); err == nil {
		t.Fatal("invalid PT row must fail")
	}
}

func TestMapValidation(t *testing.T) {
	_, tab := newTable(t, 8)
	if err := tab.Map(99, dram.RowAddr{Bank: 0, Row: 0}); !errors.Is(err, ErrBadVirtual) {
		t.Fatalf("err = %v, want ErrBadVirtual", err)
	}
	if err := tab.Map(0, dram.RowAddr{Bank: 99, Row: 0}); err == nil {
		t.Fatal("invalid frame must be rejected")
	}
	if _, _, err := tab.PFNBitOf(0, 60); err == nil {
		t.Fatal("PFN bit beyond field width must be rejected")
	}
}
