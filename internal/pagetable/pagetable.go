// Package pagetable implements the OS page-table substrate the Page Table
// Attack (PTA) threat model needs (paper §III, Fig. 3(b)): page-table
// entries that live inside simulated DRAM rows, the page-to-frame lookup
// (FrameOf), and the PFN bit layout whose corruption redirects a virtual
// page to a different physical frame.
//
// Pages are DRAM-row sized, so a page frame number (PFN) is exactly a
// linear row index; this matches the paper's row-granularity attack.
// Translation path:
//
//	page -> PTE (8 bytes, stored in a PT row) -> [valid | PFN] -> physical row
package pagetable

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/dram"
)

// PTESize is the size of one page-table entry in bytes.
const PTESize = 8

// PTE field layout within the 64-bit entry.
const (
	pteValidBit = 63
	pfnMask     = (uint64(1) << 52) - 1
)

// Errors returned by table lookups.
var (
	ErrUnmapped   = errors.New("pagetable: virtual page not mapped")
	ErrBadVirtual = errors.New("pagetable: virtual address out of range")
	ErrTableFull  = errors.New("pagetable: page-table rows exhausted")
)

// PTE is a decoded page-table entry.
type PTE struct {
	Valid bool
	// PFN is the physical frame number = linear row index in the device
	// geometry.
	PFN uint64
}

// Encode packs the entry.
func (p PTE) Encode() uint64 {
	v := p.PFN & pfnMask
	if p.Valid {
		v |= 1 << pteValidBit
	}
	return v
}

// DecodePTE unpacks an entry.
func DecodePTE(v uint64) PTE {
	return PTE{Valid: v&(1<<pteValidBit) != 0, PFN: v & pfnMask}
}

// Table is a single-level page table stored in reserved DRAM rows.
// (The paper's attack corrupts leaf PTEs; multi-level indirection adds
// nothing to the threat model, so the substrate keeps one level.) Its
// lookups and updates share one row buffer, so a Table is not for
// concurrent use.
type Table struct {
	dev  *dram.Device
	geom dram.Geometry
	// ptRows are the rows holding PTEs, in order.
	ptRows []dram.RowAddr
	// entriesPerRow is RowBytes / PTESize.
	entriesPerRow int
	// numPages is the virtual page count the table covers.
	numPages int
	// buf is one row, read and written by writeEntry and readEntry.
	buf []byte
}

// New builds a page table covering numPages virtual pages, storing PTEs in
// the given reserved rows. Rows must provide capacity for all entries.
func New(dev *dram.Device, ptRows []dram.RowAddr, numPages int) (*Table, error) {
	if numPages <= 0 {
		return nil, fmt.Errorf("pagetable: numPages must be positive, got %d", numPages)
	}
	geom := dev.Geometry()
	per := geom.RowBytes / PTESize
	need := (numPages + per - 1) / per
	if need > len(ptRows) {
		return nil, fmt.Errorf("%w: need %d rows, have %d", ErrTableFull, need, len(ptRows))
	}
	for _, r := range ptRows {
		if !geom.Valid(r) {
			return nil, fmt.Errorf("pagetable: invalid PT row %v", r)
		}
	}
	return &Table{dev: dev, geom: geom, ptRows: ptRows[:need], entriesPerRow: per, numPages: numPages,
		buf: make([]byte, geom.RowBytes)}, nil
}

// PTRows returns the rows holding page-table entries — the rows a
// PTA-aware defense must protect.
func (t *Table) PTRows() []dram.RowAddr { return t.ptRows }

// entryLocation returns the row and byte offset of a virtual page's PTE.
func (t *Table) entryLocation(page int) (dram.RowAddr, int, error) {
	if page < 0 || page >= t.numPages {
		return dram.RowAddr{}, 0, fmt.Errorf("%w: page %d", ErrBadVirtual, page)
	}
	return t.ptRows[page/t.entriesPerRow], (page % t.entriesPerRow) * PTESize, nil
}

// EntryRowOf returns the DRAM row holding the PTE of a virtual page.
func (t *Table) EntryRowOf(page int) (dram.RowAddr, error) {
	row, _, err := t.entryLocation(page)
	return row, err
}

// Map installs a mapping virtual page -> physical row.
func (t *Table) Map(page int, frame dram.RowAddr) error {
	if !t.geom.Valid(frame) {
		return fmt.Errorf("pagetable: invalid frame %v", frame)
	}
	row, off, err := t.entryLocation(page)
	if err != nil {
		return err
	}
	pte := PTE{Valid: true, PFN: uint64(t.geom.LinearIndex(frame))}
	return t.writeEntry(row, off, pte.Encode())
}

// Unmap invalidates a mapping.
func (t *Table) Unmap(page int) error {
	row, off, err := t.entryLocation(page)
	if err != nil {
		return err
	}
	return t.writeEntry(row, off, 0)
}

func (t *Table) writeEntry(row dram.RowAddr, off int, v uint64) error {
	data := t.buf
	if err := t.dev.PeekRow(row, data); err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(data[off:off+PTESize], v)
	return t.dev.PokeRow(row, data)
}

// readEntry reads the raw PTE bits from DRAM (including any RowHammer
// corruption).
func (t *Table) readEntry(page int) (PTE, error) {
	row, off, err := t.entryLocation(page)
	if err != nil {
		return PTE{}, err
	}
	data := t.buf[:off+PTESize]
	if err := t.dev.PeekRow(row, data); err != nil {
		return PTE{}, err
	}
	return DecodePTE(binary.LittleEndian.Uint64(data[off:])), nil
}

// PFNBitOf returns the in-row bit index of PFN bit `bit` of a page's PTE —
// the precise bit a PTA flip targets.
func (t *Table) PFNBitOf(page, bit int) (dram.RowAddr, int, error) {
	if bit < 0 || bit >= 52 {
		return dram.RowAddr{}, 0, fmt.Errorf("pagetable: PFN bit %d out of range", bit)
	}
	row, off, err := t.entryLocation(page)
	if err != nil {
		return dram.RowAddr{}, 0, err
	}
	return row, off*8 + bit, nil
}

// FrameOf returns the current physical frame of a page (after any
// corruption).
func (t *Table) FrameOf(page int) (dram.RowAddr, error) {
	pte, err := t.readEntry(page)
	if err != nil {
		return dram.RowAddr{}, err
	}
	if !pte.Valid {
		return dram.RowAddr{}, fmt.Errorf("%w: page %d", ErrUnmapped, page)
	}
	if pte.PFN >= uint64(t.geom.TotalRows()) {
		return dram.RowAddr{}, fmt.Errorf("pagetable: corrupt PFN %d", pte.PFN)
	}
	return t.geom.FromLinearIndex(int(pte.PFN)), nil
}
