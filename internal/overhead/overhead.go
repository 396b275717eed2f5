// Package overhead reproduces Table I of the paper: the hardware cost of
// DRAM-Locker against prior RowHammer mitigation frameworks, normalised to
// a 32GB, 16-bank DDR4 DIMM (dram.DefaultGeometry).
//
// The prior frameworks' rows are their published sizes at that capacity.
// Two rows are computed from their structure: counter-per-row (one 8-byte
// counter per row of the 32GB geometry) and DRAM-Locker (the lock-table's
// locktable.Capacity entries of locktable.EntryBytes each).
package overhead

import (
	"fmt"
	"sort"

	"repro/internal/dram"
	"repro/internal/locktable"
)

// MemoryKind is the class of memory a framework spends for its metadata.
type MemoryKind string

// Memory kinds found in Table I.
const (
	MemDRAM MemoryKind = "DRAM"
	MemSRAM MemoryKind = "SRAM"
	MemCAM  MemoryKind = "CAM"
)

// Component is one block of metadata storage.
type Component struct {
	Kind  MemoryKind
	Bytes int64
}

// Report is one framework's Table I row.
type Report struct {
	Framework string
	// Components lists each metadata store (kind + size).
	Components []Component
	// Counters is the number of hardware counters ("area overhead" column
	// for counter-based schemes).
	Counters int
	// AreaPercent is the die-area overhead when the paper reports one.
	AreaPercent float64
	// AreaKnown marks frameworks whose area percentage is published.
	AreaKnown bool
	// Notes carries caveats (e.g. "NR" entries in the paper).
	Notes string
}

// CapacityBytesByKind sums component sizes per memory kind.
func (r Report) CapacityBytesByKind() map[MemoryKind]int64 {
	out := make(map[MemoryKind]int64)
	for _, c := range r.Components {
		out[c.Kind] += c.Bytes
	}
	return out
}

// TotalBytes sums all metadata storage.
func (r Report) TotalBytes() int64 {
	var t int64
	for _, c := range r.Components {
		t += c.Bytes
	}
	return t
}

// InvolvedMemory renders the "involved memory" Table I column.
func (r Report) InvolvedMemory() string {
	seen := make(map[MemoryKind]bool)
	var kinds []string
	for _, c := range r.Components {
		if !seen[c.Kind] {
			seen[c.Kind] = true
			kinds = append(kinds, string(c.Kind))
		}
	}
	sort.Strings(kinds)
	s := ""
	for i, k := range kinds {
		if i > 0 {
			s += "-"
		}
		s += k
	}
	return s
}

const (
	kb = 1 << 10
	mb = 1 << 20
)

// mbytes converts a published size in MB to bytes, truncating the
// fraction.
func mbytes(x float64) int64 { return int64(x * mb) }

// Graphene models Park et al. MICRO'20: per-bank Misra-Gries tables kept
// in CAM (row ids) + SRAM (counts). Paper row: 0.53MB CAM + 1.12MB SRAM,
// 1 counter adder.
func Graphene() Report {
	return Report{
		Framework: "Graphene",
		Components: []Component{
			{Kind: MemCAM, Bytes: mbytes(0.53)},
			{Kind: MemSRAM, Bytes: mbytes(1.12)},
		},
		Counters:  1,
		AreaKnown: false,
		Notes:     "Misra-Gries summaries per bank",
	}
}

// Hydra models Qureshi et al. ISCA'22: a small SRAM group-count cache plus
// per-row counters spilled to DRAM. Paper row: 56KB SRAM + 4MB DRAM.
func Hydra() Report {
	return Report{
		Framework: "Hydra",
		Components: []Component{
			{Kind: MemSRAM, Bytes: 56 * kb},
			{Kind: MemDRAM, Bytes: 4 * mb},
		},
		Counters:  1,
		AreaKnown: false,
		Notes:     "hybrid SRAM filter + DRAM counter spill",
	}
}

// TWiCE models Lee et al. ISCA'19 time-window counters:
// 3.16MB SRAM + 1.6MB CAM.
func TWiCE() Report {
	return Report{
		Framework: "TWiCE",
		Components: []Component{
			{Kind: MemSRAM, Bytes: mbytes(3.16)},
			{Kind: MemCAM, Bytes: mbytes(1.6)},
		},
		Counters:  1,
		AreaKnown: false,
		Notes:     "time-window counter table",
	}
}

// CounterPerRow models the brute-force design: one counter per DRAM row,
// stored in DRAM. With 4Mi rows and 8B per counter entry: 32MB.
func CounterPerRow() Report {
	rows := int64(dram.DefaultGeometry().TotalRows())
	const counterBytes = 8
	return Report{
		Framework: "Counter per Row",
		Components: []Component{
			{Kind: MemDRAM, Bytes: rows * counterBytes},
		},
		Counters:  16384, // paper's per-bank mat-level adders
		AreaKnown: false,
		Notes:     "one counter per row",
	}
}

// CounterTree models Seyedzadeh et al. CAL'16: a tree of shared counters,
// 2MB DRAM, 1024 counters.
func CounterTree() Report {
	return Report{
		Framework: "Counter Tree",
		Components: []Component{
			{Kind: MemDRAM, Bytes: 2 * mb},
		},
		Counters:  1024,
		AreaKnown: false,
		Notes:     "shared counter tree",
	}
}

// RRS models Saileshwar et al. ASPLOS'22 randomized row-swap: an indirection
// (swap) table in DRAM plus an SRAM cache the paper reports as NR.
func RRS() Report {
	return Report{
		Framework: "RRS",
		Components: []Component{
			{Kind: MemDRAM, Bytes: 4 * mb},
			{Kind: MemSRAM, Bytes: 0},
		},
		AreaKnown: false,
		Notes:     "SRAM size not reported (NR)",
	}
}

// SRS models Woo et al. secure row-swap: 1.26MB DRAM + unreported SRAM.
func SRS() Report {
	return Report{
		Framework: "SRS",
		Components: []Component{
			{Kind: MemDRAM, Bytes: mbytes(1.26)},
			{Kind: MemSRAM, Bytes: 0},
		},
		AreaKnown: false,
		Notes:     "SRAM size not reported (NR)",
	}
}

// SHADOW models Wi et al. HPCA'23 intra-subarray shuffling: only a small
// DRAM bookkeeping region (0.16MB) and 0.6% area.
func SHADOW() Report {
	return Report{
		Framework: "SHADOW",
		Components: []Component{
			{Kind: MemDRAM, Bytes: mbytes(0.16)},
		},
		AreaPercent: 0.6,
		AreaKnown:   true,
		Notes:       "row shuffle map per subarray",
	}
}

// PPIM models Zhou et al. DATE'23 P-PIM: 4.125MB DRAM, 0.34% area.
func PPIM() Report {
	return Report{
		Framework: "P-PIM",
		Components: []Component{
			{Kind: MemDRAM, Bytes: mbytes(4.125)},
		},
		AreaPercent: 0.34,
		AreaKnown:   true,
		Notes:       "LUT-based in-DRAM protection",
	}
}

// DRAMLocker computes the paper's own row from first principles: zero DRAM
// capacity overhead (buffer rows are reserve rows that already exist) and a
// lock-table SRAM sized by its entry count. The 8192-entry table at
// 7B/entry is the paper's 56KB SRAM, 0.02% area.
func DRAMLocker() Report {
	tableBytes := int64(locktable.Capacity * locktable.EntryBytes)
	return Report{
		Framework: "DRAM-Locker",
		Components: []Component{
			{Kind: MemDRAM, Bytes: 0},
			{Kind: MemSRAM, Bytes: tableBytes},
		},
		AreaPercent: 0.02,
		AreaKnown:   true,
		Notes:       "lock-table only, no counters",
	}
}

// Table1Frameworks lists the Table I rows in paper order — the shard axis
// of the table1 grid job.
func Table1Frameworks() []string {
	return []string{
		"Graphene", "Hydra", "TWiCE", "CounterPerRow", "CounterTree",
		"RRS", "SRS", "SHADOW", "P-PIM", "DRAM-Locker",
	}
}

// Table1Report computes one framework's overhead row.
func Table1Report(name string) (Report, error) {
	switch name {
	case "Graphene":
		return Graphene(), nil
	case "Hydra":
		return Hydra(), nil
	case "TWiCE":
		return TWiCE(), nil
	case "CounterPerRow":
		return CounterPerRow(), nil
	case "CounterTree":
		return CounterTree(), nil
	case "RRS":
		return RRS(), nil
	case "SRS":
		return SRS(), nil
	case "SHADOW":
		return SHADOW(), nil
	case "P-PIM":
		return PPIM(), nil
	case "DRAM-Locker":
		return DRAMLocker(), nil
	default:
		return Report{}, fmt.Errorf("overhead: unknown framework %q", name)
	}
}

// FormatBytes renders a byte count the way the paper does (KB / MB).
func FormatBytes(b int64) string {
	switch {
	case b == 0:
		return "0"
	case b >= mb:
		v := float64(b) / float64(mb)
		if v == float64(int64(v)) {
			return fmt.Sprintf("%dMB", int64(v))
		}
		return fmt.Sprintf("%.2fMB", v)
	case b >= kb:
		v := float64(b) / float64(kb)
		if v == float64(int64(v)) {
			return fmt.Sprintf("%dKB", int64(v))
		}
		return fmt.Sprintf("%.1fKB", v)
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// CapacityCell renders the "capacity overhead" Table I cell for a report.
func (r Report) CapacityCell() string {
	var parts []string
	for _, c := range r.Components {
		if c.Bytes == 0 && c.Kind == MemSRAM && (r.Framework == "RRS" || r.Framework == "SRS") {
			parts = append(parts, "NR("+string(c.Kind)+")")
			continue
		}
		parts = append(parts, FormatBytes(c.Bytes)+"("+string(c.Kind)+")")
	}
	s := ""
	for i, p := range parts {
		if i > 0 {
			s += "+"
		}
		s += p
	}
	return s
}

// AreaCell renders the "area overhead" Table I cell.
func (r Report) AreaCell() string {
	if r.AreaKnown {
		return fmt.Sprintf("%.2f%%", r.AreaPercent)
	}
	if r.Counters > 0 {
		if r.Counters == 1 {
			return "1 counter"
		}
		return fmt.Sprintf("%d counters", r.Counters)
	}
	return "NULL"
}
