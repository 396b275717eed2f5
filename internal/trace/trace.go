// Package trace provides memory-trace generation, serialization and replay
// through the DRAM-Locker controller — the reproduction's stand-in for the
// paper's gem5 stage (Fig. 6): workloads are expressed as request traces,
// replayed against the controller, and summarised into the latency and
// energy statistics the evaluation consumes.
//
// Trace text format, one request per line:
//
//	R <phys> <len> <P|U>    read
//	W <phys> <len> <P|U>    write (payload is synthesized)
//	H <bank> <row>          attacker hammer attempt (PRE+ACT)
//	# comment
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/controller"
	"repro/internal/dram"
	"repro/internal/memmap"
	"repro/internal/stats"
)

// Kind is the request type in a trace.
type Kind uint8

// Trace entry kinds.
const (
	Read Kind = iota
	Write
	Hammer
)

// Entry is one trace line.
type Entry struct {
	Kind       Kind
	Phys       int64
	Len        int
	Privileged bool
	// Row is used by Hammer entries.
	Row dram.RowAddr
}

// Trace is an ordered request stream.
type Trace struct {
	Entries []Entry
}

// Len returns the number of entries.
func (t *Trace) Len() int { return len(t.Entries) }

// Append adds entries to the trace.
func (t *Trace) Append(es ...Entry) { t.Entries = append(t.Entries, es...) }

// --- Generators -----------------------------------------------------------------

// InferencePass appends the access pattern of one DNN inference: a
// sequential read sweep over every weight row of the layout (weights are
// streamed once per forward pass), in reads of burstBytes.
func InferencePass(t *Trace, layout *memmap.Layout, burstBytes int) error {
	if burstBytes <= 0 {
		return fmt.Errorf("trace: burstBytes must be positive, got %d", burstBytes)
	}
	total := layout.QM.TotalWeights()
	for w := 0; w < total; w += burstBytes {
		n := burstBytes
		if w+n > total {
			n = total - w
		}
		// A burst must not cross a row boundary.
		rb := layout.Dev.Geometry().RowBytes
		if rem := rb - w%rb; n > rem {
			n = rem
		}
		phys, err := layout.PhysOfWeight(w)
		if err != nil {
			return err
		}
		t.Append(Entry{Kind: Read, Phys: phys, Len: n, Privileged: true})
	}
	return nil
}

// HammerBurst appends n attacker hammer attempts on the given row.
func HammerBurst(t *Trace, row dram.RowAddr, n int) {
	for i := 0; i < n; i++ {
		t.Append(Entry{Kind: Hammer, Row: row})
	}
}

// Interleave builds a new trace alternating blocks of a and b: blockA
// entries from a, then blockB from b, repeating until both are drained.
func Interleave(a, b *Trace, blockA, blockB int) *Trace {
	if blockA <= 0 {
		blockA = 1
	}
	if blockB <= 0 {
		blockB = 1
	}
	out := &Trace{}
	i, j := 0, 0
	for i < len(a.Entries) || j < len(b.Entries) {
		for k := 0; k < blockA && i < len(a.Entries); k++ {
			out.Append(a.Entries[i])
			i++
		}
		for k := 0; k < blockB && j < len(b.Entries); k++ {
			out.Append(b.Entries[j])
			j++
		}
	}
	return out
}

// RandomAccess appends n uniformly random privileged reads over the first
// span bytes of the address space (background workload noise).
func RandomAccess(t *Trace, geom dram.Geometry, span int64, n, size int, seed uint64) {
	rng := stats.NewRNG(seed)
	rb := int64(geom.RowBytes)
	if span > geom.CapacityBytes() {
		span = geom.CapacityBytes()
	}
	for i := 0; i < n; i++ {
		phys := rng.Int63() % span
		// Keep the burst within one row.
		if phys%rb+int64(size) > rb {
			phys -= phys%rb + int64(size) - rb
		}
		if phys < 0 {
			phys = 0
		}
		t.Append(Entry{Kind: Read, Phys: phys, Len: size, Privileged: true})
	}
}

// --- Serialization ---------------------------------------------------------------

// WriteTo serialises the trace in the text format.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	for _, e := range t.Entries {
		var line string
		switch e.Kind {
		case Read, Write:
			k := "R"
			if e.Kind == Write {
				k = "W"
			}
			p := "U"
			if e.Privileged {
				p = "P"
			}
			line = fmt.Sprintf("%s %d %d %s\n", k, e.Phys, e.Len, p)
		case Hammer:
			line = fmt.Sprintf("H %d %d\n", e.Row.Bank, e.Row.Row)
		}
		m, err := bw.WriteString(line)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// Parse reads a trace from the text format.
func Parse(r io.Reader) (*Trace, error) {
	t := &Trace{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		e, err := parseFields(fields)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		t.Append(e)
	}
	return t, sc.Err()
}

func parseFields(fields []string) (Entry, error) {
	switch fields[0] {
	case "R", "W":
		if len(fields) != 4 {
			return Entry{}, fmt.Errorf("want 'R|W phys len P|U', got %v", fields)
		}
		phys, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return Entry{}, err
		}
		n, err := strconv.Atoi(fields[2])
		if err != nil {
			return Entry{}, err
		}
		if phys < 0 || n <= 0 {
			return Entry{}, fmt.Errorf("want a non-negative address and a positive length, got %v", fields)
		}
		var priv bool
		switch fields[3] {
		case "P":
			priv = true
		case "U":
		default:
			return Entry{}, fmt.Errorf("privilege flag %q", fields[3])
		}
		k := Read
		if fields[0] == "W" {
			k = Write
		}
		return Entry{Kind: k, Phys: phys, Len: n, Privileged: priv}, nil
	case "H":
		if len(fields) != 3 {
			return Entry{}, fmt.Errorf("want 'H bank row', got %v", fields)
		}
		bank, err := strconv.Atoi(fields[1])
		if err != nil {
			return Entry{}, err
		}
		row, err := strconv.Atoi(fields[2])
		if err != nil {
			return Entry{}, err
		}
		if bank < 0 || row < 0 {
			return Entry{}, fmt.Errorf("want a non-negative bank and row, got %v", fields)
		}
		return Entry{Kind: Hammer, Row: dram.RowAddr{Bank: bank, Row: row}}, nil
	default:
		return Entry{}, fmt.Errorf("unknown kind %q", fields[0])
	}
}

// --- Replay -----------------------------------------------------------------------

// ReplayStats summarises one replay.
type ReplayStats struct {
	Requests      int
	Denied        int
	Swaps         int64
	RowHits       int64
	RowMisses     int64
	TotalLatency  dram.Picoseconds
	DeniedLatency dram.Picoseconds
	// VictimLatency is the latency charged to privileged requests only —
	// the defense's slowdown of the legitimate workload.
	VictimLatency dram.Picoseconds
	EnergyPJ      float64
}

// RowHitRate returns the fraction of accesses that hit the open row.
func (s ReplayStats) RowHitRate() float64 {
	total := s.RowHits + s.RowMisses
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}

// Replay drives the trace through the controller and aggregates statistics.
// A read or write must fit in one DRAM row; a longer or non-positive
// length fails its entry.
//
// The per-entry dispatch is allocation-free: one row-sized write payload
// and one row-sized read destination serve every entry, and read results
// land in the reused destination via Request.Buf instead of a
// per-request buffer.
func Replay(t *Trace, ctl *controller.Controller) (ReplayStats, error) {
	var rs ReplayStats
	startSwaps := ctl.Stats().Swaps
	startHits := ctl.Stats().RowHits
	startMisses := ctl.Stats().RowMisses
	startEnergy := ctl.Device().Stats().EnergyPJ
	rowBytes := ctl.Device().Geometry().RowBytes
	payload := make([]byte, rowBytes)
	readBuf := make([]byte, rowBytes)
	for i := range t.Entries {
		e := &t.Entries[i]
		rs.Requests++
		if e.Kind != Hammer && (e.Len <= 0 || e.Len > rowBytes) {
			return rs, fmt.Errorf("trace: entry %d: length %d outside a %d-byte DRAM row", i, e.Len, rowBytes)
		}
		switch e.Kind {
		case Hammer:
			activated, lat, err := ctl.HammerAttempt(e.Row)
			if err != nil {
				return rs, fmt.Errorf("trace: entry %d: %w", i, err)
			}
			rs.TotalLatency += lat
			if !activated {
				rs.Denied++
				rs.DeniedLatency += lat
			}
		case Read:
			resp, err := ctl.Submit(controller.Request{
				Kind: controller.ReqRead, Phys: e.Phys, Len: e.Len, Privileged: e.Privileged,
				Buf: readBuf,
			})
			if err != nil {
				return rs, fmt.Errorf("trace: entry %d: %w", i, err)
			}
			rs.accumulate(resp, e.Privileged)
		case Write:
			resp, err := ctl.Submit(controller.Request{
				Kind: controller.ReqWrite, Phys: e.Phys, Data: payload[:e.Len], Privileged: e.Privileged,
			})
			if err != nil {
				return rs, fmt.Errorf("trace: entry %d: %w", i, err)
			}
			rs.accumulate(resp, e.Privileged)
		}
	}
	rs.Swaps = ctl.Stats().Swaps - startSwaps
	rs.RowHits = ctl.Stats().RowHits - startHits
	rs.RowMisses = ctl.Stats().RowMisses - startMisses
	rs.EnergyPJ = ctl.Device().Stats().EnergyPJ - startEnergy
	return rs, nil
}

func (rs *ReplayStats) accumulate(resp controller.Response, privileged bool) {
	rs.TotalLatency += resp.Latency
	if resp.Denied {
		rs.Denied++
		rs.DeniedLatency += resp.Latency
	}
	if privileged {
		rs.VictimLatency += resp.Latency
	}
}
