package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/memmap"
	"repro/internal/nn"
	"repro/internal/quant"
)

func newSystem(t *testing.T) (*core.System, *memmap.Layout) {
	t.Helper()
	sys, err := core.NewSystem(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	qm := quant.NewModel(nn.NewResNet20(4, 0.125, 55))
	layout, err := memmap.New(qm, sys.Device(), sys.Controller().IsReserved)
	if err != nil {
		t.Fatal(err)
	}
	return sys, layout
}

func TestInferencePassCoversAllWeights(t *testing.T) {
	_, layout := newSystem(t)
	tr := &Trace{}
	if err := InferencePass(tr, layout, 64); err != nil {
		t.Fatal(err)
	}
	var total int
	for _, e := range tr.Entries {
		if e.Kind != Read || !e.Privileged {
			t.Fatal("inference pass must be privileged reads")
		}
		total += e.Len
	}
	if total != layout.QM.TotalWeights() {
		t.Fatalf("trace covers %d bytes, want %d", total, layout.QM.TotalWeights())
	}
}

// roundTripTrace holds one entry of each kind.
func roundTripTrace() *Trace {
	tr := &Trace{}
	tr.Append(
		Entry{Kind: Read, Phys: 4096, Len: 64, Privileged: true},
		Entry{Kind: Write, Phys: 128, Len: 8, Privileged: false},
		Entry{Kind: Hammer, Row: dram.RowAddr{Bank: 1, Row: 17}},
	)
	return tr
}

// parseCommentsSrc is a valid trace with a comment and a blank line.
const parseCommentsSrc = "# header\n\nR 100 4 P\nH 0 3\n"

// parseErrorCases are traces Parse must reject: malformed lines, then
// lengths that are not positive and negative addresses, banks and rows.
var parseErrorCases = []string{
	"X 1 2\n", "R 1\n", "R a 4 P\n", "R 1 4 Z\n", "H 1\n",
	"W 0 -1 U\n", "R 0 -1 P\n", "W 0 0 U\n", "R -1 4 P\n", "H -1 3\n", "H 0 -3\n",
}

func TestSerializationRoundTrip(t *testing.T) {
	tr := roundTripTrace()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != tr.Len() {
		t.Fatalf("round trip %d entries, want %d", back.Len(), tr.Len())
	}
	for i := range tr.Entries {
		if back.Entries[i] != tr.Entries[i] {
			t.Fatalf("entry %d: %+v != %+v", i, back.Entries[i], tr.Entries[i])
		}
	}
}

func TestParseCommentsAndErrors(t *testing.T) {
	tr, err := Parse(strings.NewReader(parseCommentsSrc))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 2 {
		t.Fatalf("entries = %d", tr.Len())
	}
	for _, bad := range parseErrorCases {
		_, err := Parse(strings.NewReader("R 0 4 U\n" + bad))
		if err == nil || !strings.Contains(err.Error(), "line 2:") {
			t.Errorf("Parse(%q) = %v, want a line 2 error", bad, err)
		}
	}
}

// TestReplayRejectsLengthsOutsideARow: a read or write that is empty,
// negative (a write used to panic slicing its payload) or longer than a
// DRAM row (which used to size the replay buffers first) fails its entry.
func TestReplayRejectsLengthsOutsideARow(t *testing.T) {
	sys, _ := newSystem(t)
	rowBytes := sys.Device().Geometry().RowBytes
	for _, e := range []Entry{
		{Kind: Write, Len: -1},
		{Kind: Read, Len: -1},
		{Kind: Write},
		{Kind: Write, Len: rowBytes + 1},
		{Kind: Read, Len: 1 << 20},
	} {
		tr := &Trace{}
		tr.Append(Entry{Kind: Read, Len: 4}, e)
		_, err := Replay(tr, sys.Controller())
		if err == nil || !strings.Contains(err.Error(), "entry 1: length") {
			t.Errorf("Replay of %+v = %v, want an entry 1 length error", e, err)
		}
	}
}

func TestInterleave(t *testing.T) {
	a := &Trace{}
	b := &Trace{}
	for i := 0; i < 4; i++ {
		a.Append(Entry{Kind: Read, Phys: int64(i), Len: 1, Privileged: true})
	}
	for i := 0; i < 2; i++ {
		b.Append(Entry{Kind: Hammer, Row: dram.RowAddr{Bank: 0, Row: i}})
	}
	out := Interleave(a, b, 2, 1)
	if out.Len() != 6 {
		t.Fatalf("len = %d", out.Len())
	}
	// Pattern: a a b a a b.
	if out.Entries[2].Kind != Hammer || out.Entries[5].Kind != Hammer {
		t.Fatal("interleave pattern wrong")
	}
}

func TestReplayCleanWorkload(t *testing.T) {
	sys, layout := newSystem(t)
	tr := &Trace{}
	if err := InferencePass(tr, layout, 64); err != nil {
		t.Fatal(err)
	}
	rs, err := Replay(tr, sys.Controller())
	if err != nil {
		t.Fatal(err)
	}
	if rs.Denied != 0 {
		t.Fatalf("clean workload denied %d", rs.Denied)
	}
	if rs.TotalLatency <= 0 || rs.EnergyPJ <= 0 {
		t.Fatal("latency/energy not accounted")
	}
	// Sequential reads within rows should mostly row-hit.
	if rs.RowHitRate() < 0.5 {
		t.Fatalf("row hit rate %.2f too low for sequential sweep", rs.RowHitRate())
	}
}

func TestReplayDefendedAttackIsDenied(t *testing.T) {
	sys, layout := newSystem(t)
	if _, err := sys.ProtectWeights(layout); err != nil {
		t.Fatal(err)
	}
	victim := layout.WeightRows()[0]
	aggs := sys.Device().Geometry().Neighbors(victim, 1)
	tr := &Trace{}
	for _, a := range aggs {
		HammerBurst(tr, a, 50)
	}
	rs, err := Replay(tr, sys.Controller())
	if err != nil {
		t.Fatal(err)
	}
	if rs.Requests != 50*len(aggs) {
		t.Fatalf("requests = %d", rs.Requests)
	}
	for _, a := range aggs {
		if n := sys.Hammer().Count(a); n != 0 {
			t.Fatalf("%d activations of locked %v reached the array", n, a)
		}
	}
}

// TestDefenseSlowdownIsBounded measures the paper's core performance
// claim: the victim's inference workload is barely slowed by DRAM-Locker
// because only aggressor-adjacent rows are locked, never the weights
// themselves.
func TestDefenseSlowdownIsBounded(t *testing.T) {
	run := func(protect bool) dram.Picoseconds {
		sys, layout := newSystem(t)
		if protect {
			if _, err := sys.ProtectWeights(layout); err != nil {
				t.Fatal(err)
			}
		}
		tr := &Trace{}
		for pass := 0; pass < 3; pass++ {
			if err := InferencePass(tr, layout, 64); err != nil {
				t.Fatal(err)
			}
		}
		rs, err := Replay(tr, sys.Controller())
		if err != nil {
			t.Fatal(err)
		}
		return rs.VictimLatency
	}
	base := run(false)
	defended := run(true)
	// Weights are never locked, so the only extra cost is lock-table
	// lookups: the slowdown must stay under 5%.
	ratio := float64(defended) / float64(base)
	if ratio > 1.05 {
		t.Fatalf("defended/undefended latency ratio %.3f, want <= 1.05", ratio)
	}
}

func TestRandomAccessStaysInRows(t *testing.T) {
	geom := dram.SmallGeometry()
	tr := &Trace{}
	RandomAccess(tr, geom, geom.CapacityBytes(), 200, 32, 9)
	rb := int64(geom.RowBytes)
	for _, e := range tr.Entries {
		if e.Phys%rb+int64(e.Len) > rb {
			t.Fatalf("burst at 0x%x len %d crosses a row boundary", e.Phys, e.Len)
		}
	}
	sys, _ := newSystem(t)
	if _, err := Replay(tr, sys.Controller()); err != nil {
		t.Fatal(err)
	}
}

func TestReplayMixedStreamAccounting(t *testing.T) {
	sys, layout := newSystem(t)
	if _, err := sys.ProtectWeights(layout); err != nil {
		t.Fatal(err)
	}
	legit := &Trace{}
	if err := InferencePass(legit, layout, 128); err != nil {
		t.Fatal(err)
	}
	attack := &Trace{}
	victim := layout.WeightRows()[0]
	for _, a := range sys.Device().Geometry().Neighbors(victim, 1) {
		HammerBurst(attack, a, 30)
	}
	mixed := Interleave(legit, attack, 4, 2)
	rs, err := Replay(mixed, sys.Controller())
	if err != nil {
		t.Fatal(err)
	}
	if rs.VictimLatency <= 0 {
		t.Fatal("victim latency missing")
	}
	if rs.VictimLatency >= rs.TotalLatency {
		t.Fatal("attacker stream latency must be non-zero")
	}
}

func TestReplayInvalidEntrySurfacesError(t *testing.T) {
	sys, _ := newSystem(t)
	tr := &Trace{}
	tr.Append(Entry{Kind: Read, Phys: -1, Len: 4, Privileged: true})
	if _, err := Replay(tr, sys.Controller()); err == nil {
		t.Fatal("invalid phys must surface as replay error")
	}
}
