package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one task share an
// ID (the pass-qualified cache key); Parent names the enclosing span
// with the same ID, or is empty for a root.
type span struct {
	Name   string
	ID     string
	Track  string
	Parent string
	Start  time.Duration // since the tracer's origin
	Dur    time.Duration
}

func (s span) end() time.Duration { return s.Start + s.Dur }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// tracing off: every method is a no-op, so wrappers call it
// unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	slots map[string][]bool
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), slots: make(map[string][]bool)}
}

// add records a finished span.
func (t *tracer) add(name, id, track, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Name: name, ID: id, Track: track, Parent: parent,
		Start: start.Sub(t.t0), Dur: end.Sub(start),
	})
	t.mu.Unlock()
}

// slot reserves the lowest free track named "<prefix> <k>", so
// concurrent calls never overlap on one track (trace viewers expect the
// spans of a track to nest). release frees it.
func (t *tracer) slot(prefix string) (track string, release func()) {
	if t == nil {
		return "", func() {}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	busy := t.slots[prefix]
	k := slices.Index(busy, false)
	if k < 0 {
		k = len(busy)
		busy = append(busy, false)
	}
	busy[k] = true
	t.slots[prefix] = busy
	return fmt.Sprintf("%s %d", prefix, k), func() {
		t.mu.Lock()
		t.slots[prefix][k] = false
		t.mu.Unlock()
	}
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	type key struct{ name, id string }
	byKey := make(map[key]int, len(spans))
	for i, s := range spans {
		byKey[key{s.Name, s.ID}] = i
	}
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent == "" {
			continue
		}
		if p, ok := byKey[key{s.Parent, s.ID}]; ok {
			children[p] = append(children[p], i)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.Name] += s.Dur - covered(s, spans, children[i])
	}
	return out
}

// covered returns how much of parent's interval the union of the child
// spans covers.
func covered(parent span, spans []span, kids []int) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(spans[k].Start, parent.Start), min(spans[k].end(), parent.end())
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, reach time.Duration
	for _, v := range ivs {
		if v.lo > reach {
			reach = v.lo
		}
		if v.hi > reach {
			total += v.hi - reach
			reach = v.hi
		}
	}
	return total
}

// traceEvent is one Chrome trace-event record: "X" (complete) events
// for spans, "M" (metadata) events naming the tracks. Perfetto and
// chrome://tracing load the file directly.
type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// usec converts a duration to trace-event microseconds (ns precision).
func usec(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// writeChromeTrace writes spans as Chrome trace-event JSON, one track
// (tid) per span track in order of first appearance.
func writeChromeTrace(w io.Writer, spans []span) error {
	tids := make(map[string]int)
	var evs []traceEvent
	for _, s := range spans {
		tid, ok := tids[s.Track]
		if !ok {
			tid = len(tids) + 1
			tids[s.Track] = tid
			evs = append(evs, traceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
				Args: map[string]string{"name": s.Track}})
		}
		args := map[string]string{"id": s.ID}
		if s.Parent != "" {
			args["parent"] = s.Parent
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		evs = append(evs, traceEvent{Name: s.Name, Cat: layer, Ph: "X", Ts: usec(s.Start),
			Dur: usec(s.Dur), Pid: 1, Tid: tid, Args: args})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: evs, DisplayTimeUnit: "ms"})
}

// readChromeTrace parses what writeChromeTrace wrote back into spans.
func readChromeTrace(r io.Reader) ([]span, error) {
	var f traceFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("decode trace: %w", err)
	}
	tracks := make(map[int]string)
	for _, e := range f.TraceEvents {
		if e.Ph == "M" && e.Name == "thread_name" {
			tracks[e.Tid] = e.Args["name"]
		}
	}
	var spans []span
	for _, e := range f.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		spans = append(spans, span{
			Name: e.Name, ID: e.Args["id"], Track: tracks[e.Tid], Parent: e.Args["parent"],
			Start: time.Duration(math.Round(e.Ts * 1e3)), Dur: time.Duration(math.Round(e.Dur * 1e3)),
		})
	}
	return spans, nil
}
