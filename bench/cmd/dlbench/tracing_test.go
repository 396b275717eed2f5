package main

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeOnSyntheticTree(t *testing.T) {
	spans := []span{
		{Name: "engine.task", ID: "a", Start: 0, Dur: ms(100)},
		// Two overlapping children cover 10..60 of the task.
		{Name: "queue.exec", ID: "a", Parent: "engine.task", Start: ms(10), Dur: ms(30)},
		{Name: "experiments.train", ID: "a", Parent: "engine.task", Start: ms(30), Dur: ms(30)},
		// A grandchild under queue.exec.
		{Name: "nn.fit", ID: "a", Parent: "queue.exec", Start: ms(15), Dur: ms(5)},
		// A child that outlives its parent counts only inside it.
		{Name: "engine.task", ID: "b", Start: ms(200), Dur: ms(10)},
		{Name: "queue.exec", ID: "b", Parent: "engine.task", Start: ms(205), Dur: ms(20)},
		// A span whose parent was never recorded is a root.
		{Name: "nn.fit", ID: "c", Parent: "queue.exec", Start: ms(300), Dur: ms(7)},
	}
	want := map[string]time.Duration{
		"engine.task":       ms(100-50) + ms(10-5),
		"queue.exec":        ms(30-5) + ms(20),
		"experiments.train": ms(30),
		"nn.fit":            ms(5) + ms(7),
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	spans := []span{
		{Name: "engine.task", ID: "queue-lease/p0/mc@x#1", Track: "queue-lease scheduler 0", Start: 1234567, Dur: 7654321},
		{Name: "queue.exec", ID: "queue-lease/p0/mc@x#1", Track: "queue-lease worker 0", Parent: "engine.task", Start: 2000001, Dur: 999},
		{Name: "remote.job", ID: "queue-lease/j7", Track: "queue-lease server 1", Start: 3 * time.Second, Dur: 0},
	}
	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	got, err := readChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, spans) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, spans)
	}
}

func TestTracerSlotsDoNotOverlap(t *testing.T) {
	tr := newTracer()
	a, releaseA := tr.slot("worker")
	b, releaseB := tr.slot("worker")
	if a == b {
		t.Fatalf("two busy slots share track %q", a)
	}
	releaseA()
	if c, _ := tr.slot("worker"); c != a {
		t.Fatalf("freed slot not reused: got %q, want %q", c, a)
	}
	releaseB()
	var off *tracer
	off.add("x", "", "", "", time.Now(), time.Now()) // tracing off is a no-op
	if off.snapshot() != nil {
		t.Fatal("nil tracer recorded spans")
	}
}
