package remote

import (
	"strings"
	"testing"
)

// TestNormalizeAddr: every address form a flag may carry becomes one
// base URL, so routes appended to it never start with "//".
func TestNormalizeAddr(t *testing.T) {
	for in, want := range map[string]string{
		"127.0.0.1:9741":         "http://127.0.0.1:9741",
		"127.0.0.1:9741/":        "http://127.0.0.1:9741",
		" http://10.0.0.9:9741 ": "http://10.0.0.9:9741",
		"http://10.0.0.9:9741//": "http://10.0.0.9:9741",
		"https://plane:9742/":    "https://plane:9742",
	} {
		if got := NormalizeAddr(in); got != want {
			t.Errorf("NormalizeAddr(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestTargetsFailover pins the failover list's moves: a stale from is a
// no-op, a not_leader hint is adopted (joining the list when new), and
// without a hint the list rotates round-robin — after
// transportFailoverAfter misses in a row when driven by missed.
func TestTargetsFailover(t *testing.T) {
	if newTargets(" , ") != nil {
		t.Fatal("an address list of blanks must yield no targets")
	}
	tg := newTargets("a:1, http://b:2/ ,,c:3")
	if got := strings.Join(tg.list, ","); got != "http://a:1,http://b:2,http://c:3" {
		t.Fatalf("list = %s", got)
	}
	expect := func(cur string, size int) {
		t.Helper()
		if got := tg.now(); got != cur || tg.size() != size {
			t.Fatalf("target %s of %d, want %s of %d", got, tg.size(), cur, size)
		}
	}

	// No hint: round-robin, wrapping at the end.
	for _, next := range []string{"http://b:2", "http://c:3", "http://a:1"} {
		tg.failover(tg.now(), "")
		expect(next, 3)
	}
	// A stale from — a retry loop that saw an older target — moves
	// nothing, with or without a hint.
	tg.failover("http://c:3", "")
	tg.failover("http://c:3", "b:2")
	expect("http://a:1", 3)
	// A hint already in the list is adopted in place.
	tg.failover("http://a:1", "b:2/")
	expect("http://b:2", 3)
	// A new hint joins the list and becomes the target.
	tg.failover("http://b:2", "d:4")
	expect("http://d:4", 4)

	// missed rotates only on the transportFailoverAfter-th miss in a row
	// and resets the caller's count when it does.
	misses := 0
	for i := 1; i < transportFailoverAfter; i++ {
		if tg.missed(&misses, "http://d:4") {
			t.Fatalf("rotated after %d misses", i)
		}
	}
	if !tg.missed(&misses, "http://d:4") || misses != 0 {
		t.Fatalf("no rotation after %d misses (count %d)", transportFailoverAfter, misses)
	}
	expect("http://a:1", 4)

	// A single-broker list has nowhere to go.
	one := newTargets("a:1")
	misses = 0
	for i := 0; i < 2*transportFailoverAfter; i++ {
		if one.missed(&misses, "http://a:1") {
			t.Fatal("a single-target list rotated")
		}
	}
}
