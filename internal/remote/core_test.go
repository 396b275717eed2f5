package remote

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/queue"
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

// overBound is prefix + x... + suffix, MaxBodyBytes+1 bytes long: one
// byte more than any daemon or client reads.
func overBound(prefix, suffix string) []byte {
	b := bytes.Repeat([]byte("x"), MaxBodyBytes+1)
	copy(b, prefix)
	copy(b[len(b)-len(suffix):], suffix)
	return b
}

// TestOversizedRequestIsBadRequest: a request body one byte over
// MaxBodyBytes is refused with a typed bad_request instead of being
// buffered and served. The body is a /v2/done report from a registered
// worker for an unknown lease, which would otherwise answer not_found.
func TestOversizedRequestIsBadRequest(t *testing.T) {
	_, ts := startBroker(t, queue.Config{})
	w := newRawWorker(t, ts.URL, "w1")
	body := overBound(`{"proto":"`+api.Version+`","worker_id":"`+w.id+
		`","lease_id":"l999","result":{"proto":"`+api.Version+`","text":"`, `"}}`)
	resp, err := http.Post(ts.URL+DonePath, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ae, ok := api.AsError(DecodeError(resp)); !ok || ae.Code != api.CodeBadRequest {
		t.Fatalf("oversized done report: status %d, error %v", resp.StatusCode, ae)
	}
}

// TestOversizedReplyIsAnError: a 200 reply one byte over MaxBodyBytes
// makes the client core fail instead of buffering it.
func TestOversizedReplyIsAnError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(overBound(`"`, `"`))
	}))
	defer ts.Close()
	var out string
	if err := PostJSON(context.Background(), ts.Client(), ts.URL, struct{}{}, &out); err == nil {
		t.Fatalf("decoded a %d-byte string from an oversized reply", len(out))
	}
}
