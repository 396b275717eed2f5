package resultplane

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
)

// entryBytes builds a valid plane object for key with the given text.
func entryBytes(t *testing.T, version, key, text string, dur int64) []byte {
	t.Helper()
	b, err := json.Marshal(api.CacheEntry{
		Version: version, Key: key,
		Result: api.CachedResult{Name: key, Text: text, Seed: 7, DurationNS: dur},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestStorePutGet(t *testing.T) {
	s := NewStore()
	if _, ok := s.Get("k"); ok {
		t.Fatal("empty store must miss")
	}
	data := entryBytes(t, "v1", "k", "hello", 10)
	conflict, err := s.Put("k", data)
	if err != nil || conflict {
		t.Fatalf("first put: conflict=%v err=%v", conflict, err)
	}
	got, ok := s.Get("k")
	if !ok || string(got) != string(data) {
		t.Fatalf("get after put: ok=%v data=%q want %q", ok, got, data)
	}
	m := s.Metrics()
	if m.Puts != 1 || m.Hits != 1 || m.Misses != 1 || m.Entries != 1 || m.BytesStored != int64(len(data)) {
		t.Fatalf("metrics off: %+v", m)
	}
}

func TestStoreDupAndConflictPuts(t *testing.T) {
	s := NewStore()
	data := entryBytes(t, "v1", "k", "hello", 10)
	s.Put("k", data)

	// Byte-identical duplicate: original kept.
	if conflict, _ := s.Put("k", data); conflict {
		t.Fatal("identical dup put counted as a conflict")
	}
	// Equivalent payload from another producer (duration differs):
	// first write wins so the stored bytes stay stable.
	equiv := entryBytes(t, "v1", "k", "hello", 99)
	if conflict, _ := s.Put("k", equiv); conflict {
		t.Fatal("equivalent dup put counted as a conflict")
	}
	if got, _ := s.Get("k"); string(got) != string(data) {
		t.Fatal("equivalent dup put must keep the original bytes")
	}
	// Genuinely differing payload: conflict counted, last write wins.
	diff := entryBytes(t, "v1", "k", "DIFFERENT", 10)
	if conflict, _ := s.Put("k", diff); !conflict {
		t.Fatal("differing put not counted as a conflict")
	}
	if got, _ := s.Get("k"); string(got) != string(diff) {
		t.Fatal("differing put must overwrite (last write wins)")
	}
	m := s.Metrics()
	if m.DupPuts != 2 || m.Conflicts != 1 || m.Puts != 1 || m.Entries != 1 {
		t.Fatalf("metrics off: %+v", m)
	}
	if m.BytesStored != int64(len(diff)) {
		t.Fatalf("bytes stored %d, want %d", m.BytesStored, len(diff))
	}
}

func TestStoreClaimArbitration(t *testing.T) {
	s := NewStore()
	now := time.Unix(1000, 0)
	s.SetNow(func() time.Time { return now })

	// First claimant wins, for ClaimTTL.
	rep := s.Claim("k", "alice")
	if !rep.Granted || rep.Done || rep.TTLNS != ClaimTTL.Nanoseconds() {
		t.Fatalf("first claim: %+v", rep)
	}
	// Second claimant is denied with the holder and a retry hint.
	rep = s.Claim("k", "bob")
	if rep.Granted || rep.Done || rep.Owner != "alice" || rep.RetryAfterNS != ClaimTTL.Nanoseconds() {
		t.Fatalf("competing claim: %+v", rep)
	}
	// The holder re-claiming extends its TTL.
	now = now.Add(5 * time.Second)
	if rep = s.Claim("k", "alice"); !rep.Granted {
		t.Fatalf("holder re-claim: %+v", rep)
	}
	if rep = s.Claim("k", "bob"); rep.Granted || rep.RetryAfterNS != ClaimTTL.Nanoseconds() {
		t.Fatalf("claim after extension: %+v", rep)
	}
	// An expired claim (crashed holder) re-arbitrates.
	now = now.Add(ClaimTTL + time.Second)
	if rep = s.Claim("k", "bob"); !rep.Granted {
		t.Fatalf("claim after expiry: %+v", rep)
	}
	// A stored result beats every claim.
	s.Put("k", entryBytes(t, "v1", "k", "done", 1))
	if rep = s.Claim("k", "carol"); !rep.Done || rep.Granted {
		t.Fatalf("claim over stored entry: %+v", rep)
	}
	m := s.Metrics()
	if m.ClaimsGranted != 3 || m.ClaimsDenied != 2 {
		t.Fatalf("claim metrics off: %+v", m)
	}
}

func TestStoreWaitWokenByPut(t *testing.T) {
	s := NewStore()
	data := entryBytes(t, "v1", "k", "late", 1)
	type res struct {
		data []byte
		ok   bool
	}
	ch := make(chan res, 1)
	go func() {
		d, ok := s.Wait(context.Background(), "k", 30*time.Second)
		ch <- res{d, ok}
	}()
	// Give the waiter a moment to park, then publish.
	time.Sleep(20 * time.Millisecond)
	s.Put("k", data)
	select {
	case r := <-ch:
		if !r.ok || string(r.data) != string(data) {
			t.Fatalf("wait woke with ok=%v data=%q", r.ok, r.data)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never woke after put")
	}
	if m := s.Metrics(); m.WaitHits != 1 {
		t.Fatalf("wait hits %d, want 1", m.WaitHits)
	}
}

func TestStoreWaitTimeoutAndCancel(t *testing.T) {
	s := NewStore()
	if _, ok := s.Wait(context.Background(), "k", 10*time.Millisecond); ok {
		t.Fatal("wait on an empty key must time out to a miss")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, ok := s.Wait(ctx, "k", time.Hour); ok {
		t.Fatal("cancelled wait must miss")
	}
}

func TestStorePersistenceReload(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := entryBytes(t, "v1", "a", "alpha", 1)
	b := entryBytes(t, "v1", "b", "beta", 2)
	s.Put("a", a)
	s.Put("b", b)
	// Overwrite a: later lines must win on reload.
	a2 := entryBytes(t, "v1", "a", "alpha-2", 3)
	s.Put("a", a2)
	// A body not in json.Marshal's encoding: served before and after the
	// restart with the same bytes.
	s.Put("c", []byte(`{ "spaced" : "<html>" }`))
	c, _ := s.Get("c")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, ok := s2.Get("a")
	if !ok || string(got) != string(a2) {
		t.Fatalf("reloaded a: ok=%v data=%q", ok, got)
	}
	if got, ok := s2.Get("b"); !ok || string(got) != string(b) {
		t.Fatalf("reloaded b: ok=%v data=%q", ok, got)
	}
	if got, ok := s2.Get("c"); !ok || string(got) != string(c) {
		t.Fatalf("reloaded c: ok=%v data=%q, want %q", ok, got, c)
	}
	if m := s2.Metrics(); m.Entries != 3 {
		t.Fatalf("reloaded entries %d, want 3", m.Entries)
	}
	// plane.jsonl is append-only: one record per accepted PUT, in order,
	// the overwritten one included; neither the GETs nor the reload
	// rewrote it.
	raw, err := os.ReadFile(filepath.Join(dir, planeFile))
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var pl planeLine
		if err := json.Unmarshal([]byte(line), &pl); err != nil {
			t.Fatalf("plane record %q: %v", line, err)
		}
		keys = append(keys, pl.Key)
	}
	if got := strings.Join(keys, ","); got != "a,b,a,c" {
		t.Fatalf("plane.jsonl records keys %s, want a,b,a,c", got)
	}
}
