package engine

import (
	"context"
	"sync"
	"testing"
)

// fakeRemote is an in-memory RemoteCache that counts its calls.
type fakeRemote struct {
	mu       sync.Mutex
	m        map[string]Result
	acquires int
	stores   int
}

func newFakeRemote() *fakeRemote { return &fakeRemote{m: make(map[string]Result)} }

func (f *fakeRemote) Acquire(_ context.Context, key string) (Result, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.acquires++
	r, ok := f.m[key]
	return r, ok
}

func (f *fakeRemote) Store(_ context.Context, key string, r Result) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stores++
	f.m[key] = r
}

func (f *fakeRemote) counts() (acquires, stores int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.acquires, f.stores
}

// TestCacheFinishWritesThroughToRemote proves a locally computed
// success becomes visible fleet-wide exactly once, and that failures
// never reach the remote tier.
func TestCacheFinishWritesThroughToRemote(t *testing.T) {
	rem := newFakeRemote()
	c := NewCache()
	c.SetRemote(rem)

	if _, hit := c.begin(context.Background(), "k"); hit {
		t.Fatal("empty cache must hand the computation to the caller")
	}
	c.finish("k", Result{Name: "k", Text: "computed"})
	if acquires, stores := rem.counts(); acquires != 1 || stores != 1 {
		t.Fatalf("acquires=%d stores=%d, want 1/1", acquires, stores)
	}
	// A duplicate finish must not re-store.
	c.finish("k", Result{Name: "k", Text: "computed"})
	if _, stores := rem.counts(); stores != 1 {
		t.Fatalf("duplicate finish re-stored (stores=%d)", stores)
	}

	if _, hit := c.begin(context.Background(), "fail"); hit {
		t.Fatal("unexpected hit")
	}
	c.finish("fail", Result{Name: "fail", Err: "boom"})
	if _, stores := rem.counts(); stores != 1 {
		t.Fatalf("failure was written through (stores=%d)", stores)
	}
}

// TestCacheBeginAdmitsRemoteResultWithoutEcho proves a result another
// machine computed (returned by Acquire) is served as a hit and cached
// locally, without being written back to the remote.
func TestCacheBeginAdmitsRemoteResultWithoutEcho(t *testing.T) {
	rem := newFakeRemote()
	rem.m["k"] = Result{Name: "k", Text: "theirs"}
	c := NewCache()
	c.SetRemote(rem)

	r, hit := c.begin(context.Background(), "k")
	if !hit || r.Text != "theirs" {
		t.Fatalf("begin over remote result: hit=%v r=%+v", hit, r)
	}
	if _, stores := rem.counts(); stores != 0 {
		t.Fatalf("remote result echoed back (stores=%d)", stores)
	}
	// Served locally from here on.
	if r, hit = c.begin(context.Background(), "k"); !hit || r.Text != "theirs" {
		t.Fatalf("second begin: hit=%v r=%+v", hit, r)
	}
	if acquires, _ := rem.counts(); acquires != 1 {
		t.Fatalf("remote acquires %d, want 1", acquires)
	}
}
