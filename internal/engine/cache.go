package engine

import (
	"context"
	"sync"
)

// RemoteCache is a shared result tier behind the process-local Cache —
// the seam the fleet-wide result plane plugs into. Implementations are
// consulted after the local tiers miss and written through on every new
// success, and they must degrade, never fail: an unreachable backend
// looks like a miss (Acquire) or a no-op (Store), so the worst case is
// recomputing locally — never a wrong or missing result.
type RemoteCache interface {
	// Acquire resolves who computes key fleet-wide: a true return hands
	// back a stored result (possibly after waiting out another
	// machine's in-flight computation); a false return means the caller
	// now owns the computation — it must compute and Store.
	Acquire(ctx context.Context, key string) (Result, bool)
	// Store writes through one newly computed success.
	Store(ctx context.Context, key string, r Result)
}

// Cache memoises successful shard results across runs. Keys come from
// Job.Key (experiment id + preset hash) and the shard name, so editing a
// preset knob invalidates every cached result computed under it. The
// cache also tracks in-flight computations: a unit whose key is already
// being computed waits for that computation instead of duplicating it
// (single-flight). A Cache from NewCache lives in one process; one from
// OpenDiskCache is additionally backed by an append-only JSON-lines file
// shared across processes; SetRemote adds a third, fleet-wide tier
// (lookup order: memory, then remote; new successes write through to
// both disk and remote).
type Cache struct {
	mu       sync.Mutex
	m        map[string]Result
	inflight map[string]chan struct{}
	// store, when non-nil, receives every newly cached success (the
	// persistent backend). Appends happen outside mu: the store's log has
	// its own lock, and a slow disk must not stall in-memory lookups.
	store *diskStore
	// remote, when non-nil, is the fleet-wide tier. All remote calls
	// happen outside mu — they block on the network.
	remote RemoteCache
}

// NewCache returns an empty in-process result cache.
func NewCache() *Cache {
	return &Cache{m: make(map[string]Result), inflight: make(map[string]chan struct{})}
}

// SetRemote attaches the fleet-wide tier (nil detaches it).
func (c *Cache) SetRemote(rc RemoteCache) {
	c.mu.Lock()
	c.remote = rc
	c.mu.Unlock()
}

// remoteTier snapshots the remote backend under the lock.
func (c *Cache) remoteTier() RemoteCache {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.remote
}

// Len reports how many results are cached.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Close releases the persistent backend, if any. In-memory lookups keep
// working; further successes are no longer persisted.
func (c *Cache) Close() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	s := c.store
	c.store = nil
	c.mu.Unlock()
	if s == nil {
		return nil
	}
	return s.log.Close()
}

// begin claims key for computation. It returns the cached result on a
// hit; otherwise, if another goroutine is already computing the key, it
// waits for that computation and retries. Once the claim is won locally
// the remote tier arbitrates fleet-wide: a stored result (or one
// another machine finishes while we wait on its claim) comes back as a
// hit, and only a fleet-wide claim falls through to compute. A
// (Result{}, false) return means the caller owns the computation and
// must call finish(key, ...) exactly once.
func (c *Cache) begin(ctx context.Context, key string) (Result, bool) {
	if c == nil || key == "" {
		return Result{}, false
	}
	for {
		c.mu.Lock()
		if r, ok := c.m[key]; ok {
			c.mu.Unlock()
			return r, true
		}
		ch, busy := c.inflight[key]
		if !busy {
			rem := c.remote
			c.inflight[key] = make(chan struct{})
			c.mu.Unlock()
			if rem != nil {
				if r, ok := rem.Acquire(ctx, key); ok {
					// Another machine's result: admit it locally and
					// release our waiters through the normal path. The
					// remote is not re-written — finishLocal never
					// touches it.
					c.finishLocal(key, r)
					return r, true
				}
			}
			return Result{}, false
		}
		c.mu.Unlock()
		<-ch
		// The computation finished: loop to pick up its result, or —
		// if it failed (failures are not cached) — claim the key.
	}
}

// finish records a computed result under key. Failures are not cached,
// so a flaky shard re-runs; waiters claimed via begin are released
// either way. New successes write through to the remote tier, making
// them visible fleet-wide.
func (c *Cache) finish(key string, r Result) {
	if c == nil || key == "" {
		return
	}
	if c.finishLocal(key, r) {
		if rem := c.remoteTier(); rem != nil {
			rem.Store(context.Background(), key, r)
		}
	}
}

// finishLocal is finish without the remote write-through (used to admit
// results that came from the remote). It reports whether the result was
// newly stored (a success not previously cached).
func (c *Cache) finishLocal(key string, r Result) bool {
	if c == nil || key == "" {
		return false
	}
	c.mu.Lock()
	var store *diskStore
	stored := false
	if r.Err == "" {
		if _, dup := c.m[key]; !dup {
			store = c.store
			stored = true
		}
		c.m[key] = r
	}
	if ch, ok := c.inflight[key]; ok {
		delete(c.inflight, key)
		close(ch)
	}
	c.mu.Unlock()
	if store != nil {
		store.append(key, r)
	}
	return stored
}
