// Package resultplane is the fleet-wide result plane: a content-
// addressed HTTP object store speaking the engine's versioned
// cache-entry format (api.CacheEntry), with long-poll waits and a
// claim protocol for cross-machine single-flight
// — a 100-worker fleet computes each cache key exactly once.
//
// The plane is an optimisation, never a correctness dependency: every
// consumer (scheduler cache tier, worker cache stack, cache-aware
// broker) treats plane errors as misses and falls back to local
// compute, so a dead or flaky plane degrades throughput, not results.
//
// Consistency model: keys are content addresses (experiment id, preset
// hash, shard, code version and base seed are all folded in), so two
// correct producers of one key must produce equivalent payloads. A
// duplicate PUT with an equivalent payload keeps the original bytes
// (replays stay byte-stable — first write wins); a PUT whose
// payload genuinely differs is an equivalence violation: the plane
// counts it as a conflict and lets the last write win, so a fixed
// producer can repair a poisoned key by re-putting.
//
// Persistence (Open) is an internal/wal log, plane.jsonl, plus this
// package's decode step: records are replayed leniently (damage
// degrades to misses), and every accepted PUT is appended. The file is
// append-only: nothing rewrites it, and an entry lives until the file
// is removed.
package resultplane

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/api"
	"repro/internal/wal"
)

// planeFile is the persistence file inside the plane dir: one planeLine
// record per accepted PUT, never fsynced (a lost entry is a
// recompute); on reload later lines win.
const planeFile = "plane.jsonl"

// ClaimTTL is how long a granted claim parks its key: an abandoned
// claim (crashed worker) must expire fast enough that waiters reclaim
// and compute instead of stalling the fleet.
const ClaimTTL = 30 * time.Second

// claim is one in-flight computation registration.
type claim struct {
	owner   string
	expires time.Time
}

// planeLine is the persistence record: the key and the entry bytes,
// which Put already holds in the encoding Marshal gives them here.
type planeLine struct {
	Key  string          `json:"key"`
	Data json.RawMessage `json:"data"`
}

// Store is the plane's in-memory object store, optionally backed by an
// append-only record file. All methods are safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	entries map[string][]byte
	claims  map[string]claim
	// waiters holds one broadcast channel per key with parked long-poll
	// GETs; Put closes it. Created lazily, recreated after each close.
	waiters map[string]chan struct{}
	// log persists entries (nil when memory-only). It has its own lock,
	// and mu is never held across its I/O: appends run outside the
	// critical section, so a write never stalls Get/Wait/Put.
	log *wal.Log
	m   api.PlaneMetrics
	// now is the clock (injectable so claim-expiry tests don't sleep).
	now func() time.Time
}

// NewStore returns an empty, memory-only store.
func NewStore() *Store {
	return &Store{
		entries: make(map[string][]byte),
		claims:  make(map[string]claim),
		waiters: make(map[string]chan struct{}),
		now:     time.Now,
	}
}

// Open returns a store persisted under dir (created if missing):
// existing entries are reloaded (later lines win, corrupt lines are
// skipped — damage degrades to misses) and every accepted PUT is
// appended. An empty dir means memory-only.
func Open(dir string) (*Store, error) {
	s := NewStore()
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultplane: create plane dir: %w", err)
	}
	path := filepath.Join(dir, planeFile)
	s.load(path)
	log, err := wal.Open(path)
	if err != nil {
		return nil, fmt.Errorf("resultplane: open plane file: %w", err)
	}
	s.log = log
	return s, nil
}

// errUnusableLine marks a plane record without a key or data.
var errUnusableLine = errors.New("resultplane: record lacks key or data")

// load best-effort replays path into the store.
func (s *Store) load(path string) {
	wal.Replay(path, wal.Lenient, func(rec []byte) error {
		var pl planeLine
		if err := json.Unmarshal(rec, &pl); err != nil {
			return err
		}
		if pl.Key == "" || len(pl.Data) == 0 {
			return errUnusableLine
		}
		// Hold the data as Put encodes it (compact, HTML-escaped), so an
		// entry keeps the bytes its PUT gave it.
		data, err := json.Marshal(pl.Data)
		if err != nil {
			return err
		}
		s.entries[pl.Key] = data
		return nil
	})
	s.m.Entries = int64(len(s.entries))
	for _, data := range s.entries {
		s.m.BytesStored += int64(len(data))
	}
}

// SetNow injects the clock (tests drive claim expiry with a fake one).
func (s *Store) SetNow(now func() time.Time) {
	s.mu.Lock()
	s.now = now
	s.mu.Unlock()
}

// Close releases the persistence file, if any.
func (s *Store) Close() error {
	if s.log == nil {
		return nil
	}
	return s.log.Close()
}

// Get returns key's entry bytes. A miss is counted.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.entries[key]
	if !ok {
		s.m.Misses++
		return nil, false
	}
	s.m.Hits++
	return data, true
}

// Wait long-polls for key: it returns immediately on a hit and
// otherwise parks until a PUT lands, d elapses, or ctx cancels. A wake
// by PUT counts as a WaitHit.
func (s *Store) Wait(ctx context.Context, key string, d time.Duration) ([]byte, bool) {
	deadline := time.NewTimer(d)
	defer deadline.Stop()
	for {
		s.mu.Lock()
		if data, ok := s.entries[key]; ok {
			s.m.Hits++
			s.mu.Unlock()
			return data, true
		}
		ch := s.waiters[key]
		if ch == nil {
			ch = make(chan struct{})
			s.waiters[key] = ch
		}
		s.mu.Unlock()
		select {
		case <-ch:
			s.mu.Lock()
			if data, ok := s.entries[key]; ok {
				s.m.WaitHits++
				s.mu.Unlock()
				return data, true
			}
			s.mu.Unlock()
			// Spurious wake (no entry): loop and park again.
		case <-deadline.C:
			s.mu.Lock()
			s.m.Misses++
			s.mu.Unlock()
			return nil, false
		case <-ctx.Done():
			return nil, false
		}
	}
}

// Put stores data under key and releases the key's claim and waiters.
// The store holds data as plane.jsonl persists it, compacted and
// HTML-escaped by json.Marshal, so an entry has the same bytes before
// and after a restart; data that is not JSON is refused and nothing
// changes. An equivalent duplicate keeps the original bytes (first
// write wins, so replays stay byte-stable); a differing payload is
// counted as a conflict and overwrites (last write wins), which Put
// reports.
func (s *Store) Put(key string, data []byte) (bool, error) {
	data, err := json.Marshal(json.RawMessage(data))
	if err != nil {
		return false, err
	}
	s.mu.Lock()
	old, exists := s.entries[key]
	conflict := false
	switch {
	case exists && (bytes.Equal(old, data) || samePayload(old, data)):
		// The same bytes, or an equivalent result from a different
		// producer (durations and diagnostic names differ): keep the
		// original bytes.
		s.m.DupPuts++
		s.releaseLocked(key)
		s.mu.Unlock()
		return false, nil
	case exists:
		s.m.Conflicts++
		s.m.BytesStored -= int64(len(old))
		conflict = true
	default:
		s.m.Puts++
		s.m.Entries++
	}
	s.entries[key] = data
	s.m.BytesStored += int64(len(data))
	s.releaseLocked(key)
	s.mu.Unlock()
	if s.log != nil {
		// Swallow write errors like the disk cache: persistence is an
		// optimisation; the entry is live in memory regardless.
		if rec, err := json.Marshal(planeLine{Key: key, Data: data}); err == nil {
			s.log.Append(rec)
		}
	}
	return conflict, nil
}

// releaseLocked drops key's claim and wakes its waiters (mu held).
func (s *Store) releaseLocked(key string) {
	delete(s.claims, key)
	if ch, ok := s.waiters[key]; ok {
		delete(s.waiters, key)
		close(ch)
	}
}

// samePayload reports whether two entry byte slices decode to
// equivalent cache entries (same key, version and result payload;
// producer-dependent fields ignored). Undecodable bytes never match.
func samePayload(a, b []byte) bool {
	var ea, eb api.CacheEntry
	if json.Unmarshal(a, &ea) != nil || json.Unmarshal(b, &eb) != nil {
		return false
	}
	return ea.SamePayload(eb)
}

// Claim resolves who computes key. Results win over claims: a stored
// entry answers Done. Otherwise the first claimant (or any claimant
// after the previous claim expired) is Granted for ClaimTTL; everyone
// else is denied with the holder and the claim's remaining lifetime as
// a retry hint. A denied claim is one deduplicated computation.
func (s *Store) Claim(key, owner string) api.ClaimReply {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[key]; ok {
		return api.ClaimReply{Proto: api.Version, Done: true}
	}
	now := s.now()
	if c, ok := s.claims[key]; ok && now.Before(c.expires) && c.owner != owner {
		s.m.ClaimsDenied++
		return api.ClaimReply{
			Proto: api.Version, Owner: c.owner,
			RetryAfterNS: c.expires.Sub(now).Nanoseconds(),
		}
	}
	// Unclaimed, expired, or the holder re-claiming (extends its TTL).
	s.claims[key] = claim{owner: owner, expires: now.Add(ClaimTTL)}
	s.m.ClaimsGranted++
	return api.ClaimReply{Proto: api.Version, Granted: true, TTLNS: ClaimTTL.Nanoseconds()}
}

// Metrics snapshots the counters.
func (s *Store) Metrics() api.PlaneMetrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m
}
