package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/api"
	"repro/internal/wal"
)

// The persistent cache is one internal/wal record file,
// <dir>/results.jsonl. Each line is an api.CacheEntry: a version stamp,
// the cache key (already embedding experiment id, preset hash and base
// seed), and the result. The same entry shape travels to the result
// plane (internal/resultplane), so a plane object and a disk-cache line
// are interchangeable records. Invalidation is by construction, never
// by mutation: a changed preset hashes to a new key, and a bumped code
// version makes the loader skip every older line. The file is replayed
// wal.Lenient: corrupt lines — truncated tails from a killed process,
// editor damage, garbage — are skipped, so damage degrades to cache
// misses, never to errors.
//
// wal writes each entry with one O_APPEND write, so concurrent
// processes sharing one cache dir interleave whole lines rather than
// corrupting each other. Appends are never fsynced: a lost entry is a
// recompute.

// diskFormatVersion stamps the file layout itself; bump on any change to
// api.CacheEntry. Callers compose their own code-version on top via the
// version argument of OpenDiskCache.
const diskFormatVersion = "rescache1"

// diskCacheFile is the JSON-lines file name inside the cache dir.
const diskCacheFile = "results.jsonl"

// CacheVersionTag composes the full version stamp cache entries carry:
// the entry-layout version plus the caller's code version. Disk caches
// and the result plane must agree on it, so both derive it here.
func CacheVersionTag(version string) string {
	return diskFormatVersion + "/" + version
}

// ToCachedResult converts a Result into its persisted wire form,
// normalising Data to raw JSON (marshalPayload) so a replayed payload
// re-marshals byte-identically to the original.
func ToCachedResult(r Result) (api.CachedResult, error) {
	data, err := marshalPayload(r.Data)
	if err != nil {
		return api.CachedResult{}, err
	}
	return api.CachedResult{
		Name: r.Name, Text: r.Text, Data: data,
		Err: r.Err, Seed: r.Seed, DurationNS: r.Duration.Nanoseconds(),
	}, nil
}

// FromCachedResult converts a persisted result back into the scheduler's
// in-memory form.
func FromCachedResult(cr api.CachedResult) Result {
	r := Result{
		Name: cr.Name, Text: cr.Text,
		Err: cr.Err, Seed: cr.Seed, Duration: time.Duration(cr.DurationNS),
	}
	if len(cr.Data) > 0 {
		r.Data = json.RawMessage(cr.Data)
	}
	return r
}

// diskStore is the append side of the persistent backend.
type diskStore struct {
	log     *wal.Log
	version string
}

// append persists one successful result. Failures to serialise or write
// are swallowed: the result stays cached in memory and the run proceeds;
// persistence is an optimisation, never a correctness dependency.
func (s *diskStore) append(key string, r Result) {
	if r.Err != "" {
		return
	}
	cr, err := ToCachedResult(r)
	if err != nil {
		return
	}
	rec, err := json.Marshal(api.CacheEntry{Version: s.version, Key: key, Result: cr})
	if err != nil {
		return
	}
	s.log.Append(rec)
}

// errUnusableEntry marks a cache line that decodes but cannot be served:
// another code version, no key, or a recorded failure.
var errUnusableEntry = errors.New("engine: stale, keyless or failed cache entry")

// OpenDiskCache returns a Cache preloaded from dir (created if missing)
// that persists every new success to <dir>/results.jsonl. version is the
// caller's code-version stamp: entries written under a different version
// are ignored on load, so bumping it after a change that affects
// experiment output invalidates the whole directory without touching it.
// Single-flight semantics and the in-memory fast path are identical to
// NewCache. Close the cache when done to flush the backing file handle.
func OpenDiskCache(dir, version string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("engine: disk cache needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: create cache dir: %w", err)
	}
	full := CacheVersionTag(version)
	path := filepath.Join(dir, diskCacheFile)

	c := NewCache()
	// Best effort: a missing or unreadable file, a garbage line, a
	// truncated tail or a stale version all simply shrink the warm set.
	// Later lines win, matching append order.
	wal.Replay(path, wal.Lenient, func(rec []byte) error {
		var e api.CacheEntry
		if err := json.Unmarshal(rec, &e); err != nil {
			return err
		}
		if e.Version != full || e.Key == "" || e.Result.Err != "" {
			return errUnusableEntry
		}
		c.m[e.Key] = FromCachedResult(e.Result)
		return nil
	})

	log, err := wal.Open(path)
	if err != nil {
		return nil, fmt.Errorf("engine: open cache file: %w", err)
	}
	c.store = &diskStore{log: log, version: full}
	return c, nil
}
