package api

import "encoding/json"

// Result-plane messages. The plane is a content-addressed HTTP object
// store for the engine's cache entries: GET/PUT keyed by the engine's
// fully seeded cache key, and a claim protocol for cross-machine
// single-flight (only one worker in the fleet computes a key; everyone
// else waits for the stored result).
//
// Consistency model: keys are content addresses — a key embeds the
// experiment id, preset hash, shard name, code version and base seed,
// so two correct producers writing the same key must produce the same
// payload. The plane therefore keeps the first stored entry when a
// duplicate PUT carries an equivalent payload (byte-stable replays),
// and resolves a genuinely differing PUT as last-write-wins while
// counting it as a conflict (an equivalence violation worth alerting
// on, never silently absorbed).

// CachedResult is the persisted form of one task result — the same
// shape, field order and JSON tags as the engine's disk-cache lines,
// so plane entries and results.jsonl lines are interchangeable.
type CachedResult struct {
	// Name is the producing unit's full name ("<job>/<shard>");
	// replays re-stamp it, so it is diagnostic.
	Name string `json:"name"`
	// Text is the human-readable rendering.
	Text string `json:"text,omitempty"`
	// Data is the structured payload, kept raw for byte identity.
	Data json.RawMessage `json:"data,omitempty"`
	// Err is the task's own failure; failed results are never stored.
	Err string `json:"error,omitempty"`
	// Seed is the deterministic seed the result was computed under.
	Seed uint64 `json:"seed"`
	// DurationNS is the original compute time.
	DurationNS int64 `json:"duration_ns"`
}

// CacheEntry is one versioned cache record — the engine's disk-cache
// line and the result plane's object payload.
type CacheEntry struct {
	// Version stamps the cache layout and code version
	// ("rescache1/<code version>"); mismatched entries are misses.
	Version string `json:"version"`
	// Key is the fully seeded cache key the entry is stored under.
	Key string `json:"key"`
	// Result is the stored outcome.
	Result CachedResult `json:"result"`
}

// SamePayload reports whether two entries are equivalent results for
// the same key: everything but the producer-dependent fields (compute
// duration, diagnostic name) must match. The plane uses it to tell a
// duplicate PUT (benign, keep the original bytes so replays stay
// byte-stable) from a conflicting one (equivalence violation).
func (e CacheEntry) SamePayload(o CacheEntry) bool {
	return e.Version == o.Version && e.Key == o.Key &&
		e.Result.Text == o.Result.Text &&
		e.Result.Err == o.Result.Err &&
		e.Result.Seed == o.Result.Seed &&
		string(e.Result.Data) == string(o.Result.Data)
}

// PutReply answers a plane PUT.
type PutReply struct {
	// Proto must equal Version.
	Proto string `json:"proto"`
	// Conflict reports the PUT carried a payload that differs from an
	// existing entry under the same key (last write wins).
	Conflict bool `json:"conflict,omitempty"`
}

// ClaimRequest asks the plane for the right to compute a key.
type ClaimRequest struct {
	// Proto must equal Version.
	Proto string `json:"proto"`
	// Key is the cache key the caller wants to compute.
	Key string `json:"key"`
	// Owner identifies the claimant (worker name; diagnostics).
	Owner string `json:"owner,omitempty"`
}

// ClaimReply answers a ClaimRequest. Exactly one of Done, Granted, or
// neither (denied) describes the outcome.
type ClaimReply struct {
	// Proto must equal Version.
	Proto string `json:"proto"`
	// Done reports the result is already stored — fetch it instead of
	// computing.
	Done bool `json:"done,omitempty"`
	// Granted reports the caller now owns the computation and should
	// PUT the result within the TTL.
	Granted bool `json:"granted,omitempty"`
	// TTLNS is the granted claim duration.
	TTLNS int64 `json:"ttl_ns,omitempty"`
	// Owner names the current claim holder when the claim was denied.
	Owner string `json:"owner,omitempty"`
	// RetryAfterNS is the denied claim's remaining lifetime — the
	// longest a waiter could have to poll before the key resolves or
	// the claim expires.
	RetryAfterNS int64 `json:"retry_after_ns,omitempty"`
}

// PlaneMetrics is the result plane's counter snapshot, nested in
// BrokerMetrics when a plane is being served (or consulted) alongside
// the broker.
type PlaneMetrics struct {
	// Hits / Misses count GET outcomes.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Puts counts first-time stores; DupPuts equivalent re-stores;
	// Conflicts differing re-stores (last write wins).
	Puts      int64 `json:"puts"`
	DupPuts   int64 `json:"dup_puts"`
	Conflicts int64 `json:"conflicts"`
	// ClaimsGranted / ClaimsDenied count single-flight outcomes: a
	// denied claim is one deduplicated computation (the caller waits
	// for the holder's result instead of computing).
	ClaimsGranted int64 `json:"claims_granted"`
	ClaimsDenied  int64 `json:"claims_denied"`
	// WaitHits counts long-poll GETs answered by a PUT arriving while
	// the request was parked.
	WaitHits int64 `json:"wait_hits"`
	// Entries and BytesStored describe the current store contents.
	Entries     int64 `json:"entries"`
	BytesStored int64 `json:"bytes_stored"`
}
