package resultplane

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"time"

	"repro/internal/api"
	"repro/internal/engine"
	"repro/internal/remote"
)

// WireKey folds the engine's code-version stamp into a cache key the
// way plane objects are addressed: one plane can hold entries from
// several code versions without cross-talk, and a version bump
// invalidates the fleet's shared results exactly like it invalidates a
// local cache dir.
func WireKey(version, key string) string {
	return engine.CacheVersionTag(version) + "|" + key
}

// opTimeout bounds one plane round-trip; a long-poll wait gets its own
// window on top.
const opTimeout = 10 * time.Second

// Client talks to a result plane over HTTP. Claims run for the plane's
// ClaimTTL; every method degrades on transport failure (miss or
// no-op), never blocking a computation on plane health.
type Client struct {
	// Base is the plane address, e.g. "http://host:9321".
	Base string
	// Version is the engine code-version stamp folded into every key.
	Version string
	// Owner identifies this process in claim arbitration.
	Owner string
	// HTTPClient, when non-nil, overrides http.DefaultClient (the seam
	// fault-injection transports hook into).
	HTTPClient *http.Client
}

// NewClient returns a client for the plane at addr ("host:port" or a
// full URL) with a host-and-pid claim owner.
func NewClient(addr, version string) *Client {
	host, _ := os.Hostname()
	if host == "" {
		host = "anon"
	}
	return &Client{
		Base:    remote.NormalizeAddr(addr),
		Version: version,
		Owner:   fmt.Sprintf("%s/%d", host, os.Getpid()),
	}
}

func (c *Client) client() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// get runs one GET against the plane and returns the decoded entry.
// ok=false with a nil error is a clean miss; an error is a transport
// or protocol failure (callers treat both as misses, but claim loops
// use the distinction to stop talking to a sick plane).
func (c *Client) get(ctx context.Context, key string, wait time.Duration) (api.CacheEntry, bool, error) {
	u := c.Base + GetPath + "?key=" + url.QueryEscape(WireKey(c.Version, key))
	window := opTimeout
	if wait > 0 {
		secs := int(wait / time.Second)
		if secs < 1 {
			secs = 1
		}
		u += fmt.Sprintf("&wait=%d", secs)
		window += time.Duration(secs) * time.Second
	}
	ctx, cancel := context.WithTimeout(ctx, window)
	defer cancel()
	var e api.CacheEntry
	if err := remote.GetJSON(ctx, c.client(), u, &e); err != nil {
		if ae, ok := api.AsError(err); ok && ae.Code == api.CodeNotFound {
			return api.CacheEntry{}, false, nil
		}
		return api.CacheEntry{}, false, err
	}
	if !validEntry(e, c.Version, key) {
		return api.CacheEntry{}, false, nil
	}
	return e, true, nil
}

// validEntry reports whether e is a successful result stored under key
// by code version version. Entries are validated on the reading side: a
// plane answering the wrong version or key (a proxy mixup, a poisoned
// store) is a miss, not a wrong result.
func validEntry(e api.CacheEntry, version, key string) bool {
	return e.Version == engine.CacheVersionTag(version) && e.Key == key && e.Result.Err == ""
}

// Fetch returns key's entry if the plane has it now.
func (c *Client) Fetch(ctx context.Context, key string) (api.CacheEntry, bool, error) {
	return c.get(ctx, key, 0)
}

// WaitFetch long-polls up to wait for key's entry to appear.
func (c *Client) WaitFetch(ctx context.Context, key string, wait time.Duration) (api.CacheEntry, bool, error) {
	return c.get(ctx, key, wait)
}

// Put stores entry under its key. The body is json.Marshal(entry),
// already the encoding the plane stores.
func (c *Client) Put(ctx context.Context, e api.CacheEntry) error {
	u := c.Base + PutPath + "?key=" + url.QueryEscape(WireKey(c.Version, e.Key))
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	return remote.PostJSON(ctx, c.client(), u, e, &api.PutReply{})
}

// Claim asks the plane who computes key.
func (c *Client) Claim(ctx context.Context, key string) (api.ClaimReply, error) {
	req := api.ClaimRequest{Proto: api.Version, Key: WireKey(c.Version, key), Owner: c.Owner}
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	var rep api.ClaimReply
	if err := remote.PostJSON(ctx, c.client(), c.Base+ClaimPath, req, &rep); err != nil {
		return api.ClaimReply{}, err
	}
	return rep, nil
}

// EngineCache adapts a plane Client to the engine's RemoteCache seam:
// the fleet-wide tier behind a process-local engine.Cache.
type EngineCache struct {
	C *Client
}

var _ engine.RemoteCache = (*EngineCache)(nil)

// Acquire arbitrates fleet-wide single-flight for key. The loop is:
// fetch (hit wins immediately) → claim → on Done re-fetch, on Granted
// own the computation, on denial long-poll the holder's computation
// and go around. Every transport failure drops out to local compute —
// a sick plane costs duplicated work, never a stall or a wrong result.
func (ec *EngineCache) Acquire(ctx context.Context, key string) (engine.Result, bool) {
	doneMisses := 0
	for ctx.Err() == nil {
		e, ok, err := ec.C.Fetch(ctx, key)
		if err != nil {
			return engine.Result{}, false
		}
		if ok {
			return engine.FromCachedResult(e.Result), true
		}
		rep, err := ec.C.Claim(ctx, key)
		if err != nil {
			return engine.Result{}, false
		}
		switch {
		case rep.Granted:
			return engine.Result{}, false
		case rep.Done:
			// Entry exists server-side but our fetch missed (version or
			// key validation rejected it, or a freak race). Retry a
			// couple of times, then compute locally rather than spin.
			doneMisses++
			if doneMisses >= 3 {
				return engine.Result{}, false
			}
		default:
			// Denied: another machine is computing. Park on its result
			// for the claim's remaining lifetime; a timeout loops back
			// to re-arbitrate (the holder may have crashed — its expired
			// claim then grants to us).
			wait := time.Duration(rep.RetryAfterNS)
			if wait < time.Second {
				wait = time.Second
			}
			if wait > maxWait {
				wait = maxWait
			}
			e, ok, err := ec.C.WaitFetch(ctx, key, wait)
			if err != nil {
				return engine.Result{}, false
			}
			if ok {
				return engine.FromCachedResult(e.Result), true
			}
		}
	}
	return engine.Result{}, false
}

// Store writes through one newly computed success; failures are
// dropped (the result is safe in the local tiers).
func (ec *EngineCache) Store(ctx context.Context, key string, r engine.Result) {
	if r.Err != "" {
		return
	}
	cr, err := engine.ToCachedResult(r)
	if err != nil {
		return
	}
	e := api.CacheEntry{Version: engine.CacheVersionTag(ec.C.Version), Key: key, Result: cr}
	ec.C.Put(ctx, e)
}

// StorePlane adapts an in-process Store to the broker's result-plane
// seam — the co-hosted shape (-broker -result-plane in one daemon)
// where broker prefetches must not loop through HTTP.
type StorePlane struct {
	S *Store
	// Version is the engine code-version stamp folded into keys.
	Version string
}

// Lookup fetches key's persisted result straight from the store.
func (sp *StorePlane) Lookup(ctx context.Context, key string) (api.CachedResult, bool) {
	data, ok := sp.S.Get(WireKey(sp.Version, key))
	if !ok {
		return api.CachedResult{}, false
	}
	var e api.CacheEntry
	if err := json.Unmarshal(data, &e); err != nil || !validEntry(e, sp.Version, key) {
		return api.CachedResult{}, false
	}
	return e.Result, true
}
