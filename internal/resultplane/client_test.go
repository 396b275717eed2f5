package resultplane

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/api"
	"repro/internal/engine"
	"repro/internal/remote"
)

// roundTripFunc answers a client's requests in-process.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// fetchStatuses are the statuses FuzzFetch's plane answers with.
var fetchStatuses = []int{http.StatusOK, http.StatusNotFound, http.StatusInternalServerError, http.StatusServiceUnavailable}

// FuzzFetch feeds Client.Fetch arbitrary plane answers through an
// in-process transport. It never panics. A 200 is an error exactly when
// its body does not unmarshal into an api.CacheEntry, and a hit exactly
// when the entry carries the client's version tag, the requested key and
// no error. A non-200 is never a hit: a typed not_found is a clean miss
// (no error), anything else is an error.
func FuzzFetch(f *testing.F) {
	entry := func(version, key string, cr api.CachedResult) []byte {
		b, err := json.Marshal(api.CacheEntry{Version: engine.CacheVersionTag(version), Key: key, Result: cr})
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	errBody := func(err error) []byte {
		rec := httptest.NewRecorder()
		remote.WriteError(rec, err)
		return rec.Body.Bytes()
	}
	// server_test.go's vectors: a stored entry, a version-poisoned one,
	// a typed miss; plus a stored failure and a key mixup.
	f.Add(uint8(0), "mc@abc", entry("v1", "mc@abc", api.CachedResult{Name: "mc", Text: "table", Seed: 3, DurationNS: 5}))
	f.Add(uint8(0), "k", entry("OTHER", "k", api.CachedResult{Text: "poison"}))
	f.Add(uint8(1), "nope", errBody(api.Errf(api.CodeNotFound, "no entry for key %q", "nope")))
	f.Add(uint8(0), "k", entry("v1", "k", api.CachedResult{Err: "boom"}))
	f.Add(uint8(0), "k", entry("v1", "other", api.CachedResult{Text: "table"}))
	// httperr_test.go's vectors: every code, an HTML error page, a
	// hand-written body whose code this build does not define.
	for i, code := range api.Codes() {
		f.Add(uint8(i), "k", errBody(api.Errf(code, "probe %s with %q and spaces", code, "quoted")))
	}
	f.Add(uint8(3), "k", []byte("<html>bad gateway</html>"))
	f.Add(uint8(2), "k", []byte(`{"code":"queue_full","message":"full"}`))
	// A not_found body longer than the error decoder reads: its prefix
	// does not parse, so it is an error, not a clean miss.
	f.Add(uint8(1), "k", []byte(`{"code":"not_found","message":"`+strings.Repeat("x", 5000)+`"}`))

	f.Fuzz(func(t *testing.T, s uint8, key string, body []byte) {
		status := fetchStatuses[int(s)%len(fetchStatuses)]
		answer := func() *http.Response {
			return &http.Response{
				StatusCode: status,
				Status:     fmt.Sprintf("%d %s", status, http.StatusText(status)),
				Header:     http.Header{},
				Body:       io.NopCloser(bytes.NewReader(body)),
			}
		}
		c := NewClient("plane.invalid:9742", "v1")
		c.HTTPClient = &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
			resp := answer()
			resp.Request = r
			return resp, nil
		})}
		e, ok, err := c.Fetch(context.Background(), key)

		if status == http.StatusOK {
			var want api.CacheEntry
			decodes := json.Unmarshal(body, &want) == nil
			if (err == nil) != decodes {
				t.Fatalf("200 %q: err = %v, body decodes = %v", body, err, decodes)
			}
			hit := decodes && want.Version == engine.CacheVersionTag("v1") && want.Key == key && want.Result.Err == ""
			if ok != hit {
				t.Fatalf("200 %q for key %q: ok = %v, want %v", body, key, ok, hit)
			}
			if ok && !reflect.DeepEqual(e, want) {
				t.Fatalf("hit returned %+v, want %+v", e, want)
			}
			return
		}
		if ok {
			t.Fatalf("%d %q: a non-200 answered a hit", status, body)
		}
		ae, typed := api.AsError(remote.DecodeError(answer()))
		notFound := typed && ae.Code == api.CodeNotFound
		if notFound != (err == nil) {
			t.Fatalf("%d %q: err = %v, typed not_found = %v", status, body, err, notFound)
		}
	})
}
