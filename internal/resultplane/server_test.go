package resultplane

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/engine"
	"repro/internal/queue"
	"repro/internal/remote"
)

func newTestPlane(t *testing.T) (*Store, *httptest.Server) {
	t.Helper()
	store := NewStore()
	srv := httptest.NewServer(NewServer(store, "test-plane").Handler())
	t.Cleanup(srv.Close)
	return store, srv
}

// TestServerPutGetRoundTrip: a PUT entry comes back from a plain GET
// byte for byte, and the plane answers every GET in full: it sends no
// ETag and ignores If-None-Match.
func TestServerPutGetRoundTrip(t *testing.T) {
	store, srv := newTestPlane(t)
	c := NewClient(srv.URL, "v1")

	cr := api.CachedResult{Name: "mc", Text: "table", Seed: 3, DurationNS: 5}
	entry := api.CacheEntry{Version: engine.CacheVersionTag("v1"), Key: "mc@abc", Result: cr}
	if err := c.Put(context.Background(), entry); err != nil {
		t.Fatal(err)
	}
	stored, ok := store.Get(WireKey("v1", "mc@abc"))
	if !ok {
		t.Fatal("put stored nothing")
	}

	u := srv.URL + GetPath + "?key=" + WireKey("v1", "mc@abc")
	for _, inm := range []string{"", `"deadbeef"`, "*"} {
		req, _ := http.NewRequest(http.MethodGet, u, nil)
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body := new(bytes.Buffer)
		body.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != "" || !bytes.Equal(body.Bytes(), stored) {
			t.Fatalf("get (If-None-Match %q): status=%d etag=%q body=%q, want 200, no tag, %q",
				inm, resp.StatusCode, resp.Header.Get("ETag"), body, stored)
		}
	}
	got, ok, err := c.Fetch(context.Background(), "mc@abc")
	if err != nil || !ok || got.Key != "mc@abc" || got.Result.Text != "table" {
		t.Fatalf("fetch: %+v ok=%v err=%v", got, ok, err)
	}
}

func TestServerGetMissIsTypedNotFound(t *testing.T) {
	_, srv := newTestPlane(t)
	resp, err := http.Get(srv.URL + GetPath + "?key=nope")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("miss status %d", resp.StatusCode)
	}
	var ae api.Error
	if err := json.NewDecoder(resp.Body).Decode(&ae); err != nil || ae.Code != api.CodeNotFound {
		t.Fatalf("miss body: err=%v code=%q", err, ae.Code)
	}
}

// TestServerRefusesNonJSONPut: a body that is not JSON cannot be
// persisted, so the plane answers a typed bad request and stores
// nothing.
func TestServerRefusesNonJSONPut(t *testing.T) {
	store, srv := newTestPlane(t)
	before := store.Metrics()
	resp, err := http.Post(srv.URL+PutPath+"?key=k", "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-JSON put status %d, want 400", resp.StatusCode)
	}
	if ae, ok := api.AsError(remote.DecodeError(resp)); !ok || ae.Code != api.CodeBadRequest {
		t.Fatalf("non-JSON put: %v, want typed %s", ae, api.CodeBadRequest)
	}
	if m := store.Metrics(); m != before {
		t.Fatalf("non-JSON put changed the metrics: %+v, was %+v", m, before)
	}
	if _, ok := store.Get("k"); ok {
		t.Fatal("non-JSON put stored an entry")
	}
}

func TestServerClaimEndpoint(t *testing.T) {
	_, srv := newTestPlane(t)
	c1 := NewClient(srv.URL, "v1")
	c1.Owner = "alice"
	c2 := NewClient(srv.URL, "v1")
	c2.Owner = "bob"

	rep, err := c1.Claim(context.Background(), "k")
	if err != nil || !rep.Granted {
		t.Fatalf("first claim: %+v err=%v", rep, err)
	}
	rep, err = c2.Claim(context.Background(), "k")
	if err != nil || rep.Granted || rep.Owner != "alice" {
		t.Fatalf("competing claim: %+v err=%v", rep, err)
	}
}

func TestServerMetricsEndpoint(t *testing.T) {
	store, srv := newTestPlane(t)
	store.Put("k", []byte(`{"x":1}`))

	resp, err := http.Get(srv.URL + "/v2/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m api.BrokerMetrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.Plane == nil || m.Plane.Puts != 1 || m.Plane.Entries != 1 {
		t.Fatalf("metrics json: %+v", m.Plane)
	}

	resp, err = http.Get(srv.URL + "/v2/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	text := new(bytes.Buffer)
	text.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(text.String(), "dramlocker_plane_puts_total 1") {
		t.Fatalf("prometheus text missing plane series:\n%s", text)
	}
}

// TestMetricsMatchBroker: a standalone plane and a broker co-hosting
// the same store answer /v2/metrics through one responder — the same
// Content-Type in either format, the same JSON schema and the same
// plane series.
func TestMetricsMatchBroker(t *testing.T) {
	store, plane := newTestPlane(t)
	store.Put("k", []byte(`{"x":1}`))
	bs := remote.NewBrokerServer(queue.New(queue.Config{}), "test-broker")
	bs.SetPlaneMetrics(store.Metrics)
	broker := httptest.NewServer(bs)
	t.Cleanup(broker.Close)

	scrape := func(base, query string) (string, []byte) {
		t.Helper()
		resp, err := http.Get(base + remote.MetricsPath + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("scrape %s%s: status %d, err %v", base, query, resp.StatusCode, err)
		}
		return resp.Header.Get("Content-Type"), body
	}
	planeSeries := func(text []byte) []string {
		var lines []string
		for _, l := range strings.Split(string(text), "\n") {
			if strings.Contains(l, "dramlocker_plane_") {
				lines = append(lines, l)
			}
		}
		return lines
	}
	strict := func(body []byte) api.BrokerMetrics {
		t.Helper()
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var m api.BrokerMetrics
		if err := dec.Decode(&m); err != nil {
			t.Fatalf("metrics body outside the schema: %v\n%s", err, body)
		}
		return m
	}

	pType, pText := scrape(plane.URL, "?format=prometheus")
	bType, bText := scrape(broker.URL, "?format=prometheus")
	if pType != bType {
		t.Errorf("prometheus Content-Type: plane %q, broker %q", pType, bType)
	}
	if p, b := planeSeries(pText), planeSeries(bText); len(p) == 0 || strings.Join(p, "\n") != strings.Join(b, "\n") {
		t.Errorf("plane series differ:\nplane:\n%s\nbroker:\n%s", strings.Join(p, "\n"), strings.Join(b, "\n"))
	}

	pType, pJSON := scrape(plane.URL, "")
	bType, bJSON := scrape(broker.URL, "")
	if pType != bType {
		t.Errorf("JSON Content-Type: plane %q, broker %q", pType, bType)
	}
	pm, bm := strict(pJSON), strict(bJSON)
	if pm.Proto != api.Version || bm.Proto != api.Version || pm.Plane == nil || bm.Plane == nil || *pm.Plane != *bm.Plane {
		t.Errorf("JSON metrics differ: plane %s, broker %s", pJSON, bJSON)
	}
}

// TestCrossProcessSingleFlight races two engine caches — two
// "machines" — on one key through a shared plane: exactly one may
// compute; the other must observe the claim, park, and receive the
// winner's stored result.
func TestCrossProcessSingleFlight(t *testing.T) {
	_, srv := newTestPlane(t)

	var computes atomic.Int64
	started := make(chan struct{}) // winner reached its compute
	finish := make(chan struct{})  // release the winner
	results := make(chan engine.Result, 2)

	run := func(owner string) {
		c := NewClient(srv.URL, "v1")
		c.Owner = owner
		ec := &EngineCache{C: c}
		r, ok := ec.Acquire(context.Background(), "k")
		if !ok {
			// We own the fleet-wide computation.
			if computes.Add(1) == 1 {
				close(started)
			}
			<-finish
			r = engine.Result{Name: "k", Text: "computed", Seed: 1, Duration: time.Millisecond}
			ec.Store(context.Background(), "k", r)
		}
		results <- r
	}

	go run("alice")
	// Don't start bob until alice holds the claim, so the race is the
	// interesting one: claim-held, result pending.
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("no worker ever claimed the computation")
	}
	go run("bob")
	// Give bob time to fetch-miss, get denied, and park on the long
	// poll before the winner publishes.
	time.Sleep(100 * time.Millisecond)
	close(finish)

	for i := 0; i < 2; i++ {
		select {
		case r := <-results:
			if r.Text != "computed" {
				t.Fatalf("worker %d got %+v", i, r)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("worker never finished")
		}
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("%d computations ran, want exactly 1", n)
	}
}

// TestAcquireFallsBackOnDeadPlane proves a vanished plane degrades to
// local compute rather than stalling.
func TestAcquireFallsBackOnDeadPlane(t *testing.T) {
	_, srv := newTestPlane(t)
	c := NewClient(srv.URL, "v1")
	srv.Close()

	ec := &EngineCache{C: c}
	if _, ok := ec.Acquire(context.Background(), "k"); ok {
		t.Fatal("dead plane must fall back to local compute, not hit")
	}
	// Store against a dead plane is a silent no-op.
	ec.Store(context.Background(), "k", engine.Result{Name: "k", Text: "x"})
}

// TestClientValidatesEntries proves a plane answering the wrong version
// or key is treated as a miss, never a wrong result.
func TestClientValidatesEntries(t *testing.T) {
	store, srv := newTestPlane(t)
	wrong, _ := json.Marshal(api.CacheEntry{
		Version: engine.CacheVersionTag("OTHER"), Key: "k",
		Result: api.CachedResult{Text: "poison"},
	})
	store.Put(WireKey("v1", "k"), wrong)

	c := NewClient(srv.URL, "v1")
	if _, ok, err := c.Fetch(context.Background(), "k"); err != nil || ok {
		t.Fatalf("version-mismatched entry must be a clean miss (ok=%v err=%v)", ok, err)
	}
}
