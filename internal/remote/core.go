package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
)

// The HTTP core every dlexec2 daemon and client shares: one address
// normalizer, one broker failover list, one JSON request path (PostJSON
// and GetJSON), one GET /v1/status probe, and on the server side one
// request decode and one JSON reply (httperr.go). Every body either
// side reads is bounded at MaxBodyBytes.

// MaxBodyBytes bounds every request body a daemon decodes and every
// reply body a client decodes. A cache entry (a rendered table plus a
// JSON payload) is the largest message and sits far below it; the
// bound only keeps one peer from making another buffer without limit.
const MaxBodyBytes = 64 << 20

// statusTimeout bounds a /v1/status probe: a daemon must answer it
// promptly even though its task executions may not.
const statusTimeout = 10 * time.Second

// transportFailoverAfter is how many consecutive transport-level
// failures against one broker a client tolerates before rotating to the
// next target in its failover list. Low enough that a SIGKILLed primary
// costs a couple of seconds, high enough that one dropped packet does
// not bounce the fleet between brokers.
const transportFailoverAfter = 3

// NormalizeAddr canonicalizes a daemon address ("host:port" or a full
// URL) into the base URL routes are appended to: the http:// scheme
// when none is given, no surrounding space and no trailing slash. A
// base ending in "/" would put every route at "//v2/...", which
// http.ServeMux answers with a redirect instead of the handler.
func NormalizeAddr(addr string) string {
	base := strings.TrimSpace(addr)
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return strings.TrimRight(base, "/")
}

// targets is a client's broker failover list: the normalized addresses
// it may talk to and the one traffic goes to now. Safe for concurrent
// use.
type targets struct {
	mu   sync.Mutex
	list []string
	cur  int
}

// newTargets parses a comma-separated broker list, dropping empty
// elements; nil when no address is left.
func newTargets(addr string) *targets {
	t := &targets{}
	for _, a := range strings.Split(addr, ",") {
		if strings.TrimSpace(a) != "" {
			t.list = append(t.list, NormalizeAddr(a))
		}
	}
	if len(t.list) == 0 {
		return nil
	}
	return t
}

// now is the broker traffic currently targets.
func (t *targets) now() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.list[t.cur]
}

// size is the number of brokers in the list.
func (t *targets) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.list)
}

// failover moves traffic off the broker at from — but only if it is
// still the current target, so concurrent retry loops racing to fail
// over move the client exactly one hop. A non-empty hint (the primary
// a not_leader error names) is adopted directly, joining the list if
// new; without one the list is tried round-robin.
func (t *targets) failover(from, hint string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.list[t.cur] != from {
		return
	}
	if hint != "" {
		h := NormalizeAddr(hint)
		for i, a := range t.list {
			if a == h {
				t.cur = i
				return
			}
		}
		t.list = append(t.list, h)
		t.cur = len(t.list) - 1
		return
	}
	t.cur = (t.cur + 1) % len(t.list)
}

// missed counts one transport failure against from in the calling
// loop's own miss counter. After transportFailoverAfter in a row, and
// with somewhere else to go, it rotates past from, resets the counter
// and reports true.
func (t *targets) missed(misses *int, from string) bool {
	if *misses++; *misses < transportFailoverAfter || t.size() < 2 {
		return false
	}
	t.failover(from, "")
	*misses = 0
	return true
}

// orDefaultClient is c, or a default client with no overall timeout
// (long polls and long tasks are the normal case).
func orDefaultClient(c *http.Client) *http.Client {
	if c == nil {
		return &http.Client{}
	}
	return c
}

// PostJSON ships req as JSON to url and decodes a 200 reply into out
// (nil discards it); a non-200 comes back as DecodeError's typed (or
// transport) error.
func PostJSON(ctx context.Context, client *http.Client, url string, req, out any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	return doJSON(client, hreq, out)
}

// GetJSON is PostJSON's read-side twin: GET url and decode a 200 reply
// into out.
func GetJSON(ctx context.Context, client *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	return doJSON(client, req, out)
}

// doJSON sends req and decodes a 200 reply of at most MaxBodyBytes
// into out.
func doJSON(client *http.Client, req *http.Request, out any) error {
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return DecodeError(resp)
	}
	if out == nil {
		return nil
	}
	if err := readJSON(nil, resp.Body, out); err != nil {
		return fmt.Errorf("decode reply: %w", err)
	}
	return nil
}

// readJSON decodes body into msg. A body over MaxBodyBytes fails before
// any of it is parsed; on a server (w non-nil) the connection then
// closes after the reply instead of draining the rest.
func readJSON(w http.ResponseWriter, body io.ReadCloser, msg any) error {
	data, err := io.ReadAll(http.MaxBytesReader(w, body, MaxBodyBytes))
	if err != nil {
		return err
	}
	return json.Unmarshal(data, msg)
}

// probeStatus fetches a daemon's GET /v1/status within statusTimeout.
// A refusal comes back as its typed api.Error; a daemon speaking
// another protocol revision is refused here.
func probeStatus(ctx context.Context, client *http.Client, base string) (api.WorkerStatus, error) {
	ctx, cancel := context.WithTimeout(ctx, statusTimeout)
	defer cancel()
	var st api.WorkerStatus
	if err := GetJSON(ctx, client, base+StatusPath, &st); err != nil {
		return api.WorkerStatus{}, err
	}
	if err := api.CheckProto(st.Proto); err != nil {
		return api.WorkerStatus{}, err
	}
	return st, nil
}
