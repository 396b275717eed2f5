package remote

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/api"
)

// roundTrip pushes err through the real wire path — WriteError renders
// the HTTP response, DecodeError reconstructs the client-side error.
func roundTrip(t *testing.T, err error) (*api.Error, int) {
	t.Helper()
	rec := httptest.NewRecorder()
	WriteError(rec, err)
	resp := rec.Result()
	defer resp.Body.Close()
	got := DecodeError(resp)
	ae, ok := api.AsError(got)
	if !ok {
		t.Fatalf("DecodeError lost the type: %v", got)
	}
	return ae, resp.StatusCode
}

// TestErrorRoundTripAllCodes is the wire contract for every defined
// code: Code, Msg and Retryable survive WriteError -> HTTP ->
// DecodeError unchanged, and no code falls through to a 200 status.
func TestErrorRoundTripAllCodes(t *testing.T) {
	for _, code := range api.Codes() {
		in := api.Errf(code, "probe %s with %q and spaces", code, "quoted")
		ae, status := roundTrip(t, in)
		if ae.Code != in.Code || ae.Msg != in.Msg || ae.Retryable != in.Retryable {
			t.Errorf("%s: round-trip mangled %+v into %+v", code, in, ae)
		}
		if status < 400 {
			t.Errorf("%s: status %d, want an error status", code, status)
		}
	}
}

// TestErrorRoundTripPreservesFlippedRetryable: clients key off the
// Retryable flag the server set, not off a client-side code table — a
// server that overrides the canonical retryability must be believed.
func TestErrorRoundTripPreservesFlippedRetryable(t *testing.T) {
	for _, code := range api.Codes() {
		in := api.Errf(code, "flipped")
		in.Retryable = !in.Retryable
		ae, _ := roundTrip(t, in)
		if ae.Retryable != in.Retryable {
			t.Errorf("%s: flipped Retryable=%v came back %v", code, in.Retryable, ae.Retryable)
		}
	}
}

// TestErrorRoundTripUntyped: plain Go errors are wrapped as internal on
// the way out, and non-JSON bodies (proxy error pages) degrade to an
// untyped error on the way back — never a panic, never a false 200.
func TestErrorRoundTripUntyped(t *testing.T) {
	ae, status := roundTrip(t, fmt.Errorf("disk on fire"))
	if ae.Code != api.CodeInternal || !ae.Retryable {
		t.Fatalf("untyped error should wire as retryable internal: %+v", ae)
	}
	if status != 500 {
		t.Fatalf("status %d, want 500", status)
	}

	rec := httptest.NewRecorder()
	rec.WriteHeader(502)
	rec.WriteString("<html>bad gateway</html>")
	resp := rec.Result()
	defer resp.Body.Close()
	err := DecodeError(resp)
	if _, typed := api.AsError(err); typed {
		t.Fatalf("HTML body must decode untyped, got %v", err)
	}
	if !api.Retryable(err) {
		t.Fatal("untyped transport errors default to retryable")
	}
}

// TestQueueFullMapsTo429 pins the admission code's cosmetic status and
// its Retry-After header, so off-the-shelf HTTP tooling (rate-limit
// dashboards, curl --retry) reads them correctly.
func TestQueueFullMapsTo429(t *testing.T) {
	in := api.Errf(api.CodeRateLimited, "slow down")
	in.RetryAfterNS = int64(1500 * time.Millisecond)
	rec := httptest.NewRecorder()
	WriteError(rec, in)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("rate_limited status %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After %q, want the hint rounded up to 2 seconds", got)
	}
	if ae, _ := roundTrip(t, in); ae.RetryAfterNS != in.RetryAfterNS {
		t.Fatalf("round trip lost the hint: %+v", ae)
	}
}

// FuzzDecodeError feeds DecodeError arbitrary statuses and bodies. It
// never panics; it returns a typed *api.Error exactly when the first
// errorBodyLimit bytes of the body unmarshal into an api.Error with a
// code (and then that error); and an error WriteError renders with a
// short code and primary fits the bound, whatever its message, and
// decodes back to the same code, retryable flag, RetryAfterNS, Primary
// and message, a message over maxErrorMsg bytes cut to a prefix of
// itself.
func FuzzDecodeError(f *testing.F) {
	seed := func(ae *api.Error) {
		rec := httptest.NewRecorder()
		WriteError(rec, ae)
		f.Add(rec.Code, rec.Body.Bytes(), string(ae.Code), ae.Msg, ae.Retryable, ae.RetryAfterNS, ae.Primary)
	}
	for _, code := range api.Codes() {
		ae := api.Errf(code, "probe %s with %q and spaces", code, "quoted")
		seed(ae)
		ae.Retryable = !ae.Retryable
		seed(ae)
	}
	seed(api.Errf(api.CodeInternal, "disk on fire"))
	seed(&api.Error{Code: api.CodeNotLeader, Msg: "standby", Retryable: true,
		RetryAfterNS: 1500000000, Primary: "http://10.0.0.9:9741"})
	f.Add(502, []byte("<html>bad gateway</html>"), "", "", false, int64(0), "")
	// A hand-written body whose code this build does not define.
	f.Add(429, []byte(`{"code":"queue_full","message":"full"}`), "queue_full", "full", true, int64(-1), "")
	// The broker's rate_limited reply, with a sub-second hint, and a
	// message long enough that WriteError cuts it.
	seed(&api.Error{Code: api.CodeRateLimited, Msg: "tenant \"ci\" is over its submission rate",
		Retryable: true, RetryAfterNS: int64(250 * time.Millisecond)})
	seed(api.Errf(api.CodeBadRequest, "bad message: %s", strings.Repeat("é", maxErrorMsg)))

	f.Fuzz(func(t *testing.T, status int, body []byte, code, msg string, retryable bool, retryAfterNS int64, primary string) {
		resp := &http.Response{
			StatusCode: status,
			Status:     fmt.Sprintf("%d fuzz", status),
			Body:       io.NopCloser(bytes.NewReader(body)),
		}
		err := DecodeError(resp)
		if err == nil {
			t.Fatal("DecodeError returned nil")
		}
		var want api.Error
		typed := json.Unmarshal(body[:min(len(body), errorBodyLimit)], &want) == nil && want.Code != ""
		ae, ok := api.AsError(err)
		if ok != typed {
			t.Fatalf("typed = %v, want %v for body %q (error %v)", ok, typed, body, err)
		}
		if typed && *ae != want {
			t.Fatalf("decoded %+v, want %+v", *ae, want)
		}

		// Round trip. JSON replaces invalid UTF-8, so only valid
		// strings can come back unchanged.
		in := &api.Error{Code: api.Code(code), Msg: msg, Retryable: retryable, RetryAfterNS: retryAfterNS, Primary: primary}
		rec := httptest.NewRecorder()
		WriteError(rec, in)
		if len(code)+len(primary) <= 64 && rec.Body.Len() > errorBodyLimit {
			t.Fatalf("WriteError(%+v) wrote %d bytes, over errorBodyLimit", *in, rec.Body.Len())
		}
		if code == "" || rec.Body.Len() > errorBodyLimit ||
			!utf8.ValidString(code) || !utf8.ValidString(msg) || !utf8.ValidString(primary) {
			return
		}
		out, ok := api.AsError(DecodeError(rec.Result()))
		if !ok {
			t.Fatalf("WriteError(%+v) decoded untyped", *in)
		}
		got := *out
		if len(msg) > maxErrorMsg {
			prefix, cut := strings.CutSuffix(got.Msg, "…")
			if !cut || len(prefix) > maxErrorMsg || !strings.HasPrefix(msg, prefix) {
				t.Fatalf("message of %d bytes came back as %q", len(msg), got.Msg)
			}
			got.Msg = msg
		}
		if got != *in {
			t.Fatalf("WriteError(%+v) decoded to %+v", *in, got)
		}
	})
}
