package remote

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/api"
)

// httpStatus maps an api error code onto an HTTP status. The status is
// cosmetic — clients key behavior off the JSON body's code and
// Retryable flag — but keeping it truthful makes curl and access logs
// readable.
func httpStatus(code api.Code) int {
	switch code {
	case api.CodeBadRequest, api.CodeProtoMismatch:
		return http.StatusBadRequest
	case api.CodeUnknownJob, api.CodeKeyMismatch:
		return http.StatusUnprocessableEntity
	case api.CodeNotFound:
		return http.StatusNotFound
	case api.CodeCanceled:
		return http.StatusConflict
	case api.CodeRateLimited:
		return http.StatusTooManyRequests
	case api.CodeDraining, api.CodeUnavailable, api.CodeNotLeader:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// WriteError renders err as the dlexec2 error body: a JSON api.Error
// with a matching HTTP status. Untyped errors are wrapped as
// CodeInternal so every non-200 response has the same shape. Sibling
// HTTP layers (the result plane) answer through it too, so every
// endpoint in the repo speaks the identical typed-error shape. A
// message longer than maxErrorMsg bytes is cut there.
func WriteError(w http.ResponseWriter, err error) {
	ae, ok := api.AsError(err)
	if !ok {
		ae = api.Errf(api.CodeInternal, "%v", err)
	}
	if len(ae.Msg) > maxErrorMsg {
		cut := *ae
		cut.Msg = strings.ToValidUTF8(ae.Msg[:maxErrorMsg], "") + "…"
		ae = &cut
	}
	w.Header().Set("Content-Type", "application/json")
	if ae.RetryAfterNS > 0 {
		// Whole seconds, rounded up: Retry-After has no sub-second form.
		secs := (ae.RetryAfterNS + int64(time.Second) - 1) / int64(time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	w.WriteHeader(httpStatus(ae.Code))
	json.NewEncoder(w).Encode(ae)
}

// errorBodyLimit bounds how much of a non-200 body DecodeError reads.
const errorBodyLimit = 4096

// maxErrorMsg bounds an error body's message, which may echo a client's
// input: one this long fits errorBodyLimit even with every byte escaped.
const maxErrorMsg = 512

// DecodeError reconstructs the typed error from a non-200 response.
// Bodies that are not an api.Error (a proxy's HTML error page, a
// pre-dlexec2 daemon's plain text) degrade to an untyped error, which
// clients treat as a retryable transport failure.
func DecodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, errorBodyLimit))
	var ae api.Error
	if err := json.Unmarshal(body, &ae); err == nil && ae.Code != "" {
		return &ae
	}
	return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
}

// DecodeInto parses a request body of at most MaxBodyBytes into msg,
// answering malformed or oversized bodies with a typed bad_request.
func DecodeInto(w http.ResponseWriter, r *http.Request, msg any) bool {
	if err := readJSON(w, r.Body, msg); err != nil {
		WriteError(w, api.Errf(api.CodeBadRequest, "bad message: %v", err))
		return false
	}
	return true
}

// Reply writes a 200 JSON body.
func Reply(w http.ResponseWriter, msg any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(msg)
}
