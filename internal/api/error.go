package api

import (
	"errors"
	"fmt"
)

// Code classifies a protocol-level failure. Codes are part of the wire
// contract: peers key behavior off the code (and the Retryable flag),
// never off message text or HTTP status, so error handling survives
// message rewording and transport changes.
type Code string

const (
	// CodeBadRequest: the message itself is malformed (unparsable JSON,
	// invalid field values). The sender is broken; retrying the same
	// message anywhere reproduces the failure.
	CodeBadRequest Code = "bad_request"
	// CodeProtoMismatch: the peer speaks a different protocol revision.
	// Another peer (built from matching code) may accept the message.
	CodeProtoMismatch Code = "proto_mismatch"
	// CodeUnknownJob: this executor's registry does not resolve the named
	// job. A worker serving different presets may.
	CodeUnknownJob Code = "unknown_job"
	// CodeKeyMismatch: the executor's registry derived a different cache
	// key for the job (different preset knobs or experiment code). The
	// task must not run here — it would poison the scheduler's cache —
	// but a matching worker can serve it.
	CodeKeyMismatch Code = "key_mismatch"
	// CodeNotFound: the referenced entity (job id, lease, worker
	// registration) does not exist on this peer — typically because it
	// expired. Re-establish it (e.g. a worker re-registers) rather than
	// retrying the same message.
	CodeNotFound Code = "not_found"
	// CodeDraining: the peer is shutting down and refuses new work;
	// dispatch elsewhere.
	CodeDraining Code = "draining"
	// CodeUnavailable: a transient condition (overload, startup); retry
	// later or elsewhere.
	CodeUnavailable Code = "unavailable"
	// CodeCanceled: the referenced job was canceled; its tasks will never
	// produce results.
	CodeCanceled Code = "canceled"
	// CodeRateLimited: admission control rejected the submission because
	// the tenant exceeded its sustained submission rate (token bucket).
	// The same submission succeeds after the RetryAfterNS hint, without
	// anything needing to drain.
	CodeRateLimited Code = "rate_limited"
	// CodeNotLeader: the peer is a replication follower (or a fenced
	// ex-primary) and refuses mutations. The Primary field carries the
	// current leader's address when known; retry there after the
	// RetryAfterNS floor.
	CodeNotLeader Code = "not_leader"
	// CodeInternal: an unexpected failure on the serving side.
	CodeInternal Code = "internal"
)

// retryableByCode is the canonical retry semantics of each code:
// whether the same message may succeed against a different peer (or the
// same peer later). Clients key retry/exclusion policy off
// Error.Retryable, which constructors seed from this table.
var retryableByCode = map[Code]bool{
	CodeBadRequest:    false,
	CodeProtoMismatch: true,
	CodeUnknownJob:    true,
	CodeKeyMismatch:   true,
	CodeNotFound:      false,
	CodeDraining:      true,
	CodeUnavailable:   true,
	CodeCanceled:      false,
	CodeRateLimited:   true,
	CodeNotLeader:     true,
	CodeInternal:      true,
}

// Codes lists every defined Code (wire-contract enumeration, handy for
// exhaustive round-trip tests and metrics label allow-lists).
func Codes() []Code {
	return []Code{
		CodeBadRequest, CodeProtoMismatch, CodeUnknownJob, CodeKeyMismatch,
		CodeNotFound, CodeDraining, CodeUnavailable, CodeCanceled,
		CodeRateLimited, CodeNotLeader, CodeInternal,
	}
}

// Error is the typed protocol error: a stable code, a human-readable
// message, and the retry decision already made by the side that knows
// why the request failed. It marshals as JSON and is the body of every
// non-200 HTTP response in the dlexec2 transport.
type Error struct {
	Code      Code   `json:"code"`
	Msg       string `json:"message"`
	Retryable bool   `json:"retryable"`
	// RetryAfterNS, when > 0, is the serving side's own estimate of how
	// long the condition lasts (rate_limited sets it to the token
	// bucket's refill time). Clients floor their backoff at it; the HTTP
	// transport mirrors it as a Retry-After header.
	RetryAfterNS int64 `json:"retry_after_ns,omitempty"`
	// Primary, set on not_leader errors, is the address of the broker
	// currently accepting mutations (as far as the refusing peer knows).
	// Clients fail over to it instead of blind-rotating their list.
	Primary string `json:"primary,omitempty"`
}

// Error implements the error interface.
func (e *Error) Error() string { return string(e.Code) + ": " + e.Msg }

// Errf builds an Error with the code's canonical retryability.
func Errf(code Code, format string, args ...any) *Error {
	return &Error{Code: code, Msg: fmt.Sprintf(format, args...), Retryable: retryableByCode[code]}
}

// AsError extracts a typed protocol error from an error chain; ok is
// false for plain Go errors (which callers should treat as transport
// failures — retryable, but counting against the peer's health).
func AsError(err error) (*Error, bool) {
	var ae *Error
	if errors.As(err, &ae) {
		return ae, true
	}
	return nil, false
}

// Retryable reports whether err may succeed against a different peer:
// typed errors answer from their flag, untyped errors default to true
// (transport failures are the canonical retry-elsewhere case).
func Retryable(err error) bool {
	if ae, ok := AsError(err); ok {
		return ae.Retryable
	}
	return true
}
