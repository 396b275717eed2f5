package queue

import (
	"testing"
	"time"

	"repro/internal/api"
)

// wantRateLimited asserts err is the typed retryable rate rejection and
// returns its Retry-After hint.
func wantRateLimited(t *testing.T, err error) time.Duration {
	t.Helper()
	ae, ok := api.AsError(err)
	if !ok || ae.Code != api.CodeRateLimited {
		t.Fatalf("want rate_limited, got %v", err)
	}
	if !ae.Retryable {
		t.Fatal("rate_limited must be retryable (the client waits out Retry-After)")
	}
	if ae.RetryAfterNS <= 0 {
		t.Fatalf("rate_limited without a Retry-After hint: %+v", ae)
	}
	return time.Duration(ae.RetryAfterNS)
}

// TestRateLimitTokenBucket: the first second's burst is free, the
// overflow is rejected with an accurate Retry-After, and refill admits
// again exactly when the hint promised.
func TestRateLimitTokenBucket(t *testing.T) {
	clk := newClock()
	b := newBroker(t, Config{MaxSubmitRate: 4}, clk)

	// Burst: 4 tasks pass immediately.
	submit(t, b, "", 0, spec("a", 0), spec("a", 1))
	submit(t, b, "", 0, spec("b", 0), spec("b", 1))

	// The bucket is empty; a 2-task job needs 2 tokens = 500ms at 4/s.
	_, err := submitOne(b, api.JobSubmit{Proto: api.Version, Tasks: []api.TaskSpec{spec("c", 0), spec("c", 1)}})
	wait := wantRateLimited(t, err)
	if wait != 500*time.Millisecond {
		t.Fatalf("Retry-After = %v, want 500ms (2 tokens at 4/s)", wait)
	}
	if got := b.Metrics().RateLimited; got != 1 {
		t.Fatalf("RateLimited = %d, want 1", got)
	}

	// Too early: still limited, with a shorter remaining wait.
	clk.advance(250 * time.Millisecond)
	_, err = submitOne(b, api.JobSubmit{Proto: api.Version, Tasks: []api.TaskSpec{spec("c", 0), spec("c", 1)}})
	if got := wantRateLimited(t, err); got != 250*time.Millisecond {
		t.Fatalf("remaining Retry-After = %v, want 250ms", got)
	}

	// At the promised time the same submission is admitted.
	clk.advance(250 * time.Millisecond)
	submit(t, b, "", 0, spec("c", 0), spec("c", 1))
}

// TestRateLimitOversizedJobRuns: a job larger than the whole burst is
// admitted once the bucket is full (going into debt) rather than being
// rejected forever.
func TestRateLimitOversizedJobRuns(t *testing.T) {
	clk := newClock()
	b := newBroker(t, Config{MaxSubmitRate: 2}, clk)

	// 5 tasks > burst of 2, but the bucket starts full: admitted, bucket
	// goes to -3.
	submit(t, b, "", 0, spec("big", 0), spec("big", 1), spec("big", 2), spec("big", 3), spec("big", 4))

	// The debt is real: even a 1-task job now waits until the bucket is
	// non-negative again ((3+1)/2 = 2s).
	_, err := submitOne(b, api.JobSubmit{Proto: api.Version, Tasks: []api.TaskSpec{spec("s", 0)}})
	if wait := wantRateLimited(t, err); wait != 2*time.Second {
		t.Fatalf("Retry-After = %v, want 2s (paying off the oversized job's debt)", wait)
	}
	clk.advance(2 * time.Second)
	submit(t, b, "", 0, spec("s", 0))
}

// TestRateLimitBatchPartial: in a batch, rate limiting rejects jobs
// individually — the batch reply carries per-job rate_limited errors
// while earlier jobs in the same batch are admitted.
func TestRateLimitBatchPartial(t *testing.T) {
	clk := newClock()
	b := newBroker(t, Config{MaxSubmitRate: 2}, clk)
	rep, err := b.SubmitBatch(api.JobSubmitBatch{Proto: api.Version, Jobs: []api.JobSubmit{
		{Proto: api.Version, Tasks: []api.TaskSpec{spec("a", 0), spec("a", 1)}},
		{Proto: api.Version, Tasks: []api.TaskSpec{spec("b", 0)}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs[0].Err != nil || rep.Jobs[0].ID == "" {
		t.Fatalf("first job should be admitted: %+v", rep.Jobs[0])
	}
	if rep.Jobs[1].Err == nil || rep.Jobs[1].Err.Code != api.CodeRateLimited {
		t.Fatalf("second job should be rate limited: %+v", rep.Jobs[1])
	}
}
