package queue

import (
	"testing"
	"time"

	"repro/internal/api"
)

// TestSubmitBatchPerJobOutcomes: one POST, independent admissions — a
// tenant over its submission rate fails only its own jobs, another
// tenant's bucket is untouched, and accepted ids are usable.
func TestSubmitBatchPerJobOutcomes(t *testing.T) {
	b := newBroker(t, Config{MaxSubmitRate: 1}, newClock())
	rep, err := b.SubmitBatch(api.JobSubmitBatch{Proto: api.Version, Jobs: []api.JobSubmit{
		{Proto: api.Version, Tenant: "busy", Tasks: []api.TaskSpec{spec("a", 0)}},
		{Proto: api.Version, Tenant: "busy", Tasks: []api.TaskSpec{spec("b", 0)}},
		{Proto: api.Version, Tasks: []api.TaskSpec{spec("c", 0)}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Jobs) != 3 {
		t.Fatalf("batch answered %d jobs, want 3", len(rep.Jobs))
	}
	if rep.Jobs[0].ID == "" || rep.Jobs[0].Err != nil {
		t.Fatalf("job 0 should be admitted: %+v", rep.Jobs[0])
	}
	if ae := rep.Jobs[1].Err; ae == nil || ae.Code != api.CodeRateLimited || !ae.Retryable {
		t.Fatalf("job 1 should bounce off its tenant's empty bucket: %+v", rep.Jobs[1])
	}
	if rep.Jobs[2].ID == "" || rep.Jobs[2].Err != nil {
		t.Fatalf("job 2 (other tenant) should be admitted: %+v", rep.Jobs[2])
	}
	for _, id := range []string{rep.Jobs[0].ID, rep.Jobs[2].ID} {
		if st, err := b.Status(id); err != nil || st.State != api.JobQueued {
			t.Fatalf("accepted batch job %s: %v %v", id, st, err)
		}
	}
	if got := b.Metrics().RateLimited; got != 1 {
		t.Fatalf("RateLimited = %d, want 1", got)
	}
}

// TestSubmitBatchValidatesEnvelope: the envelope (proto, non-empty,
// per-job shapes) fails as a whole — per-job errors are reserved for
// the rate limiter, where retry makes sense.
func TestSubmitBatchValidatesEnvelope(t *testing.T) {
	b := newBroker(t, Config{}, newClock())
	if _, err := b.SubmitBatch(api.JobSubmitBatch{Proto: "dlexec0"}); err == nil {
		t.Fatal("foreign proto must be rejected")
	}
	if _, err := b.SubmitBatch(api.JobSubmitBatch{Proto: api.Version}); err == nil {
		t.Fatal("empty batch must be rejected")
	}
	_, err := b.SubmitBatch(api.JobSubmitBatch{Proto: api.Version, Jobs: []api.JobSubmit{
		{Proto: api.Version, Tasks: []api.TaskSpec{spec("ok", 0)}},
		{Proto: api.Version}, // no tasks
	}})
	ae, ok := api.AsError(err)
	if !ok || ae.Code != api.CodeBadRequest {
		t.Fatalf("malformed job must fail the envelope typed: %v", err)
	}
	if st := b.Metrics(); st.Pending != 0 {
		t.Fatalf("a rejected envelope must admit nothing, pending = %d", st.Pending)
	}
}

// TestMetricsSnapshot covers the /v2/metrics payload: queue gauges,
// lifetime counters, and per-tenant depth/age (driven by the fake
// clock, so ages are exact).
func TestMetricsSnapshot(t *testing.T) {
	clk := newClock()
	b := newBroker(t, Config{}, clk)
	submit(t, b, "ci", 0, spec("a", 0), spec("a", 1))
	clk.advance(3 * time.Second)
	submit(t, b, "adhoc", 0, spec("b", 0))

	m := b.Metrics()
	if m.Proto != api.Version {
		t.Fatalf("metrics proto = %q", m.Proto)
	}
	if m.Pending != 3 || m.Workers != 0 || m.Jobs != 2 {
		t.Fatalf("gauges = pending %d workers %d jobs %d, want 3/0/2", m.Pending, m.Workers, m.Jobs)
	}
	if m.Submitted != 3 || m.Completed != 0 {
		t.Fatalf("counters = submitted %d completed %d, want 3/0", m.Submitted, m.Completed)
	}
	if len(m.Tenants) != 2 || m.Tenants[0].Tenant != "adhoc" || m.Tenants[1].Tenant != "ci" {
		t.Fatalf("tenants must be sorted by name: %+v", m.Tenants)
	}
	ci := m.Tenants[1]
	if ci.Pending != 2 || ci.Served != 0 {
		t.Fatalf("ci tenant = %+v, want 2 pending, none served", ci)
	}
	if want := (3 * time.Second).Nanoseconds(); ci.OldestAgeNS != want {
		t.Fatalf("ci oldest age = %dns, want %d (enqueued 3s before the snapshot)", ci.OldestAgeNS, want)
	}
	if m.Tenants[0].OldestAgeNS != 0 {
		t.Fatalf("adhoc just enqueued, oldest age = %dns", m.Tenants[0].OldestAgeNS)
	}

	// Drain the queue and snapshot again: gauges return to zero while
	// the lifetime counters keep counting.
	w := hello(t, b, "w1")
	for _, l := range poll(t, b, w, 4) {
		done(t, b, w, l, "r")
	}
	m = b.Metrics()
	if m.Pending != 0 || m.Leased != 0 || m.Workers != 1 {
		t.Fatalf("drained gauges = pending %d leased %d workers %d", m.Pending, m.Leased, m.Workers)
	}
	if m.Submitted != 3 || m.Completed != 3 {
		t.Fatalf("drained counters = submitted %d completed %d, want 3/3", m.Submitted, m.Completed)
	}
}
