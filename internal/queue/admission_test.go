package queue

import (
	"testing"
	"time"

	"repro/internal/api"
)

// wantQueueFull asserts err is the typed retryable admission rejection.
func wantQueueFull(t *testing.T, err error) {
	t.Helper()
	ae, ok := api.AsError(err)
	if !ok || ae.Code != api.CodeQueueFull {
		t.Fatalf("want queue_full, got %v", err)
	}
	if !ae.Retryable {
		t.Fatal("queue_full must be retryable (the client backs off and resubmits)")
	}
}

// TestAdmissionQueueDepthLimit: the limit gates pending depth only —
// leasing drains admission headroom back, and lease-expiry requeues are
// never rejected even when they push the queue past the limit.
func TestAdmissionQueueDepthLimit(t *testing.T) {
	clk := newClock()
	b := newBroker(t, Config{MaxQueued: 2}, clk)

	submit(t, b, "", 0, spec("a", 0), spec("a", 1))
	_, err := submitOne(b, api.JobSubmit{Proto: api.Version, Tasks: []api.TaskSpec{spec("b", 0)}})
	wantQueueFull(t, err)
	if got := b.Metrics().Rejected; got != 1 {
		t.Fatalf("Rejected = %d, want 1", got)
	}

	// Leased tasks do not count against the limit.
	w := hello(t, b, "w1")
	if got := len(poll(t, b, w, 2)); got != 2 {
		t.Fatalf("want 2 leases, got %d", got)
	}
	submit(t, b, "", 0, spec("c", 0), spec("c", 1))

	// Expiry requeues the two leased tasks: pending is now 4, over the
	// limit — requeued work was already admitted and must never bounce.
	clk.advance(DefaultLeaseTTL + 1)
	if st := b.Metrics(); st.Pending != 4 {
		t.Fatalf("pending after requeue = %d, want 4", st.Pending)
	}
	// But new submissions see the full queue.
	_, err = submitOne(b, api.JobSubmit{Proto: api.Version, Tasks: []api.TaskSpec{spec("d", 0)}})
	wantQueueFull(t, err)
}

// TestAdmissionPerTenantOverride: -max-queued-tenant semantics — an
// override replaces the global limit, and an override of 0 lifts it.
func TestAdmissionPerTenantOverride(t *testing.T) {
	b := newBroker(t, Config{
		MaxQueued:       1,
		MaxQueuedTenant: map[string]int{"bulk": 3, "free": 0},
	}, newClock())

	submit(t, b, "", 0, spec("a", 0))
	_, err := submitOne(b, api.JobSubmit{Proto: api.Version, Tasks: []api.TaskSpec{spec("a", 1)}})
	wantQueueFull(t, err)

	submit(t, b, "bulk", 0, spec("b", 0), spec("b", 1), spec("b", 2))
	_, err = submitOne(b, api.JobSubmit{Proto: api.Version, Tenant: "bulk", Tasks: []api.TaskSpec{spec("b", 3)}})
	wantQueueFull(t, err)

	for i := 0; i < 5; i++ {
		submit(t, b, "free", 0, spec("f", i))
	}
}

// TestSubmitBatchPerJobOutcomes: one POST, independent admissions — a
// full tenant fails only its own jobs, and accepted ids are usable.
func TestSubmitBatchPerJobOutcomes(t *testing.T) {
	b := newBroker(t, Config{MaxQueuedTenant: map[string]int{"capped": 1}}, newClock())
	rep, err := b.SubmitBatch(api.JobSubmitBatch{Proto: api.Version, Jobs: []api.JobSubmit{
		{Proto: api.Version, Tenant: "capped", Tasks: []api.TaskSpec{spec("a", 0)}},
		{Proto: api.Version, Tenant: "capped", Tasks: []api.TaskSpec{spec("b", 0)}},
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
	if rep.Jobs[1].Err == nil || rep.Jobs[1].Err.Code != api.CodeQueueFull {
		t.Fatalf("job 1 should bounce off the capped tenant: %+v", rep.Jobs[1])
	}
	if rep.Jobs[2].ID == "" || rep.Jobs[2].Err != nil {
		t.Fatalf("job 2 (other tenant) should be admitted: %+v", rep.Jobs[2])
	}
	for _, id := range []string{rep.Jobs[0].ID, rep.Jobs[2].ID} {
		if st, err := b.Status(id); err != nil || st.State != api.JobQueued {
			t.Fatalf("accepted batch job %s: %v %v", id, st, err)
		}
	}
	if got := b.Metrics().Rejected; got != 1 {
		t.Fatalf("Rejected = %d, want 1", got)
	}
}

// TestSubmitBatchValidatesEnvelope: the envelope (proto, non-empty,
// per-job shapes) fails as a whole — per-job errors are reserved for
// admission, where retry makes sense.
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
	b := newBroker(t, Config{Weights: map[string]int{"ci": 2}, MaxQueued: 10}, clk)
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
	if ci.Weight != 2 || ci.MaxQueued != 10 || ci.Pending != 2 {
		t.Fatalf("ci tenant = %+v, want weight 2, limit 10, 2 pending", ci)
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
