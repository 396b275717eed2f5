package remote

import (
	"fmt"
	"io"
	"net/http"

	"repro/internal/api"
)

// ServeMetrics answers GET /v2/metrics with m: the JSON schema, or
// Prometheus text with ?format=prometheus. The broker and the
// standalone result plane both answer through it, so scrapers see one
// shape and one Content-Type from either daemon.
func ServeMetrics(w http.ResponseWriter, r *http.Request, m api.BrokerMetrics) {
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		writePrometheus(w, m)
		return
	}
	Reply(w, m)
}

// writePrometheus renders broker metrics in the Prometheus text
// exposition format (version 0.0.4): the JSON schema's gauges and
// counters as dramlocker_broker_* series, tenants as labelled series.
// ServeMetrics renders it for the broker and the standalone result
// plane alike. Hand-rolled on purpose — the format is lines of
// "name{labels} value" and a client dependency would be the only
// third-party import in the repo.
func writePrometheus(w io.Writer, m api.BrokerMetrics) {
	g := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	c := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	g("dramlocker_broker_pending_tasks", "Tasks queued waiting for a poller.", int64(m.Pending))
	g("dramlocker_broker_leased_tasks", "Tasks out on an active lease.", int64(m.Leased))
	g("dramlocker_broker_workers", "Live worker registrations.", int64(m.Workers))
	g("dramlocker_broker_jobs", "Retained jobs (queued, running, recently done).", int64(m.Jobs))
	c("dramlocker_broker_tasks_submitted_total", "Tasks submitted over the broker's lifetime.", int64(m.Submitted))
	c("dramlocker_broker_tasks_completed_total", "Tasks completed (including deterministic failures).", int64(m.Completed))
	c("dramlocker_broker_tasks_failed_total", "Completed tasks that carried a task error.", int64(m.Failed))
	c("dramlocker_broker_requeues_total", "Lease expiries that returned a task to the queue.", int64(m.Requeues))
	c("dramlocker_broker_duplicate_results_total", "Results that arrived after the task was already done.", int64(m.Duplicates))
	c("dramlocker_broker_duplicate_cache_hits_total", "Duplicate results byte-identical to the recorded winner.", int64(m.DupCacheHits))
	c("dramlocker_broker_rate_limited_jobs_total", "Job submissions deferred by the per-tenant token bucket (rate_limited).", int64(m.RateLimited))
	c("dramlocker_broker_plane_hits_total", "Tasks completed straight from the result plane at submit time (no lease granted).", int64(m.PlaneHits))
	g("dramlocker_broker_goroutines", "Goroutines in the broker process (leak canary for chaos soaks).", int64(m.Goroutines))
	if m.Role != "" {
		// The role gauge is labelled one-hot (value 1 on the current
		// role) so dashboards can plot takeovers as a step function.
		fmt.Fprintf(w, "# HELP dramlocker_broker_role Current HA role (1 on the active label).\n# TYPE dramlocker_broker_role gauge\n")
		for _, role := range []string{"primary", "follower", "fenced"} {
			v := 0
			if role == m.Role {
				v = 1
			}
			fmt.Fprintf(w, "dramlocker_broker_role{role=%q} %d\n", role, v)
		}
		g("dramlocker_broker_epoch", "Fencing epoch (bumps on every promotion).", m.Epoch)
	}
	if rm := m.Replication; rm != nil {
		g("dramlocker_broker_replication_lag_bytes", "Bytes behind the primary's fsynced watermark (-1 across a segment boundary).", rm.LagBytes)
		g("dramlocker_broker_replication_segments_behind", "Whole journal segments between the follower cursor and the primary.", int64(rm.SegmentsBehind))
		c("dramlocker_broker_replication_applied_total", "Replicated journal entries applied.", int64(rm.Applied))
		c("dramlocker_broker_replication_duplicates_total", "Replicated entries already reflected in follower state.", int64(rm.Duplicates))
		c("dramlocker_broker_replication_skipped_total", "Replicated entries dropped as undecodable or unusable.", int64(rm.Skipped))
		c("dramlocker_broker_replication_batches_total", "Replication batches applied.", int64(rm.Batches))
		c("dramlocker_broker_replication_restarts_total", "Stream restarts after the primary compacted past the cursor.", int64(rm.Restarts))
		g("dramlocker_broker_replication_last_contact_seconds", "Time since the last successful replication poll.", rm.LastContactAgeNS/1e9)
	}
	if pm := m.Plane; pm != nil {
		c("dramlocker_plane_hits_total", "Result-plane GET hits.", pm.Hits)
		c("dramlocker_plane_misses_total", "Result-plane GET misses.", pm.Misses)
		c("dramlocker_plane_puts_total", "First-time result-plane stores.", pm.Puts)
		c("dramlocker_plane_dup_puts_total", "Equivalent duplicate PUTs (original bytes kept).", pm.DupPuts)
		c("dramlocker_plane_conflicts_total", "Differing PUTs under an existing key (last write wins).", pm.Conflicts)
		c("dramlocker_plane_claims_granted_total", "Single-flight claims granted (caller computes).", pm.ClaimsGranted)
		c("dramlocker_plane_claims_denied_total", "Single-flight claims denied (computation deduplicated).", pm.ClaimsDenied)
		c("dramlocker_plane_wait_hits_total", "Long-poll GETs answered by a PUT arriving mid-wait.", pm.WaitHits)
		g("dramlocker_plane_entries", "Entries currently stored in the result plane.", pm.Entries)
		g("dramlocker_plane_bytes_stored", "Bytes currently stored in the result plane.", pm.BytesStored)
	}
	if jm := m.Journal; jm != nil {
		c("dramlocker_broker_journal_appends_total", "Journal entries appended.", int64(jm.Appends))
		c("dramlocker_broker_journal_fsyncs_total", "Journal fsyncs (durable submit/done/cancel barriers).", int64(jm.Fsyncs))
		c("dramlocker_broker_journal_replayed_jobs", "Jobs restored by the startup journal replay.", int64(jm.ReplayedJobs))
		c("dramlocker_broker_journal_replayed_tasks", "Tasks restored by the startup journal replay.", int64(jm.ReplayedTasks))
		c("dramlocker_broker_journal_requeued_tasks", "Replayed tasks that were leased-but-unfinished and requeued.", int64(jm.Requeued))
		c("dramlocker_broker_journal_skipped_entries", "Corrupt or stale journal lines dropped during replay.", int64(jm.Skipped))
		c("dramlocker_broker_journal_compactions_total", "Journal compactions (startup replay and background folds).", int64(jm.Compactions))
		c("dramlocker_broker_journal_rotations_total", "Active-segment rotations (-journal-max-bytes crossings).", int64(jm.Rotations))
		g("dramlocker_broker_journal_segments", "Journal segments on disk (sealed + claimed + active).", int64(jm.Segments))
		g("dramlocker_broker_journal_active_bytes", "Bytes in the journal's active segment.", jm.ActiveBytes)
		c("dramlocker_broker_journal_stream_reads_total", "Replication stream reads served.", int64(jm.StreamReads))
		c("dramlocker_broker_journal_stream_bytes_total", "Bytes served to replication followers.", jm.StreamBytes)
	}
	if len(m.Tenants) > 0 {
		fmt.Fprintf(w, "# HELP dramlocker_tenant_pending_tasks Tasks pending per tenant.\n# TYPE dramlocker_tenant_pending_tasks gauge\n")
		for _, t := range m.Tenants {
			fmt.Fprintf(w, "dramlocker_tenant_pending_tasks{tenant=%q} %d\n", t.Tenant, t.Pending)
		}
		fmt.Fprintf(w, "# HELP dramlocker_tenant_oldest_age_seconds Age of the oldest pending task per tenant.\n# TYPE dramlocker_tenant_oldest_age_seconds gauge\n")
		for _, t := range m.Tenants {
			fmt.Fprintf(w, "dramlocker_tenant_oldest_age_seconds{tenant=%q} %g\n", t.Tenant, float64(t.OldestAgeNS)/1e9)
		}
		fmt.Fprintf(w, "# HELP dramlocker_tenant_served_total Tasks dispatched per tenant (the fairness key).\n# TYPE dramlocker_tenant_served_total counter\n")
		for _, t := range m.Tenants {
			fmt.Fprintf(w, "dramlocker_tenant_served_total{tenant=%q} %d\n", t.Tenant, t.Served)
		}
	}
	if len(m.Leases) > 0 {
		fmt.Fprintf(w, "# HELP dramlocker_lease_age_seconds Age of each active lease.\n# TYPE dramlocker_lease_age_seconds gauge\n")
		for _, l := range m.Leases {
			fmt.Fprintf(w, "dramlocker_lease_age_seconds{lease=%q,worker=%q,task=%q} %g\n", l.Lease, l.Worker, l.Task, float64(l.AgeNS)/1e9)
		}
		fmt.Fprintf(w, "# HELP dramlocker_lease_progress_age_seconds Time since each active lease's last progress heartbeat (stuck-task signal).\n# TYPE dramlocker_lease_progress_age_seconds gauge\n")
		for _, l := range m.Leases {
			fmt.Fprintf(w, "dramlocker_lease_progress_age_seconds{lease=%q,worker=%q,task=%q} %g\n", l.Lease, l.Worker, l.Task, float64(l.ProgressAgeNS)/1e9)
		}
	}
}
