package api

// Broker metrics: the GET /v2/metrics read side. One schema serves
// every consumer — the broker renders it as JSON (and derives the
// Prometheus text exposition from the same struct), `dramlocker
// -broker -stats` pretty-prints it, and the e2e crash-recovery gate
// scrapes it to decide when to SIGKILL the broker.

// BrokerMetrics is a point-in-time census of a broker plus its
// lifetime counters, journal state and per-tenant gauges.
type BrokerMetrics struct {
	// Proto must equal Version.
	Proto string `json:"proto"`

	// Gauges: current queue census.
	Pending int `json:"pending"`
	Leased  int `json:"leased"`
	Workers int `json:"workers"`
	Jobs    int `json:"jobs"`

	// Counters over the broker's lifetime (a journal-backed broker
	// restores Submitted/Completed/Failed across restarts on replay).
	Submitted    int `json:"submitted"`
	Completed    int `json:"completed"`
	Failed       int `json:"failed"`
	Requeues     int `json:"requeues"`
	Duplicates   int `json:"duplicates"`
	DupCacheHits int `json:"dup_cache_hits"`
	// RateLimited counts job submissions refused by the token-bucket
	// rate limiter (rate_limited; the client retries after Retry-After).
	RateLimited int `json:"rate_limited"`
	// PlaneHits counts tasks the broker completed straight from the
	// result plane at submit time — no lease was ever granted.
	PlaneHits int `json:"plane_hits"`

	// Goroutines is the broker process's current goroutine count; the
	// chaos gate compares it before and after a soak to catch leaks.
	Goroutines int `json:"goroutines"`

	// Role is the broker's replication role: "primary" accepts
	// mutations, "follower" replays a primary's journal and answers
	// reads only, "fenced" is an ex-primary refusing everything but
	// reads after a takeover.
	Role string `json:"role,omitempty"`
	// Epoch is the fencing epoch the broker last stamped into (or
	// adopted from) its journal; mutations under an older epoch are
	// refused after a takeover.
	Epoch int64 `json:"epoch,omitempty"`
	// Replication is present on brokers that follow (or followed) a
	// primary: the replay cursor and lag against the primary's durable
	// watermark.
	Replication *ReplicationMetrics `json:"replication,omitempty"`

	// Journal is present only when the broker runs with a journal.
	Journal *JournalMetrics `json:"journal,omitempty"`
	// Plane is present only when a result plane is co-hosted with the
	// broker (its counters; a standalone plane serves the same shape
	// from its own /v2/metrics).
	Plane *PlaneMetrics `json:"plane,omitempty"`
	// Tenants lists every tenant the broker has seen, sorted by name.
	Tenants []TenantMetrics `json:"tenants,omitempty"`
	// Leases lists every active lease with its progress age, oldest
	// lease first — the scrape-side "stuck task" signal.
	Leases []LeaseMetrics `json:"leases,omitempty"`
}

// LeaseMetrics is one active lease's age gauges.
type LeaseMetrics struct {
	// Lease is the lease id; Worker the holder's advertised name; Task
	// the "<job>[<shard>]" it covers.
	Lease  string `json:"lease"`
	Worker string `json:"worker"`
	Task   string `json:"task"`
	// AgeNS is time since the grant; ProgressAgeNS time since the
	// worker's latest progress heartbeat (equals AgeNS before the
	// first heartbeat).
	AgeNS         int64 `json:"age_ns"`
	ProgressAgeNS int64 `json:"progress_age_ns"`
}

// JournalMetrics counts journal activity: write-side totals since the
// broker started, and what the startup replay found.
type JournalMetrics struct {
	// Appends / Fsyncs count journal writes and the subset followed by
	// an fsync (submissions, completions and cancels sync; lease grants
	// don't — losing one only costs a redundant re-execution).
	Appends int `json:"appends"`
	Fsyncs  int `json:"fsyncs"`
	// ReplayedJobs / ReplayedTasks count what startup replay restored.
	ReplayedJobs  int `json:"replayed_jobs"`
	ReplayedTasks int `json:"replayed_tasks"`
	// Requeued counts replayed tasks that were leased-but-unfinished at
	// crash time and went back to pending.
	Requeued int `json:"requeued"`
	// Skipped counts corrupt or stale journal lines dropped during
	// replay (corruption degrades to skip-with-warning, like the disk
	// result cache).
	Skipped int `json:"skipped"`
	// Compactions counts journal rewrites: one after each successful
	// replay, plus every background fold of sealed segments.
	Compactions int `json:"compactions"`
	// Rotations counts live segment rollovers (active segment exceeded
	// its byte budget and a fresh one was opened).
	Rotations int `json:"rotations"`
	// Segments is the current on-disk segment count (sealed + active).
	Segments int `json:"segments"`
	// ActiveBytes is the size of the active (append) segment.
	ActiveBytes int64 `json:"active_bytes"`
	// StreamReads / StreamBytes count replication serves: chunks handed
	// to followers over /v2/replicate and the raw bytes they carried.
	StreamReads int   `json:"stream_reads,omitempty"`
	StreamBytes int64 `json:"stream_bytes,omitempty"`
}

// ReplicationMetrics is the follower-side view of journal streaming:
// where the replay cursor sits in the primary's journal, how far behind
// the primary's durable watermark it is, and what application did with
// the records seen so far.
type ReplicationMetrics struct {
	// Segment/Offset is the follower's resume cursor into the primary's
	// journal (the position after the last applied batch).
	Segment int   `json:"segment"`
	Offset  int64 `json:"offset"`
	// PrimarySegment/PrimaryOffset is the primary's durable watermark as
	// of the last replicate reply.
	PrimarySegment int   `json:"primary_segment"`
	PrimaryOffset  int64 `json:"primary_offset"`
	// LagBytes is watermark minus cursor when both sit in the same
	// segment, else -1 (whole segments behind; see SegmentsBehind).
	LagBytes int64 `json:"lag_bytes"`
	// SegmentsBehind counts primary segments the cursor has not reached.
	SegmentsBehind int `json:"segments_behind"`
	// Applied / Duplicates / Skipped classify replicated records:
	// applied to state, already present (idempotent re-delivery after a
	// resume or restart), or undecodable and dropped.
	Applied    int `json:"applied"`
	Duplicates int `json:"duplicates"`
	Skipped    int `json:"skipped"`
	// Batches counts replicate replies applied; Restarts counts cursor
	// resets forced by primary-side compaction.
	Batches  int `json:"batches"`
	Restarts int `json:"restarts"`
	// LastContactAgeNS is time since the last successful replicate
	// reply; the silence-timeout takeover triggers off the same signal.
	LastContactAgeNS int64 `json:"last_contact_age_ns,omitempty"`
}

// TenantMetrics is one tenant's queue gauges.
type TenantMetrics struct {
	Tenant string `json:"tenant"`
	// Served counts tasks dispatched to date, the fairness key.
	Served int `json:"served"`
	// Pending is the current queue depth.
	Pending int `json:"pending"`
	// OldestAgeNS is how long the oldest pending task has been queued
	// (0 when the queue is empty).
	OldestAgeNS int64 `json:"oldest_age_ns,omitempty"`
}
