package api

// Progress and fleet-view messages. A task's heartbeats (today: victim
// training reporting each epoch) reach a pull worker's executor; the
// worker piggybacks the latest one per lease on the lease renewals it
// already sends, and the broker aggregates them into the /v2/fleet
// snapshot that `dramlocker -fleet` renders.

// TaskProgress is one progress heartbeat for a running task.
type TaskProgress struct {
	// Job and Shard identify the task.
	Job   string `json:"job"`
	Shard int    `json:"shard"`
	// Stage names what the task is doing ("train", "search", or the
	// generic "running" heartbeat).
	Stage string `json:"stage,omitempty"`
	// Done/Total report stage progress (epochs, iterations, grid
	// points); Total 0 means unknown.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// ElapsedNS is time since the task started on the worker.
	ElapsedNS int64 `json:"elapsed_ns,omitempty"`
}

// FleetStatus is the broker's live per-worker view (GET /v2/fleet).
type FleetStatus struct {
	// Proto must equal Version.
	Proto string `json:"proto"`
	// Workers lists every registered worker, stable-sorted by name.
	Workers []FleetWorker `json:"workers"`
}

// FleetWorker is one worker's slice of the fleet view.
type FleetWorker struct {
	// ID is the broker-assigned worker id; Name the advertised one.
	ID   string `json:"id"`
	Name string `json:"name"`
	// Capacity is the worker's concurrent task limit.
	Capacity int `json:"capacity"`
	// Draining reports the worker announced shutdown.
	Draining bool `json:"draining,omitempty"`
	// LastSeenAgeNS is time since the worker's last poll/renew/done.
	LastSeenAgeNS int64 `json:"last_seen_age_ns"`
	// Leases lists the worker's active leases, oldest first.
	Leases []FleetLease `json:"leases,omitempty"`
}

// FleetLease is one active lease in the fleet view.
type FleetLease struct {
	// ID is the lease id.
	ID string `json:"id"`
	// Job/Shard identify the leased task; Tenant its fairness bucket.
	Job    string `json:"job"`
	Shard  int    `json:"shard"`
	Tenant string `json:"tenant,omitempty"`
	// AgeNS is time since the lease was granted.
	AgeNS int64 `json:"age_ns"`
	// Progress is the worker's latest reported heartbeat, if any.
	Progress *TaskProgress `json:"progress,omitempty"`
	// ProgressAgeNS is time since that heartbeat arrived (equals AgeNS
	// when the worker has not reported progress yet). A large value on
	// a live lease is the "stuck task" signal.
	ProgressAgeNS int64 `json:"progress_age_ns"`
}
