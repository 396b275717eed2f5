package api

// Queue messages: the broker half of dlexec2. A scheduler submits jobs
// (task lists) to a broker; workers register, pull leases, and report
// results. All dispatch is pull-based — the broker never connects to a
// worker — so membership is dynamic: a worker exists exactly as long as
// it keeps polling, renewing its leases or reporting results.

// DefaultTenant is the fairness bucket of submissions that name none.
const DefaultTenant = "default"

// JobSubmit asks a broker to enqueue a job: an ordered list of tasks
// sharing a tenant (the fairness bucket) and a priority.
type JobSubmit struct {
	// Proto must equal Version.
	Proto string `json:"proto"`
	// Tenant is the fairness bucket; empty means DefaultTenant. The
	// broker shares dispatch capacity equally across tenants with
	// pending work, so one tenant's burst cannot starve the others.
	Tenant string `json:"tenant,omitempty"`
	// Priority orders tasks within a tenant: higher dispatches first;
	// ties dispatch in submission order. It never crosses tenant
	// boundaries — fairness outranks priority.
	Priority int `json:"priority,omitempty"`
	// Tasks are the units to execute, each a complete TaskSpec.
	Tasks []TaskSpec `json:"tasks"`
}

// Validate checks the submission and every task in it.
func (s JobSubmit) Validate() error {
	if err := CheckProto(s.Proto); err != nil {
		return err
	}
	if len(s.Tasks) == 0 {
		return Errf(CodeBadRequest, "job submits no tasks")
	}
	for i, t := range s.Tasks {
		if err := t.Validate(); err != nil {
			return Errf(CodeBadRequest, "task %d: %v", i, err)
		}
	}
	return nil
}

// JobSubmitBatch submits one or more jobs in one request, the broker's
// only submission message: a sharded run's submission wave is one POST.
// Jobs are admitted independently: each gets its own SubmitItem, so one
// tenant over its submission rate fails only its own jobs.
type JobSubmitBatch struct {
	// Proto must equal Version (each enclosed JobSubmit echoes it too).
	Proto string      `json:"proto"`
	Jobs  []JobSubmit `json:"jobs"`
}

// Validate checks the envelope and every enclosed submission.
func (bt JobSubmitBatch) Validate() error {
	if err := CheckProto(bt.Proto); err != nil {
		return err
	}
	if len(bt.Jobs) == 0 {
		return Errf(CodeBadRequest, "batch submits no jobs")
	}
	for i, s := range bt.Jobs {
		if err := s.Validate(); err != nil {
			return Errf(CodeBadRequest, "job %d: %v", i, err)
		}
	}
	return nil
}

// SubmitItem is one job's outcome inside a SubmitBatchReply: the
// assigned id, or that job's own typed error (e.g. rate_limited).
type SubmitItem struct {
	ID  string `json:"id,omitempty"`
	Err *Error `json:"error,omitempty"`
}

// SubmitBatchReply answers a JobSubmitBatch with per-job outcomes,
// indexed like the submitted Jobs.
type SubmitBatchReply struct {
	Proto string       `json:"proto"`
	Jobs  []SubmitItem `json:"jobs"`
}

// JobState is the lifecycle of a submitted job.
type JobState string

const (
	// JobQueued: no task has completed yet.
	JobQueued JobState = "queued"
	// JobRunning: some tasks completed or leased, not all.
	JobRunning JobState = "running"
	// JobDone: every task has a result (success or deterministic
	// failure); Results is populated.
	JobDone JobState = "done"
	// JobCanceled: the job was canceled; unfinished tasks never run.
	JobCanceled JobState = "canceled"
)

// JobStatus reports a job's progress (the submit/poll/cancel API's read
// side). Results is populated only once State is JobDone, indexed like
// the submitted Tasks.
type JobStatus struct {
	Proto    string       `json:"proto"`
	ID       string       `json:"id"`
	Tenant   string       `json:"tenant"`
	Priority int          `json:"priority,omitempty"`
	State    JobState     `json:"state"`
	Total    int          `json:"total"`
	Done     int          `json:"done"`
	Failed   int          `json:"failed"`
	Results  []TaskResult `json:"results,omitempty"`
}

// CancelRequest cancels a job: queued tasks are dropped, in-flight
// leases are allowed to finish but their results are discarded.
type CancelRequest struct {
	Proto string `json:"proto"`
	ID    string `json:"id"`
}

// WorkerHello registers a worker with a broker. Registration is where a
// mixed-fleet upgrade fails loudly: a worker built from a different
// protocol revision is rejected here, before it ever holds a lease.
type WorkerHello struct {
	// Proto must equal Version.
	Proto string `json:"proto"`
	// Name identifies the worker in logs and stats (hostname by default).
	Name string `json:"name"`
	// Capacity is the worker's concurrent task limit (advisory; the
	// worker enforces it by bounding how many leases it requests).
	Capacity int `json:"capacity"`
}

// Validate checks the registration.
func (h WorkerHello) Validate() error {
	if err := CheckProto(h.Proto); err != nil {
		return err
	}
	if h.Name == "" {
		return Errf(CodeBadRequest, "worker registers with no name")
	}
	return nil
}

// HelloReply assigns the worker its id and the broker's lease terms.
type HelloReply struct {
	Proto string `json:"proto"`
	// WorkerID is the broker-assigned membership handle; every
	// subsequent message carries it.
	WorkerID string `json:"worker_id"`
	// LeaseTTLNS is the lease duration: a worker must renew (or finish)
	// a lease within this window or the broker requeues the task.
	LeaseTTLNS int64 `json:"lease_ttl_ns"`
}

// DrainRequest announces a worker is shutting down: the broker stops
// offering it leases; in-flight leases finish normally.
type DrainRequest struct {
	Proto    string `json:"proto"`
	WorkerID string `json:"worker_id"`
}

// PollRequest asks the broker for up to Max leases. WaitNS > 0 turns
// the poll into a long poll: the broker holds the request until work
// arrives or the wait elapses, so an idle fleet costs one parked
// request per worker instead of a busy loop.
type PollRequest struct {
	Proto    string `json:"proto"`
	WorkerID string `json:"worker_id"`
	Max      int    `json:"max"`
	WaitNS   int64  `json:"wait_ns,omitempty"`
}

// Lease hands one task to one worker for a bounded time.
type Lease struct {
	// ID names the lease; TaskDone and LeaseRenew reference it.
	ID string `json:"id"`
	// Task is the unit to execute.
	Task TaskSpec `json:"task"`
	// DeadlineNS (unix nanos, broker clock) is when the lease expires
	// and the task requeues unless renewed or finished.
	DeadlineNS int64 `json:"deadline_ns"`
}

// PollReply carries the granted leases (possibly none).
type PollReply struct {
	Proto  string  `json:"proto"`
	Leases []Lease `json:"leases,omitempty"`
}

// LeaseRenew extends the named leases for another TTL. Long tasks renew
// periodically (TTL/3 is a sensible cadence) so only dead workers — not
// slow tasks — trip the expiry requeue.
type LeaseRenew struct {
	Proto    string   `json:"proto"`
	WorkerID string   `json:"worker_id"`
	LeaseIDs []string `json:"lease_ids"`
	// Progress, keyed by lease id, piggybacks the worker's latest
	// per-task heartbeat on the renewal it was already sending — live
	// progress costs zero extra requests. Optional; leases absent from
	// the map keep their previous progress.
	Progress map[string]*TaskProgress `json:"progress,omitempty"`
}

// RenewReply maps each still-active lease id to its new deadline. A
// lease missing from the map expired (its task may already be requeued
// or finished elsewhere); the worker should finish the work anyway —
// the broker accepts the first result from any holder.
type RenewReply struct {
	Proto     string           `json:"proto"`
	Deadlines map[string]int64 `json:"deadlines,omitempty"`
}

// TaskDone reports a lease's result.
type TaskDone struct {
	Proto    string     `json:"proto"`
	WorkerID string     `json:"worker_id"`
	LeaseID  string     `json:"lease_id"`
	Result   TaskResult `json:"result"`
}

// DoneReply acknowledges a TaskDone. First result wins: a result for an
// already-finished task is reported back as a duplicate, with CacheHit
// set when its bytes match the recorded winner — the determinism
// guarantee observable on the wire.
type DoneReply struct {
	Proto string `json:"proto"`
	// Accepted: this result was recorded as the task's outcome.
	Accepted bool `json:"accepted"`
	// Duplicate: the task already had a result (its lease expired and
	// another holder finished first).
	Duplicate bool `json:"duplicate,omitempty"`
	// CacheHit: the duplicate's bytes matched the recorded result —
	// the expected outcome for deterministic, cache-keyed tasks.
	CacheHit bool `json:"cache_hit,omitempty"`
}

// JobInfo is one row of a registry listing: the job's name, shard
// count and cache-key stem, as shown by `dramlocker -list` and consumed
// by broker tooling.
type JobInfo struct {
	Name  string `json:"name"`
	Title string `json:"title,omitempty"`
	// Units is the number of schedulable units (the job's shards) —
	// the fan-out a remote run will produce.
	Units int `json:"units"`
	// Key is the cache-key stem ("<experiment>@<preset hash>"); empty
	// means the job is uncacheable.
	Key string `json:"key,omitempty"`
}

// Listing is a full registry listing (`dramlocker -list -json`): the
// same schema whether rendered by the CLI, a worker daemon, or the
// broker UI.
type Listing struct {
	Proto string    `json:"proto"`
	Jobs  []JobInfo `json:"jobs"`
}

// LeaseNotFound is the broker's reply to a TaskDone or LeaseRenew
// referencing a lease it never granted (or swept long ago).
func LeaseNotFound(id string) *Error {
	return Errf(CodeNotFound, "unknown lease %q (expired and swept, or never granted)", id)
}

// WorkerNotFound is the broker's reply to messages from an expired or
// never-registered worker; the worker should re-register with a fresh
// WorkerHello.
func WorkerNotFound(id string) *Error {
	return Errf(CodeNotFound, "unknown worker %q (registration expired? re-register with a new hello)", id)
}

// JobNotFound is the broker's reply to status/cancel for an unknown id.
func JobNotFound(id string) *Error {
	return Errf(CodeNotFound, "unknown job id %q", id)
}
