// Package api defines the versioned JSON wire types of the executor
// protocol (dlexec2): the contract between the engine's scheduler and
// anything that can execute a task, in-process or across the network.
//
// The protocol has two halves. The direct half (this file) is the push
// transport: TaskSpec/TaskResult exchanged over one request, plus
// WorkerStatus introspection. The queue half (queue.go) is the broker
// service: JobSubmit/JobStatus on the submitting side and
// WorkerHello/PollRequest/Lease/LeaseRenew/TaskDone on the pulling
// side, for pull-based dispatch with dynamic worker membership.
// Failures travel as typed Errors (error.go): a stable code plus a
// Retryable flag, so clients decide retry/exclusion policy from the
// error itself instead of guessing from transport status codes.
//
// A task is one schedulable unit: a single shard of a job. Jobs carry Go
// closures that cannot cross a process boundary, so a TaskSpec never
// ships code: it names the job, the shard index, and the pre-derived
// seed, and the executing side re-resolves the closure from its own
// registry. Two safety rails make that sound:
//
//   - Proto stamps every message with Version; either side rejects a
//     message stamped with a different protocol revision, so a scheduler
//     and a worker built from incompatible code fail loudly instead of
//     exchanging misshapen payloads.
//   - Key carries the scheduler's cache key stem for the job
//     ("<experiment>@<preset hash>"). The worker refuses the task unless
//     its own registry derived the identical key, and echoes it back in
//     the TaskResult for the client to double-check — a worker built from
//     different preset knobs or experiment code can never poison the
//     scheduler's result cache.
//
// The package has no dependencies beyond encoding/json so every layer
// (engine, remote transport, daemons, tests) can share it.
package api

import (
	"encoding/json"
)

// Version identifies the executor protocol revision. Bump it whenever a
// wire type changes shape or meaning; mismatched peers reject each other.
//
// dlexec2 added the queue service (broker, leases, dynamic membership),
// the typed Error taxonomy, and the Draining/Role status fields.
const Version = "dlexec2"

// TaskSpec describes one task for an executor: one shard of a job. A
// job that does not split has one shard, index 0.
type TaskSpec struct {
	// Proto must equal Version.
	Proto string `json:"proto"`
	// Job is the fully qualified job name, e.g. "tiny/fig8a".
	Job string `json:"job"`
	// Shard is the shard index within the job.
	Shard int `json:"shard"`
	// Seed is the unit's result seed, derived by the scheduler from its
	// base seed and the unit name. No job reads it: a caching executor
	// stamps it on the result it stores, as the scheduler does, so a
	// result's seed is the same no matter where the task ran.
	Seed uint64 `json:"seed"`
	// Key is the scheduler's cache key stem for the job (Job.Key,
	// typically "<experiment>@<preset hash>"). The executing side must
	// verify its registry derived the same key before running.
	Key string `json:"key,omitempty"`
	// CacheKey is the fully seeded cache key this task's result is
	// stored under ("<stem>/<shard name>#<base seed>"). Optional: when
	// set, a cache-aware broker can answer the task from the result
	// plane without granting a lease, and a plane-attached worker can
	// check/populate the shared cache. It must extend Key — executors
	// refuse a CacheKey whose stem their registry did not derive.
	CacheKey string `json:"cache_key,omitempty"`
}

// Validate checks the spec is well-formed and speaks this protocol
// revision.
func (s TaskSpec) Validate() error {
	if err := CheckProto(s.Proto); err != nil {
		return err
	}
	if s.Job == "" {
		return Errf(CodeBadRequest, "task spec names no job")
	}
	if s.Shard < 0 {
		return Errf(CodeBadRequest, "task %q has invalid shard index %d", s.Job, s.Shard)
	}
	return nil
}

// TaskResult is the outcome of executing one TaskSpec. A populated Err
// means the task itself failed (deterministically — retrying elsewhere
// would fail the same way); transport-level failures are reported out of
// band as Go errors and are retryable.
type TaskResult struct {
	// Proto must equal Version.
	Proto string `json:"proto"`
	// Job and Shard echo the spec.
	Job   string `json:"job"`
	Shard int    `json:"shard"`
	// Text is the task's human-readable rendering.
	Text string `json:"text,omitempty"`
	// Data is the structured payload, already marshalled. Keeping it raw
	// preserves the producer's exact bytes, so reports assembled from
	// local, remote and cache-replayed payloads render identically.
	Data json.RawMessage `json:"data,omitempty"`
	// Err is the task's own failure, empty on success.
	Err string `json:"error,omitempty"`
	// DurationNS is the compute time on the executing side, excluding
	// transport.
	DurationNS int64 `json:"duration_ns"`
	// Key echoes the executing side's cache key stem for the job; the
	// client verifies it matches what it sent.
	Key string `json:"key,omitempty"`
	// Worker names the executing worker (diagnostics only; never part of
	// cached state).
	Worker string `json:"worker,omitempty"`
}

// Validate checks the result is well-formed, speaks this protocol
// revision, and answers the given spec.
func (r TaskResult) Validate(spec TaskSpec) error {
	if err := CheckProto(r.Proto); err != nil {
		return err
	}
	if r.Job != spec.Job || r.Shard != spec.Shard {
		return Errf(CodeBadRequest, "result for task %s[%d] answers %s[%d]",
			spec.Job, spec.Shard, r.Job, r.Shard)
	}
	if r.Key != spec.Key {
		return Errf(CodeKeyMismatch, "task %q cache-key echo mismatch: sent %q, worker has %q (worker built from different presets or code?)",
			spec.Job, spec.Key, r.Key)
	}
	return nil
}

// WorkerStatus describes one daemon (the /v1/status payload). Proto and
// Draining let operators and schedulers see, before dispatching or
// registering anything, whether the daemon is compatible and accepting
// work — a mixed-fleet upgrade fails at dial/registration, not
// mid-lease.
type WorkerStatus struct {
	// Proto must equal Version.
	Proto string `json:"proto"`
	// Name identifies the worker (hostname by default).
	Name string `json:"name"`
	// Role is what the daemon does: "worker" (executes tasks, push or
	// pull) or "broker" (queues and dispatches them).
	Role string `json:"role,omitempty"`
	// Draining reports the daemon is shutting down: it finishes in-flight
	// work but refuses new tasks and registrations.
	Draining bool `json:"draining,omitempty"`
	// Jobs counts the jobs resolvable from the worker's registry.
	Jobs int `json:"jobs"`
	// JobNames lists them (registration order) so operators can see what
	// the worker will accept.
	JobNames []string `json:"job_names,omitempty"`
	// Capacity is the worker's concurrent task limit.
	Capacity int `json:"capacity"`
	// Inflight counts tasks currently executing.
	Inflight int `json:"inflight"`
	// Completed counts tasks finished since the daemon started.
	Completed uint64 `json:"completed"`
}

// CheckProto verifies a message's protocol stamp.
func CheckProto(proto string) error {
	if proto != Version {
		return Errf(CodeProtoMismatch, "protocol version mismatch: got %q, want %q", proto, Version)
	}
	return nil
}
