package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/api"
)

// Executor runs one task — a single shard of a job — and is the seam
// between the scheduler and a transport. Implementations must be safe
// for concurrent use: the scheduler dispatches up to Options.Workers
// tasks at once.
//
// The two error channels are distinct on purpose. A non-nil Go error
// means the execution attempt itself failed (unknown job, protocol or
// cache-key mismatch, network failure) — the task may be retried
// elsewhere. A populated TaskResult.Err means the task ran and failed
// deterministically (job error or panic); retrying would reproduce it, so
// the scheduler records it as the job's outcome.
type Executor interface {
	Execute(ctx context.Context, spec api.TaskSpec) (api.TaskResult, error)
}

// ProgressFunc receives progress heartbeats while a task runs.
// Implementations are called from the task's goroutine and must be
// cheap; heartbeats are advisory and may be dropped.
type ProgressFunc func(api.TaskProgress)

// StreamExecutor is an Executor that can additionally report progress
// while a task runs. The pull worker probes for it with a type
// assertion and piggybacks the heartbeats on its lease renewals, which
// the broker serves as the /v2/fleet view; plain Executors keep working
// unchanged. The heartbeats come from jobs that report through
// ProgressFromContext (victim training, once per epoch).
type StreamExecutor interface {
	Executor
	ExecuteStream(ctx context.Context, spec api.TaskSpec, onProgress ProgressFunc) (api.TaskResult, error)
}

// LocalExecutor resolves tasks against an in-process Registry and runs
// them on the calling goroutine. It is the default executor of Run and
// the execution core the remote worker daemon wraps.
type LocalExecutor struct {
	reg *Registry
	// name stamps TaskResult.Worker (diagnostics); empty means local.
	name string
}

// NewLocalExecutor returns an executor over reg.
func NewLocalExecutor(reg *Registry) *LocalExecutor {
	return &LocalExecutor{reg: reg}
}

// NewNamedLocalExecutor returns an executor over reg that stamps results
// with the worker name (the daemon uses its hostname).
func NewNamedLocalExecutor(reg *Registry, name string) *LocalExecutor {
	return &LocalExecutor{reg: reg, name: name}
}

// Execute resolves spec against the registry and runs the named shard.
// Panics inside the shard surface as TaskResult.Err; resolution
// failures — unknown job, shard out of range, protocol or cache-key
// mismatch — surface as typed *api.Error values so a scheduler (or the
// worker daemon wrapping this executor) can tell "this worker cannot
// run the task" from "the task failed", and key retry policy off
// api.Error.Retryable.
func (e *LocalExecutor) Execute(ctx context.Context, spec api.TaskSpec) (api.TaskResult, error) {
	return e.ExecuteStream(ctx, spec, nil)
}

// progressInterval floors the gap between forwarded heartbeats so a
// tight training loop reporting every iteration does not flood the
// listener. Terminal heartbeats (done == total) always pass.
const progressInterval = 100 * time.Millisecond

// ExecuteStream is Execute with progress: heartbeats the job emits
// through ProgressFromContext on the context it runs under are
// throttled and forwarded to onProgress (nil disables forwarding,
// making this identical to Execute).
func (e *LocalExecutor) ExecuteStream(ctx context.Context, spec api.TaskSpec, onProgress ProgressFunc) (api.TaskResult, error) {
	if err := spec.Validate(); err != nil {
		return api.TaskResult{}, err
	}
	j, ok := e.reg.Get(spec.Job)
	if !ok {
		return api.TaskResult{}, api.Errf(api.CodeUnknownJob, "unknown job %q (executor registry out of sync with scheduler?)", spec.Job)
	}
	if spec.Key != j.Key {
		return api.TaskResult{}, api.Errf(api.CodeKeyMismatch, "job %q cache-key mismatch: scheduler sent %q, this registry derived %q (different preset knobs or code version)",
			spec.Job, spec.Key, j.Key)
	}
	if spec.Shard >= len(j.Shards) {
		return api.TaskResult{}, api.Errf(api.CodeBadRequest, "job %q has %d shards, task wants shard %d", spec.Job, len(j.Shards), spec.Shard)
	}
	run := j.Shards[spec.Shard].Run
	if err := ctx.Err(); err != nil {
		return api.TaskResult{}, err
	}

	res := api.TaskResult{Proto: api.Version, Job: spec.Job, Shard: spec.Shard, Key: j.Key, Worker: e.name}
	start := time.Now()
	jobCtx := ctx
	if onProgress != nil {
		var mu sync.Mutex
		var last time.Time
		jobCtx = WithProgress(ctx, func(stage string, done, total int) {
			now := time.Now()
			mu.Lock()
			if now.Sub(last) < progressInterval && !(total > 0 && done >= total) {
				mu.Unlock()
				return
			}
			last = now
			mu.Unlock()
			onProgress(api.TaskProgress{
				Job: spec.Job, Shard: spec.Shard, Stage: stage,
				Done: done, Total: total, ElapsedNS: time.Since(start).Nanoseconds(),
			})
		})
	}
	out, err := runProtected(func() (Output, error) { return run(jobCtx) })
	res.DurationNS = time.Since(start).Nanoseconds()
	if err != nil {
		res.Err = err.Error()
		return res, nil
	}
	res.Text = out.Text
	res.Data, err = marshalPayload(out.Data)
	if err != nil {
		res.Err = err.Error()
		res.Text, res.Data = "", nil
	}
	return res, nil
}

// CachingExecutor wraps an executor with a Cache consulted under the
// task's fully seeded CacheKey — the worker-side cache stack. With a
// disk-backed Cache carrying a remote tier this gives a daemon the full
// plane → local disk → compute lookup order, single-flighted both
// in-process and fleet-wide, with computed results written through to
// every tier. Tasks without a CacheKey pass straight through.
type CachingExecutor struct {
	// Exec runs tasks that miss; Cache is the stack (never nil).
	Exec  Executor
	Cache *Cache
}

// Execute implements Executor with the cache consulted first.
func (e *CachingExecutor) Execute(ctx context.Context, spec api.TaskSpec) (api.TaskResult, error) {
	return e.ExecuteStream(ctx, spec, nil)
}

// ExecuteStream implements StreamExecutor; replays report no progress.
func (e *CachingExecutor) ExecuteStream(ctx context.Context, spec api.TaskSpec, onProgress ProgressFunc) (api.TaskResult, error) {
	key := spec.CacheKey
	if key == "" || e.Cache == nil {
		return e.dispatch(ctx, spec, onProgress)
	}
	// The seeded key must extend the stem the registry check vouches
	// for; otherwise a confused scheduler could poison the shared cache
	// under a key this worker's code never derived.
	if spec.Key == "" || !strings.HasPrefix(key, spec.Key) {
		return api.TaskResult{}, api.Errf(api.CodeKeyMismatch,
			"task %q cache key %q does not extend stem %q", spec.Job, key, spec.Key)
	}
	if r, hit := e.Cache.begin(ctx, key); hit {
		return replayedTaskResult(spec, r)
	}
	tr, err := e.dispatch(ctx, spec, onProgress)
	if err != nil || tr.Err != "" {
		// Release single-flight waiters without caching the failure.
		msg := tr.Err
		if err != nil {
			msg = err.Error()
		}
		e.Cache.finish(key, Result{Err: msg})
		return tr, err
	}
	// The unit name carries the shard index: the wrapper is
	// registry-agnostic, and replays re-stamp names anyway.
	e.Cache.finish(key, Result{
		Name: fmt.Sprintf("%s/#%d", spec.Job, spec.Shard), Seed: spec.Seed,
		Text: tr.Text, Data: tr.Data, Duration: time.Duration(tr.DurationNS),
	})
	return tr, nil
}

func (e *CachingExecutor) dispatch(ctx context.Context, spec api.TaskSpec, onProgress ProgressFunc) (api.TaskResult, error) {
	if se, ok := e.Exec.(StreamExecutor); ok && onProgress != nil {
		return se.ExecuteStream(ctx, spec, onProgress)
	}
	return e.Exec.Execute(ctx, spec)
}

// replayedTaskResult renders a cached result as the task's reply.
func replayedTaskResult(spec api.TaskSpec, r Result) (api.TaskResult, error) {
	tr := api.TaskResult{
		Proto: api.Version, Job: spec.Job, Shard: spec.Shard, Key: spec.Key,
		Text: r.Text, Err: r.Err, DurationNS: r.Duration.Nanoseconds(), Worker: "cache",
	}
	data, err := marshalPayload(r.Data)
	if err != nil {
		return api.TaskResult{}, err
	}
	tr.Data = data
	return tr, nil
}

// marshalPayload normalises a job's Data into raw JSON, the one form
// the wire, the report, the persisted cache and DecodeData use.
// Already-raw payloads (cache replays) pass through unchanged, so byte
// identity is preserved end to end.
func marshalPayload(v any) (json.RawMessage, error) {
	switch d := v.(type) {
	case nil:
		return nil, nil
	case json.RawMessage:
		return d, nil
	case []byte:
		return json.RawMessage(d), nil
	default:
		b, err := json.Marshal(v)
		if err != nil {
			return nil, fmt.Errorf("engine: task data not JSON-marshalable: %w", err)
		}
		return b, nil
	}
}

// executeTask dispatches one task through exec, folding every failure
// mode — prior cancellation, executor panic, transport error, task error
// — into the (Output, error-string, duration) shape the scheduler records.
func executeTask(ctx context.Context, exec Executor, spec api.TaskSpec) (Output, string, time.Duration) {
	if err := ctx.Err(); err != nil {
		return Output{}, err.Error(), 0
	}
	start := time.Now()
	tr, err := protectedExecute(ctx, exec, spec)
	if err != nil {
		return Output{}, err.Error(), time.Since(start)
	}
	d := time.Duration(tr.DurationNS)
	if d <= 0 {
		d = time.Since(start)
	}
	if tr.Err != "" {
		return Output{}, tr.Err, d
	}
	out := Output{Text: tr.Text}
	if len(tr.Data) > 0 {
		out.Data = tr.Data
	}
	return out, "", d
}

// protectedExecute guards the scheduler against a panicking Executor
// implementation (job panics are already converted by LocalExecutor; this
// covers the executor itself).
func protectedExecute(ctx context.Context, exec Executor, spec api.TaskSpec) (tr api.TaskResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			tr, err = api.TaskResult{}, fmt.Errorf("executor panic: %v", p)
		}
	}()
	return exec.Execute(ctx, spec)
}
