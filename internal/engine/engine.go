// Package engine schedules the repository's experiments as named,
// independent jobs and dispatches them through a pluggable Executor.
//
// The harness in internal/experiments regenerates every table and figure
// of the paper; each (preset, experiment) pair is registered here as one
// Job. Every job has one shape: a list of shards plus a merge. Run
// schedules every shard of the selected jobs as one unit on a worker
// pool of up to runtime.NumCPU() workers, merges each job's shard
// outputs once its last shard finishes, captures per-job timing and
// errors, and collects everything into a Report that renders as text
// or JSON. Jobs must be independent: any subset may run in parallel,
// and no job may see another's writes. (The experiments layer shares
// trained weights between the jobs of one registration, but hands each
// job its own copy of the model it attacks.)
//
// Dispatch order: units start in descending Shard.Cost, ties in
// registration order, so the heaviest shard is not the last to start.
// Order affects only when a unit runs; seeds, cache keys, merges and
// reports never depend on it.
//
// Scheduling vs execution: Run owns selection, seeding, caching, shard
// fan-out and the deterministic merge; the Executor interface owns only
// the execution of one task (a single shard), addressed by the api wire
// types. LocalExecutor resolves tasks against an in-process Registry;
// internal/remote ships the same TaskSpecs to worker daemons over HTTP.
// Because ordering, merging and caching never leave the scheduler, the
// determinism guarantees below hold under any executor — local pool,
// remote fleet, or a mix via fallback.
//
// Determinism: a job's output must follow from its own closures (the
// experiments seed from their preset), never from worker count,
// scheduling order or the executor that ran it. The runner's BaseSeed
// reaches no job: it salts every cache key, so a result computed under
// one base seed never replays under another, and stamps each Result
// with JobSeed(BaseSeed, name). Results are reported in registration
// order, never in completion order.
//
// Caching: a Job may carry a Key (the experiments layer uses
// "<experiment>@<preset hash>"). When the Runner is given a Cache, each
// successful shard is memoised under "<key>/<shard name>" and replayed
// on the next run instead of recomputed; the merge runs again over the
// replayed outputs, so the cache holds one entry per unit.
//
// Worker budget: the pool shares the process-wide budget of internal/par
// with the tensor/nn compute kernels. A worker reserves one budget token
// per unit of work (non-blocking, so an explicit Workers count is always
// honoured), and the kernels inside a job claim only the remainder: a
// saturated pool runs serial kernels, while a lone job fans its GEMMs
// out across every idle core.
package engine

import (
	"context"
	"fmt"
	"hash/fnv"
	"path"
	"sync"
)

// progressKey keys the progress reporter in a context.Context.
type progressKey struct{}

// WithProgress returns a context carrying a progress reporter. The
// context is the only progress channel: the executor attaches the
// task's reporter to the context it runs the task under, so library
// code that only receives that context (e.g. a training loop behind
// several call layers) can heartbeat. A reporter is called on the job's
// goroutine with done of total units of the named stage complete (total
// 0 = unknown), so it must be cheap and non-blocking.
func WithProgress(ctx context.Context, f func(stage string, done, total int)) context.Context {
	if ctx == nil || f == nil {
		return ctx
	}
	return context.WithValue(ctx, progressKey{}, f)
}

// ProgressFromContext extracts the reporter installed by WithProgress,
// or nil when nobody is listening.
func ProgressFromContext(ctx context.Context) func(stage string, done, total int) {
	if ctx == nil {
		return nil
	}
	f, _ := ctx.Value(progressKey{}).(func(stage string, done, total int))
	return f
}

// Output is what a job produces: a human-readable rendering and an
// optional structured payload for the JSON report.
type Output struct {
	// Text is the paper-style table or curve data.
	Text string
	// Data is marshalled into the JSON report verbatim.
	Data any
}

// Job is one independent unit of the report: a list of shards, each
// scheduled as an independent unit on the worker pool, and a merge that
// runs once the last shard finishes and deterministically assembles the
// shard outputs — in shard order, never completion order — into the
// job's single Result, so reports are byte-identical at any worker count.
type Job struct {
	// Name is the unique identifier, conventionally "<preset>/<experiment>".
	Name string
	// Title is a one-line human description shown by listings.
	Title string
	// Key is the result-cache key stem; empty disables caching for this
	// job. The experiments layer keys by experiment id + preset hash so
	// a preset change invalidates the cached results. Each shard caches
	// under Key + "/" + shard name, so a partial re-run recomputes only
	// the missing shards.
	Key string
	// Shards split the job into independently scheduled slices (per
	// curve, per grid point; one for an experiment that does not
	// split). Every shard must be safe to run concurrently with every
	// other shard and job.
	Shards []Shard
	// Merge combines the shard outputs (indexed like Shards) into the
	// job's Output. It must be deterministic: shard Data may arrive as
	// the live typed value or as json.RawMessage replayed from the
	// persistent cache — decode it with DecodeData, which normalises
	// both.
	Merge func([]Output) (Output, error)
}

// Shard is one independent slice of a job.
type Shard struct {
	// Name suffixes the job name ("<job>/<shard>") in the unit's seed and
	// cache key; it must be unique within the job and stable across runs.
	Name string
	// Run computes the shard under the run's context (Options.Ctx),
	// which carries the task's progress reporter when someone listens
	// (ProgressFromContext); long shards poll its Err so Ctrl-C stops
	// them. Output.Data is the payload handed to the job's Merge; it
	// must be JSON-marshalable so it can persist.
	Run func(context.Context) (Output, error)
	// Cost is the shard's relative cost, which orders dispatch (see the
	// package comment). Zero for cheap shards.
	Cost float64
}

// Registry holds an ordered set of uniquely named jobs.
type Registry struct {
	mu     sync.Mutex
	jobs   []Job
	byName map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]int)}
}

// Register adds a job. Names must be unique, and a job needs at least
// one shard and a Merge.
func (r *Registry) Register(j Job) error {
	if j.Name == "" {
		return fmt.Errorf("engine: job has no name")
	}
	if len(j.Shards) == 0 {
		return fmt.Errorf("engine: job %q has no shards", j.Name)
	}
	if j.Merge == nil {
		return fmt.Errorf("engine: job %q has no Merge function", j.Name)
	}
	seen := make(map[string]bool, len(j.Shards))
	for _, s := range j.Shards {
		if s.Name == "" {
			return fmt.Errorf("engine: job %q has an unnamed shard", j.Name)
		}
		if s.Run == nil {
			return fmt.Errorf("engine: job %q shard %q has no Run function", j.Name, s.Name)
		}
		if seen[s.Name] {
			return fmt.Errorf("engine: job %q has duplicate shard %q", j.Name, s.Name)
		}
		seen[s.Name] = true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[j.Name]; dup {
		return fmt.Errorf("engine: duplicate job %q", j.Name)
	}
	r.byName[j.Name] = len(r.jobs)
	r.jobs = append(r.jobs, j)
	return nil
}

// Get returns the job registered under name, resolving a TaskSpec's job
// field to its closures (the LocalExecutor and the worker daemon both
// depend on this lookup).
func (r *Registry) Get(name string) (Job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.byName[name]
	if !ok {
		return Job{}, false
	}
	return r.jobs[i], true
}

// Jobs returns the registered jobs in registration order.
func (r *Registry) Jobs() []Job {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Job, len(r.jobs))
	copy(out, r.jobs)
	return out
}

// Names returns the registered job names in registration order.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, len(r.jobs))
	for i, j := range r.jobs {
		names[i] = j.Name
	}
	return names
}

// Len reports how many jobs are registered.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.jobs)
}

// Select returns the jobs matched by the filter patterns, in registration
// order. Each pattern is an exact name, a path.Match glob ("*/fig8*"), or
// the keyword "all". Empty patterns select everything. Unknown patterns —
// ones matching no job — are reported as an error so typos fail loudly.
func (r *Registry) Select(patterns []string) ([]Job, error) {
	jobs := r.Jobs()
	if len(patterns) == 0 {
		return jobs, nil
	}
	picked := make([]bool, len(jobs))
	for _, pat := range patterns {
		if pat == "" || pat == "all" {
			for i := range picked {
				picked[i] = true
			}
			continue
		}
		hit := false
		for i, j := range jobs {
			ok, err := path.Match(pat, j.Name)
			if err != nil {
				return nil, fmt.Errorf("engine: bad filter %q: %w", pat, err)
			}
			if ok || pat == j.Name {
				picked[i] = true
				hit = true
			}
		}
		if !hit {
			return nil, fmt.Errorf("engine: filter %q matches no job (have: %v)", pat, r.Names())
		}
	}
	var out []Job
	for i, j := range jobs {
		if picked[i] {
			out = append(out, j)
		}
	}
	return out, nil
}

// JobSeed derives the seed Run stamps on a unit's Result and TaskSpec
// from a base seed and the unit name (FNV-1a over both).
func JobSeed(base uint64, name string) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(base >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(name))
	return h.Sum64()
}
