package engine

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/par"
)

// Options configures one Runner pass.
type Options struct {
	// Workers bounds pool size; <=0 means runtime.NumCPU().
	Workers int
	// Filter selects jobs by exact name or path.Match glob; empty runs
	// everything (see Registry.Select).
	Filter []string
	// BaseSeed salts every cache key and stamps each Result.Seed
	// (JobSeed); no job reads it.
	BaseSeed uint64
	// Cache, when non-nil, replays previously computed shards of jobs
	// with a non-empty Key and stores new successes. Use NewCache for a
	// process-local cache or OpenDiskCache for one persisted across
	// processes.
	Cache *Cache
	// OnDone, when non-nil, is invoked once per job as it finishes,
	// after its merge. Calls are serialised; the callback must not
	// invoke the Runner re-entrantly.
	OnDone func(Result)
	// Ctx cancels the pass: in-flight tasks observe it through the
	// context their Run receives (and remote dispatches abort their HTTP
	// calls), queued tasks fail fast with the cancellation error instead
	// of starting. Nil means context.Background() (never cancelled).
	Ctx context.Context
	// Executor runs the individual tasks. Nil means a LocalExecutor over
	// the registry — the in-process worker-pool behavior. Scheduling,
	// seeding, caching and merging stay in Run regardless, so reports are
	// byte-identical under any executor.
	Executor Executor
}

// Run executes the selected jobs from reg on a bounded worker pool and
// returns the Report. Every shard of every job is one schedulable unit,
// all interleaved on the same pool, with the last shard of a job to
// finish running the job's merge. Units start in descending Shard.Cost,
// ties in registration order. Each unit is dispatched through the
// Executor; job errors (including panics, which the executor converts)
// do not abort the pass — every selected job runs, and the failures
// surface in the Report and via Report.Err. The returned error is
// reserved for configuration problems (bad filter).
func Run(reg *Registry, opts Options) (*Report, error) {
	jobs, err := reg.Select(opts.Filter)
	if err != nil {
		return nil, err
	}
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	exec := opts.Executor
	if exec == nil {
		exec = NewLocalExecutor(reg)
	}

	rep := &Report{Results: make([]Result, len(jobs))}

	var doneMu sync.Mutex
	done := func(r Result) {
		if opts.OnDone == nil {
			return
		}
		doneMu.Lock()
		defer doneMu.Unlock()
		opts.OnDone(r)
	}

	// Expand the selection into schedulable units, one per shard.
	type unit struct {
		cost float64
		run  func()
	}
	var units []unit
	for i := range jobs {
		i := i
		j := jobs[i]
		st := newShardState(len(j.Shards))
		for si := range j.Shards {
			si := si
			units = append(units, unit{j.Shards[si].Cost, func() {
				if runShard(ctx, exec, j, si, st, opts) {
					rep.Results[i] = mergeShards(j, st, opts)
					done(rep.Results[i])
				}
			}})
		}
	}
	// Heaviest first, so the longest shard does not start last and
	// become the pass's tail.
	sort.SliceStable(units, func(a, b int) bool { return units[a].cost > units[b].cost })

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(units) {
		workers = len(units)
	}
	if workers < 1 {
		workers = 1
	}
	rep.Workers = workers

	start := time.Now()
	unitCh := make(chan func())
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range unitCh {
				// Each computing worker reserves one token from the
				// global worker budget (internal/par) while it runs a
				// unit. The tensor/nn kernels inside the job draw *extra*
				// tokens from the same budget, so job-level and
				// kernel-level parallelism together do not oversubscribe
				// NumCPU: with the pool saturated the kernels run
				// serially, and with few jobs in flight they pick up the
				// idle cores. The reservation is non-blocking — an
				// explicit Workers above the budget oversubscribes
				// exactly as requested, it just leaves nothing spare for
				// the kernels.
				got := par.TryAcquire(1)
				u()
				par.ReleaseN(got)
			}
		}()
	}
	for _, u := range units {
		unitCh <- u.run
	}
	close(unitCh)
	wg.Wait()

	rep.Wall = time.Since(start)
	return rep, nil
}

// seededKey folds the BaseSeed into a cache key so results computed under
// one seeding regime are never replayed under another. Empty keys stay
// empty (caching disabled).
func seededKey(key string, base uint64) string {
	if key == "" {
		return ""
	}
	return fmt.Sprintf("%s#%016x", key, base)
}
