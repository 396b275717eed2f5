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

// DecodeData extracts a shard payload into dst. A Merge function sees
// shard Data in one of two shapes: the live typed value a shard just
// produced (or replayed from the in-process cache), or json.RawMessage
// replayed from the persistent cache. Both are normalised through one
// JSON round-trip (marshalPayload), so a merge observes identical values
// either way and its output stays byte-identical between cold and warm
// runs.
func DecodeData(v any, dst any) error {
	raw, err := marshalPayload(v)
	if err != nil {
		return err
	}
	if raw == nil {
		return fmt.Errorf("engine: shard produced no data")
	}
	return json.Unmarshal(raw, dst)
}

// shardState accumulates one job's in-flight shard outcomes.
type shardState struct {
	mu      sync.Mutex
	pending int
	outs    []Output
	errs    []string
	durs    []time.Duration
	hits    int
}

func newShardState(n int) *shardState {
	return &shardState{
		pending: n,
		outs:    make([]Output, n),
		errs:    make([]string, n),
		durs:    make([]time.Duration, n),
	}
}

// record stores shard i's outcome and reports whether it was the last
// shard to finish (the caller then owns the merge).
func (st *shardState) record(i int, out Output, errStr string, d time.Duration, hit bool) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.outs[i], st.errs[i], st.durs[i] = out, errStr, d
	if hit {
		st.hits++
	}
	st.pending--
	return st.pending == 0
}

// runShard executes (or replays from cache) shard si of job j through the
// executor and records the outcome. The return value is true when this
// was the job's last outstanding shard. Shards are cached individually
// under "<job key>/<shard name>", so a job whose preset hash is unchanged
// recomputes only the shards missing from the cache.
func runShard(ctx context.Context, exec Executor, j Job, si int, st *shardState, opts Options) bool {
	sh := j.Shards[si]
	name := j.Name + "/" + sh.Name
	seed := JobSeed(opts.BaseSeed, name)
	var key string
	if j.Key != "" {
		key = seededKey(j.Key+"/"+sh.Name, opts.BaseSeed)
	}
	if cached, hit := opts.Cache.begin(ctx, key); hit {
		return st.record(si, Output{Text: cached.Text, Data: cached.Data}, "", cached.Duration, true)
	}

	spec := api.TaskSpec{Proto: api.Version, Job: j.Name, Shard: si, Seed: seed, Key: j.Key, CacheKey: key}
	out, errStr, d := executeTask(ctx, exec, spec)
	res := Result{Name: name, Seed: seed, Duration: d, Err: errStr}
	if errStr == "" {
		res.Text, res.Data = out.Text, out.Data
	}
	opts.Cache.finish(key, res)
	return st.record(si, out, res.Err, res.Duration, false)
}

// mergeShards assembles the completed shards of j into its single Result.
// Shard outputs are passed to Merge in shard order regardless of which
// worker finished when, so the merged result — and therefore the report —
// is identical at any worker count. The result counts as Cached when
// every shard was replayed (no new compute).
func mergeShards(j Job, st *shardState, opts Options) Result {
	res := Result{Name: j.Name, Title: j.Title, Seed: JobSeed(opts.BaseSeed, j.Name)}
	var total time.Duration
	for _, d := range st.durs {
		total += d
	}
	var errs []string
	for i, e := range st.errs {
		if e != "" {
			errs = append(errs, fmt.Sprintf("shard %s: %s", j.Shards[i].Name, e))
		}
	}
	if len(errs) > 0 {
		res.Err = strings.Join(errs, "; ")
		res.Duration = total
		return res
	}

	start := time.Now()
	out, err := runProtected(func() (Output, error) { return j.Merge(st.outs) })
	res.Duration = total + time.Since(start)
	if err != nil {
		res.Err = fmt.Sprintf("merge: %s", err)
		return res
	}
	res.Text, res.Data = out.Text, out.Data
	res.Cached = st.hits == len(j.Shards)
	return res
}

// runProtected calls a shard or merge function, converting a panic to
// an error.
func runProtected(run func() (Output, error)) (out Output, err error) {
	defer func() {
		if p := recover(); p != nil {
			out, err = Output{}, fmt.Errorf("panic: %v", p)
		}
	}()
	return run()
}
