package queue

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/api"
)

// fakePlane is an in-memory ResultPlane keyed by the task's CacheKey.
type fakePlane struct {
	m       map[string]api.CachedResult
	lookups int
}

func (p *fakePlane) Lookup(_ context.Context, key string) (api.CachedResult, bool) {
	p.lookups++
	cr, ok := p.m[key]
	return cr, ok
}

// cachedSpec is spec() plus the fully seeded cache key a scheduler
// would stamp (shard-distinct, like the engine's seededKey).
func cachedSpec(job string, shard int) api.TaskSpec {
	s := spec(job, shard)
	s.CacheKey = fmt.Sprintf("%s/shard%d/seed7", s.Key, shard)
	return s
}

func planeEntryFor(ts api.TaskSpec, text string) api.CachedResult {
	r := resultFor(ts, text)
	return api.CachedResult{Name: ts.Job, Text: r.Text, Data: r.Data, Seed: ts.Seed, DurationNS: 5}
}

// TestPlaneHitCompletesWithoutLease proves the tentpole acceptance
// property: a job whose every task is plane-resident finishes at
// submit with zero leases and zero workers.
func TestPlaneHitCompletesWithoutLease(t *testing.T) {
	s1, s2 := cachedSpec("mc", 0), cachedSpec("mc", 1)
	plane := &fakePlane{m: map[string]api.CachedResult{
		s1.CacheKey: planeEntryFor(s1, "row-0"),
		s2.CacheKey: planeEntryFor(s2, "row-1"),
	}}
	clk := newClock()
	b := newBroker(t, Config{Plane: plane}, clk)

	id := submit(t, b, "", 0, s1, s2)
	st, err := b.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.JobDone || st.Done != 2 {
		t.Fatalf("fully cached job: state=%s done=%d", st.State, st.Done)
	}
	for i, res := range st.Results {
		if res.Worker != "result-plane" {
			t.Fatalf("result %d worker %q, want result-plane", i, res.Worker)
		}
		if err := res.Validate(shardSpec(res, s1, s2)); err != nil {
			t.Fatalf("result %d invalid: %v", i, err)
		}
	}
	if st.Results[0].Text != "row-0" || st.Results[1].Text != "row-1" {
		t.Fatalf("result text %q / %q", st.Results[0].Text, st.Results[1].Text)
	}
	stats := b.Metrics()
	if stats.PlaneHits != 2 || stats.Pending != 0 || stats.Leased != 0 {
		t.Fatalf("stats after cached submit: %+v", stats)
	}
	// No worker ever registered; nothing to poll.
	w := hello(t, b, "late-worker")
	if leases := poll(t, b, w, 4); len(leases) != 0 {
		t.Fatalf("worker got %d leases for a plane-completed job", len(leases))
	}
	if m := b.Metrics(); m.PlaneHits != 2 {
		t.Fatalf("metrics plane hits %d, want 2", m.PlaneHits)
	}
}

// shardSpec picks the matching original spec for a result (test aid).
func shardSpec(r api.TaskResult, specs ...api.TaskSpec) api.TaskSpec {
	for _, s := range specs {
		if s.Job == r.Job && s.Shard == r.Shard {
			return s
		}
	}
	return api.TaskSpec{}
}

// TestPlanePartialHitQueuesOnlyMisses proves a mixed job leases only
// its uncached tasks and the rate limiter charges only those: a plane
// hit costs no token.
func TestPlanePartialHitQueuesOnlyMisses(t *testing.T) {
	hit, miss := cachedSpec("t1", 0), cachedSpec("t1", 1)
	plane := &fakePlane{m: map[string]api.CachedResult{
		hit.CacheKey: planeEntryFor(hit, "cached"),
	}}
	clk := newClock()
	// Two tokens and a clock that never moves: the mixed job pays one.
	b := newBroker(t, Config{Plane: plane, MaxSubmitRate: 2}, clk)

	id := submit(t, b, "", 0, hit, miss)
	st, _ := b.Status(id)
	if st.State != api.JobRunning || st.Done != 1 {
		t.Fatalf("partial job: state=%s done=%d", st.State, st.Done)
	}
	w := hello(t, b, "w")
	leases := poll(t, b, w, 4)
	if len(leases) != 1 || leases[0].Task.Shard != miss.Shard {
		t.Fatalf("leases %+v, want exactly the uncached shard", leases)
	}
	done(t, b, w, leases[0], "computed")
	st, _ = b.Status(id)
	if st.State != api.JobDone {
		t.Fatalf("after worker done: state=%s", st.State)
	}
	if st.Results[0].Worker != "result-plane" || st.Results[1].Worker == "result-plane" {
		t.Fatalf("worker stamps: %q / %q", st.Results[0].Worker, st.Results[1].Worker)
	}
	if s := b.Metrics(); s.PlaneHits != 1 {
		t.Fatalf("plane hits %d, want 1", s.PlaneHits)
	}

	// One token is left: a fully cached job is free, and one more
	// uncached task fits only if neither hit was charged. The next one
	// finds the bucket empty.
	submit(t, b, "", 0, hit)
	submit(t, b, "", 0, cachedSpec("t1", 2))
	_, err := submitOne(b, api.JobSubmit{Proto: api.Version, Tasks: []api.TaskSpec{cachedSpec("t1", 3)}})
	wantRateLimited(t, err)
}

// TestPlaneHitsSurviveJournalReplay proves plane completions are as
// durable as worker results: a crash between submit and anything else
// replays the job fully done.
func TestPlaneHitsSurviveJournalReplay(t *testing.T) {
	dir := t.TempDir()
	s1, s2 := cachedSpec("mc", 0), cachedSpec("mc", 1)
	plane := &fakePlane{m: map[string]api.CachedResult{
		s1.CacheKey: planeEntryFor(s1, "row-0"),
		s2.CacheKey: planeEntryFor(s2, "row-1"),
	}}
	clk := newClock()

	jl, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := newBroker(t, Config{Plane: plane, Journal: jl}, clk)
	id := submit(t, b, "", 0, s1, s2)
	jl.Close()

	// Restart without a plane: the replayed results must stand alone.
	jl2, err := OpenJournal(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	b2 := newBroker(t, Config{Journal: jl2}, clk)
	st, err := b2.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.JobDone || st.Done != 2 {
		t.Fatalf("replayed job: state=%s done=%d", st.State, st.Done)
	}
	if st.Results[0].Text != "row-0" || st.Results[1].Worker != "result-plane" {
		t.Fatalf("replayed results: %+v", st.Results)
	}
}

// TestDeadPlaneDegradesToQueue proves a plane returning misses (or
// errors surfaced as misses) leaves the broker exactly as cache-blind.
func TestDeadPlaneDegradesToQueue(t *testing.T) {
	plane := &fakePlane{m: map[string]api.CachedResult{}}
	clk := newClock()
	b := newBroker(t, Config{Plane: plane}, clk)
	id := submit(t, b, "", 0, cachedSpec("mc", 0))
	if st, _ := b.Status(id); st.State != api.JobQueued {
		t.Fatalf("miss-everything plane: state=%s", st.State)
	}
	if plane.lookups != 1 {
		t.Fatalf("lookups %d, want 1", plane.lookups)
	}
	if s := b.Metrics(); s.PlaneHits != 0 || s.Pending != 1 {
		t.Fatalf("stats %+v", s)
	}
}

// TestRenewCarriesProgress proves renewal heartbeats land in the fleet
// view and the lease metrics, with progress age driven by the clock.
func TestRenewCarriesProgress(t *testing.T) {
	clk := newClock()
	b := newBroker(t, Config{LeaseTTL: 30 * time.Second}, clk)
	submit(t, b, "", 0, spec("train", 0))
	w := hello(t, b, "w1")
	leases := poll(t, b, w, 1)
	if len(leases) != 1 {
		t.Fatal("no lease granted")
	}
	clk.advance(5 * time.Second)
	_, err := b.Renew(api.LeaseRenew{
		Proto: api.Version, WorkerID: w, LeaseIDs: []string{leases[0].ID},
		Progress: map[string]*api.TaskProgress{
			leases[0].ID: {Job: "train", Shard: 0, Stage: "train", Done: 3, Total: 10},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	clk.advance(2 * time.Second)

	fs := b.Fleet()
	if len(fs.Workers) != 1 || len(fs.Workers[0].Leases) != 1 {
		t.Fatalf("fleet %+v", fs)
	}
	fl := fs.Workers[0].Leases[0]
	if fl.Progress == nil || fl.Progress.Done != 3 || fl.Progress.Stage != "train" {
		t.Fatalf("fleet progress %+v", fl.Progress)
	}
	if fl.AgeNS != (7 * time.Second).Nanoseconds() {
		t.Fatalf("lease age %v", time.Duration(fl.AgeNS))
	}
	if fl.ProgressAgeNS != (2 * time.Second).Nanoseconds() {
		t.Fatalf("progress age %v", time.Duration(fl.ProgressAgeNS))
	}

	m := b.Metrics()
	if len(m.Leases) != 1 || m.Leases[0].ProgressAgeNS != (2*time.Second).Nanoseconds() {
		t.Fatalf("lease metrics %+v", m.Leases)
	}
	if m.Leases[0].Task != "train[0]" || m.Leases[0].Worker != "w1" {
		t.Fatalf("lease metrics labels %+v", m.Leases[0])
	}
}
