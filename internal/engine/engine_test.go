package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// single is the shape of a job that does not split: j with one shard,
// named "only", running run, and a merge that returns that shard's
// output.
func single(j Job, run func(context.Context) (Output, error)) Job {
	j.Shards = []Shard{{Name: "only", Run: run}}
	j.Merge = func(outs []Output) (Output, error) { return outs[0], nil }
	return j
}

// textOf strips the timing-dependent parts of a report so two runs can be
// compared for determinism.
func textOf(rep *Report) string {
	var b strings.Builder
	for _, r := range rep.Results {
		fmt.Fprintf(&b, "%s seed=%d err=%q\n%s\n", r.Name, r.Seed, r.Err, r.Text)
	}
	return b.String()
}

func TestRegistryRejectsBadJobs(t *testing.T) {
	reg := NewRegistry()
	run := func(context.Context) (Output, error) { return Output{}, nil }
	ok := single(Job{Name: "a"}, run)
	if err := reg.Register(ok); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(ok); err == nil {
		t.Fatal("duplicate name must fail")
	}
	if err := reg.Register(single(Job{}, run)); err == nil {
		t.Fatal("empty name must fail")
	}
	if err := reg.Register(Job{Name: "b"}); err == nil {
		t.Fatal("a job with no shards must fail")
	}
	noMerge := single(Job{Name: "c"}, run)
	noMerge.Merge = nil
	if err := reg.Register(noMerge); err == nil {
		t.Fatal("a job with no merge must fail")
	}
	if reg.Len() != 1 {
		t.Fatalf("len = %d", reg.Len())
	}
}

func TestSelectFiltering(t *testing.T) {
	reg := NewRegistry()
	for _, name := range []string{"tiny/fig8a", "tiny/table2", "small/fig8a", "small/perf"} {
		name := name
		if err := reg.Register(single(Job{Name: name}, func(context.Context) (Output, error) {
			return Output{Text: name}, nil
		})); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		patterns []string
		want     []string
	}{
		{nil, []string{"tiny/fig8a", "tiny/table2", "small/fig8a", "small/perf"}},
		{[]string{"all"}, []string{"tiny/fig8a", "tiny/table2", "small/fig8a", "small/perf"}},
		{[]string{"*/fig8a"}, []string{"tiny/fig8a", "small/fig8a"}},
		{[]string{"small/perf"}, []string{"small/perf"}},
		{[]string{"tiny/*", "small/perf"}, []string{"tiny/fig8a", "tiny/table2", "small/perf"}},
	}
	for _, c := range cases {
		jobs, err := reg.Select(c.patterns)
		if err != nil {
			t.Fatalf("%v: %v", c.patterns, err)
		}
		var got []string
		for _, j := range jobs {
			got = append(got, j.Name)
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Fatalf("filter %v: got %v, want %v", c.patterns, got, c.want)
		}
	}
	if _, err := reg.Select([]string{"*/nosuch"}); err == nil {
		t.Fatal("unmatched filter must fail")
	}
}

// TestSelectOverlappingPatterns: a job matched by several patterns must
// be selected exactly once, in registration order — operators predicting
// remote fan-out from -list counts depend on no double scheduling.
func TestSelectOverlappingPatterns(t *testing.T) {
	reg := NewRegistry()
	for _, name := range []string{"tiny/fig8a", "tiny/fig8b", "small/fig8a"} {
		if err := reg.Register(single(Job{Name: name}, func(context.Context) (Output, error) {
			return Output{}, nil
		})); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		patterns []string
		want     []string
	}{
		// Every pattern matches tiny/fig8a; it must appear once.
		{[]string{"*/fig8a", "tiny/*", "tiny/fig8a"}, []string{"tiny/fig8a", "tiny/fig8b", "small/fig8a"}},
		// Later pattern re-matching an earlier selection changes nothing.
		{[]string{"tiny/fig8b", "*/fig8b"}, []string{"tiny/fig8b"}},
		// "all" plus a narrow pattern is still everything, once each.
		{[]string{"all", "small/fig8a"}, []string{"tiny/fig8a", "tiny/fig8b", "small/fig8a"}},
		// Duplicate patterns collapse.
		{[]string{"small/fig8a", "small/fig8a"}, []string{"small/fig8a"}},
	}
	for _, c := range cases {
		jobs, err := reg.Select(c.patterns)
		if err != nil {
			t.Fatalf("%v: %v", c.patterns, err)
		}
		var got []string
		for _, j := range jobs {
			got = append(got, j.Name)
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Fatalf("filter %v: got %v, want %v", c.patterns, got, c.want)
		}
	}
}

// TestSelectNoMatchErrorText: a typo'd filter must fail loudly, naming
// the bad pattern and the available jobs.
func TestSelectNoMatchErrorText(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register(single(Job{Name: "tiny/mc"}, func(context.Context) (Output, error) {
		return Output{}, nil
	})); err != nil {
		t.Fatal(err)
	}
	_, err := reg.Select([]string{"tiny/md"})
	if err == nil {
		t.Fatal("no-match filter must fail")
	}
	for _, frag := range []string{`"tiny/md"`, "matches no job", "tiny/mc"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("error %q missing %q", err, frag)
		}
	}
	// One good and one bad pattern still fails: silent partial matches
	// would hide typos in multi-experiment invocations.
	if _, err := reg.Select([]string{"tiny/mc", "tiny/md"}); err == nil {
		t.Fatal("partially matched filter set must still fail")
	}
	// A malformed glob is a distinct, syntax-shaped error.
	if _, err := reg.Select([]string{"[unclosed"}); err == nil || !strings.Contains(err.Error(), "bad filter") {
		t.Fatalf("malformed glob error: %v", err)
	}
}

// seededRegistry builds keyed jobs, each drawing from an RNG seeded by
// its own index, so a report's text is a fingerprint of which job ran
// which closure, in what order the results were reported, and which
// seed each result was stamped with.
func seededRegistry(t *testing.T, n int) *Registry {
	t.Helper()
	reg := NewRegistry()
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("job%02d", i)
		err := reg.Register(single(Job{Name: name, Key: name + "@hash"}, func(context.Context) (Output, error) {
			rng := rand.New(rand.NewSource(int64(i)))
			return Output{Text: fmt.Sprintf("%s -> %d %d %d", name, rng.Int63(), rng.Int63(), rng.Int63())}, nil
		}))
		if err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// TestConcurrentExecutionIsDeterministic: a parallel run reports what a
// serial one does. Another base seed stamps every result with a new
// seed and replays nothing from a cache the first seed filled, while
// the first seed's rerun replays everything.
func TestConcurrentExecutionIsDeterministic(t *testing.T) {
	reg := seededRegistry(t, 24)
	cache := NewCache()
	serial, err := Run(reg, Options{Workers: 1, BaseSeed: 42, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		par, err := Run(reg, Options{Workers: 8, BaseSeed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if textOf(par) != textOf(serial) {
			t.Fatalf("workers=8 run diverged from serial:\n%s\nvs\n%s", textOf(par), textOf(serial))
		}
	}
	other, err := Run(reg, Options{Workers: 8, BaseSeed: 43, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range other.Results {
		if r.Seed == serial.Results[i].Seed {
			t.Fatalf("%s: base seeds 42 and 43 both stamp seed %d", r.Name, r.Seed)
		}
		if r.Cached {
			t.Fatalf("%s replayed from a cache filled under another base seed", r.Name)
		}
	}
	again, err := Run(reg, Options{Workers: 8, BaseSeed: 42, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if again.CachedCount() != len(again.Results) || textOf(again) != textOf(serial) {
		t.Fatalf("rerun at base seed 42 replayed %d of %d results:\n%s", again.CachedCount(), len(again.Results), textOf(again))
	}
}

func TestResultsKeepRegistrationOrder(t *testing.T) {
	reg := seededRegistry(t, 16)
	rep, err := Run(reg, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rep.Results {
		if want := fmt.Sprintf("job%02d", i); r.Name != want {
			t.Fatalf("result %d is %s, want %s", i, r.Name, want)
		}
	}
}

func TestErrorAndPanicPropagation(t *testing.T) {
	reg := NewRegistry()
	boom := errors.New("boom")
	must := func(j Job) {
		if err := reg.Register(j); err != nil {
			t.Fatal(err)
		}
	}
	must(single(Job{Name: "ok"}, func(context.Context) (Output, error) { return Output{Text: "fine"}, nil }))
	must(single(Job{Name: "fails"}, func(context.Context) (Output, error) { return Output{}, boom }))
	must(single(Job{Name: "panics"}, func(context.Context) (Output, error) { panic("kaboom") }))

	rep, err := Run(reg, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() != 2 {
		t.Fatalf("failed = %d, want 2", rep.Failed())
	}
	if rep.Results[0].Failed() || rep.Results[0].Text != "fine" {
		t.Fatalf("healthy job corrupted: %+v", rep.Results[0])
	}
	// A job's error names the shard that failed.
	if rep.Results[1].Err != "shard only: boom" {
		t.Fatalf("error not captured: %q", rep.Results[1].Err)
	}
	if !strings.Contains(rep.Results[2].Err, "kaboom") {
		t.Fatalf("panic not captured: %q", rep.Results[2].Err)
	}
	joined := rep.Err()
	if joined == nil {
		t.Fatal("Report.Err must be non-nil")
	}
	for _, frag := range []string{"fails: shard only: boom", "panics:"} {
		if !strings.Contains(joined.Error(), frag) {
			t.Fatalf("joined error missing %q: %v", frag, joined)
		}
	}
}

func TestWorkerPoolRunsJobsInParallel(t *testing.T) {
	const n = 4
	reg := NewRegistry()
	// Every job blocks until all n are running at once; the run can only
	// finish if the pool really executes them concurrently.
	var barrier sync.WaitGroup
	barrier.Add(n)
	for i := 0; i < n; i++ {
		err := reg.Register(single(Job{Name: fmt.Sprintf("j%d", i)}, func(context.Context) (Output, error) {
			barrier.Done()
			done := make(chan struct{})
			go func() { barrier.Wait(); close(done) }()
			select {
			case <-done:
				return Output{Text: "met"}, nil
			case <-time.After(10 * time.Second):
				return Output{}, errors.New("barrier never met: jobs did not overlap")
			}
		}))
		if err != nil {
			t.Fatal(err)
		}
	}
	rep, err := Run(reg, Options{Workers: n})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Workers != n {
		t.Fatalf("workers = %d", rep.Workers)
	}
}

func TestCacheReplaysResults(t *testing.T) {
	reg := NewRegistry()
	var runs, failRuns int32
	var mu sync.Mutex
	must := func(j Job) {
		if err := reg.Register(j); err != nil {
			t.Fatal(err)
		}
	}
	must(single(Job{Name: "cached", Key: "cached@deadbeef"}, func(context.Context) (Output, error) {
		mu.Lock()
		runs++
		mu.Unlock()
		return Output{Text: "expensive"}, nil
	}))
	must(single(Job{Name: "failing", Key: "failing@deadbeef"}, func(context.Context) (Output, error) {
		mu.Lock()
		failRuns++
		mu.Unlock()
		return Output{}, errors.New("transient")
	}))
	must(single(Job{Name: "unkeyed"}, func(context.Context) (Output, error) { return Output{Text: "x"}, nil }))

	cache := NewCache()
	for pass := 0; pass < 2; pass++ {
		rep, err := Run(reg, Options{Workers: 2, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Results[0].Text != "expensive" {
			t.Fatalf("pass %d: text %q", pass, rep.Results[0].Text)
		}
		if want := pass == 1; rep.Results[0].Cached != want {
			t.Fatalf("pass %d: cached = %v", pass, rep.Results[0].Cached)
		}
	}
	if runs != 1 {
		t.Fatalf("cached job ran %d times, want 1", runs)
	}
	if failRuns != 2 {
		t.Fatalf("failing job ran %d times, want 2 (failures must not cache)", failRuns)
	}
	if cache.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", cache.Len())
	}
}

func TestSameKeyJobsSingleFlight(t *testing.T) {
	reg := NewRegistry()
	var mu sync.Mutex
	runs := 0
	for i := 0; i < 4; i++ {
		err := reg.Register(single(Job{Name: fmt.Sprintf("sf%d", i), Key: "shared@key"}, func(context.Context) (Output, error) {
			mu.Lock()
			runs++
			mu.Unlock()
			time.Sleep(30 * time.Millisecond) // widen the overlap window
			return Output{Text: "shared"}, nil
		}))
		if err != nil {
			t.Fatal(err)
		}
	}
	rep, err := Run(reg, Options{Workers: 4, Cache: NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if runs != 1 {
		t.Fatalf("shared-key job computed %d times, want 1 (single-flight)", runs)
	}
	cached := 0
	for _, r := range rep.Results {
		if r.Text != "shared" {
			t.Fatalf("%s: text %q", r.Name, r.Text)
		}
		if r.Seed != JobSeed(0, r.Name) {
			t.Fatalf("%s: replay must carry the job's own seed", r.Name)
		}
		if r.Cached {
			cached++
		}
	}
	if cached != 3 {
		t.Fatalf("cached = %d, want 3", cached)
	}
}

func TestSameKeyFailuresDoNotDeadlockOrCache(t *testing.T) {
	reg := NewRegistry()
	var mu sync.Mutex
	runs := 0
	for i := 0; i < 3; i++ {
		err := reg.Register(single(Job{Name: fmt.Sprintf("bad%d", i), Key: "doomed@key"}, func(context.Context) (Output, error) {
			mu.Lock()
			runs++
			mu.Unlock()
			return Output{}, errors.New("always fails")
		}))
		if err != nil {
			t.Fatal(err)
		}
	}
	rep, err := Run(reg, Options{Workers: 3, Cache: NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() != 3 {
		t.Fatalf("failed = %d, want 3", rep.Failed())
	}
	if runs != 3 {
		t.Fatalf("runs = %d, want 3 (failures are never replayed)", runs)
	}
}

func TestOnDoneObservesEveryJob(t *testing.T) {
	reg := seededRegistry(t, 10)
	var mu sync.Mutex
	seen := map[string]bool{}
	_, err := Run(reg, Options{Workers: 4, OnDone: func(r Result) {
		mu.Lock()
		seen[r.Name] = true
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 10 {
		t.Fatalf("OnDone saw %d jobs, want 10", len(seen))
	}
}

func TestJobSeedStableAndDistinct(t *testing.T) {
	if JobSeed(1, "a") != JobSeed(1, "a") {
		t.Fatal("seed must be deterministic")
	}
	if JobSeed(1, "a") == JobSeed(1, "b") {
		t.Fatal("different jobs must get different seeds")
	}
	if JobSeed(1, "a") == JobSeed(2, "a") {
		t.Fatal("different base seeds must differ")
	}
}

func TestReportRendering(t *testing.T) {
	reg := NewRegistry()
	must := func(j Job) {
		if err := reg.Register(j); err != nil {
			t.Fatal(err)
		}
	}
	must(single(Job{Name: "t1", Title: "table one"}, func(context.Context) (Output, error) {
		return Output{Text: "row A\n", Data: map[string]int{"rows": 1}}, nil
	}))
	must(single(Job{Name: "t2"}, func(context.Context) (Output, error) { return Output{}, errors.New("nope") }))

	rep, err := Run(reg, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	text := rep.Text()
	for _, frag := range []string{"=== t1", "row A", "=== t2", "ERROR: shard only: nope", "2 jobs, 1 failed, 0 cached, 1 workers"} {
		if !strings.Contains(text, frag) {
			t.Fatalf("report text missing %q:\n%s", frag, text)
		}
	}
	buf, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{`"name": "t1"`, `"rows": 1`, `"error": "shard only: nope"`, `"workers": 1`} {
		if !strings.Contains(string(buf), frag) {
			t.Fatalf("JSON missing %q:\n%s", frag, buf)
		}
	}
}

// TestOneShardJobResult: a job that does not split reports as its one
// shard ran: the job's name, title and JobSeed(base, job name), and the
// shard's text and data, cold and warm alike.
func TestOneShardJobResult(t *testing.T) {
	reg := NewRegistry()
	if err := reg.Register(single(Job{Name: "tiny/fig8a", Title: "Fig 8", Key: "fig8a@hash"}, func(context.Context) (Output, error) {
		return Output{Text: "curve\n", Data: map[string]int{"flips": 3}}, nil
	})); err != nil {
		t.Fatal(err)
	}
	cache := NewCache()
	for pass := 0; pass < 2; pass++ {
		rep, err := Run(reg, Options{Workers: 1, BaseSeed: 5, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		r := rep.Results[0]
		if r.Name != "tiny/fig8a" || r.Title != "Fig 8" || r.Seed != JobSeed(5, "tiny/fig8a") || r.Err != "" {
			t.Fatalf("pass %d: result %+v", pass, r)
		}
		if data, err := marshalPayload(r.Data); err != nil || r.Text != "curve\n" || string(data) != `{"flips":3}` {
			t.Fatalf("pass %d: text %q data %s (%v)", pass, r.Text, data, err)
		}
		if r.Cached != (pass == 1) {
			t.Fatalf("pass %d: cached = %v", pass, r.Cached)
		}
	}
}

// TestRunDispatchesHeaviestFirst pins the dispatch order: with one
// worker, units start in descending Shard.Cost, ties in registration
// order, while the report and every merge keep
// registration and shard order.
func TestRunDispatchesHeaviestFirst(t *testing.T) {
	var started []string
	run := func(name string) func(context.Context) (Output, error) {
		return func(context.Context) (Output, error) {
			started = append(started, name)
			return Output{Text: name + "\n", Data: name}, nil
		}
	}
	merge := func(outs []Output) (Output, error) {
		var b strings.Builder
		for _, o := range outs {
			b.WriteString(o.Text)
		}
		return Output{Text: b.String()}, nil
	}
	reg := NewRegistry()
	for _, j := range []Job{
		single(Job{Name: "a"}, run("a")),
		{Name: "b", Merge: merge, Shards: []Shard{
			{Name: "s0", Run: run("b/s0"), Cost: 1},
			{Name: "s1", Run: run("b/s1"), Cost: 16},
			{Name: "s2", Run: run("b/s2"), Cost: 4},
			{Name: "s3", Run: run("b/s3")},
		}},
		single(Job{Name: "c"}, run("c")),
		{Name: "d", Merge: merge, Shards: []Shard{
			{Name: "t0", Run: run("d/t0"), Cost: 4},
			{Name: "t1", Run: run("d/t1"), Cost: 1},
		}},
	} {
		if err := reg.Register(j); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := Run(reg, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	want := []string{"b/s1", "b/s2", "d/t0", "b/s0", "d/t1", "a", "b/s3", "c"}
	if fmt.Sprint(started) != fmt.Sprint(want) {
		t.Fatalf("start order %v, want %v", started, want)
	}
	var names []string
	for _, r := range rep.Results {
		names = append(names, r.Name)
	}
	if fmt.Sprint(names) != "[a b c d]" {
		t.Fatalf("report order %v, want registration order", names)
	}
	if got := rep.Results[1].Text; got != "b/s0\nb/s1\nb/s2\nb/s3\n" {
		t.Fatalf("merge saw shards out of order:\n%s", got)
	}
	if got := rep.Results[3].Text; got != "d/t0\nd/t1\n" {
		t.Fatalf("merge saw shards out of order:\n%s", got)
	}
}
