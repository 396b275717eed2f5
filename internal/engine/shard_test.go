package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/api"
)

// gridJob builds a job of n shards whose payloads are (job name, index)
// rows, plus a merge that formats them in shard order.
func gridJob(name string, n int, key string) Job {
	var shards []Shard
	for i := 0; i < n; i++ {
		shards = append(shards, Shard{
			Name: fmt.Sprintf("pt%02d", i),
			Run: func(context.Context) (Output, error) {
				return Output{Data: map[string]any{"job": name, "i": i}}, nil
			},
		})
	}
	merge := func(outs []Output) (Output, error) {
		var b strings.Builder
		for _, o := range outs {
			var row struct {
				Job string `json:"job"`
				I   int    `json:"i"`
			}
			if err := DecodeData(o.Data, &row); err != nil {
				return Output{}, err
			}
			fmt.Fprintf(&b, "%s:%d\n", row.Job, row.I)
		}
		return Output{Text: b.String(), Data: b.String()}, nil
	}
	return Job{Name: name, Title: "grid", Key: key, Shards: shards, Merge: merge}
}

func TestRegistryValidatesShardedJobs(t *testing.T) {
	run := func(context.Context) (Output, error) { return Output{}, nil }
	merge := func([]Output) (Output, error) { return Output{}, nil }
	cases := []struct {
		desc string
		job  Job
	}{
		{"no shards", Job{Name: "x", Merge: merge}},
		{"missing Merge", Job{Name: "x", Shards: []Shard{{Name: "a", Run: run}}}},
		{"unnamed shard", Job{Name: "x", Shards: []Shard{{Run: run}}, Merge: merge}},
		{"nil shard Run", Job{Name: "x", Shards: []Shard{{Name: "a"}}, Merge: merge}},
		{"duplicate shard", Job{Name: "x", Shards: []Shard{{Name: "a", Run: run}, {Name: "a", Run: run}}, Merge: merge}},
	}
	for _, c := range cases {
		if err := NewRegistry().Register(c.job); err == nil {
			t.Errorf("%s: registration must fail", c.desc)
		}
	}
	ok := gridJob("ok", 3, "")
	if err := NewRegistry().Register(ok); err != nil {
		t.Fatalf("valid sharded job rejected: %v", err)
	}
}

func TestShardedJobDeterministicAcrossWorkerCounts(t *testing.T) {
	build := func() *Registry {
		reg := NewRegistry()
		for _, name := range []string{"gridA", "gridB"} {
			if err := reg.Register(gridJob(name, 7, "")); err != nil {
				t.Fatal(err)
			}
		}
		return reg
	}
	serial, err := Run(build(), Options{Workers: 1, BaseSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.Err(); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16} {
		par, err := Run(build(), Options{Workers: workers, BaseSeed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if textOf(par) != textOf(serial) {
			t.Fatalf("workers=%d diverged:\n%s\nvs\n%s", workers, textOf(par), textOf(serial))
		}
	}
}

func TestShardedJobShardsRunInParallel(t *testing.T) {
	const n = 4
	var barrier sync.WaitGroup
	barrier.Add(n)
	var shards []Shard
	for i := 0; i < n; i++ {
		shards = append(shards, Shard{
			Name: fmt.Sprintf("s%d", i),
			Run: func(context.Context) (Output, error) {
				barrier.Done()
				barrier.Wait() // deadlocks unless all shards overlap
				return Output{Data: "met"}, nil
			},
		})
	}
	reg := NewRegistry()
	err := reg.Register(Job{Name: "wide", Shards: shards, Merge: func(outs []Output) (Output, error) {
		return Output{Text: fmt.Sprintf("%d shards", len(outs))}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(reg, Options{Workers: n})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Results[0].Text != "4 shards" {
		t.Fatalf("merge output: %q", rep.Results[0].Text)
	}
}

func TestShardErrorsAndPanicsFailTheJob(t *testing.T) {
	reg := NewRegistry()
	shards := []Shard{
		{Name: "good", Run: func(context.Context) (Output, error) { return Output{Data: 1}, nil }},
		{Name: "bad", Run: func(context.Context) (Output, error) { return Output{}, errors.New("boom") }},
		{Name: "panics", Run: func(context.Context) (Output, error) { panic("kaboom") }},
	}
	err := reg.Register(Job{Name: "mixed", Shards: shards, Merge: func([]Output) (Output, error) {
		t.Error("merge must not run when a shard failed")
		return Output{}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(single(Job{Name: "sibling"}, func(context.Context) (Output, error) {
		return Output{Text: "fine"}, nil
	})); err != nil {
		t.Fatal(err)
	}
	rep, err := Run(reg, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() != 1 {
		t.Fatalf("failed = %d, want 1", rep.Failed())
	}
	got := rep.Results[0].Err
	for _, frag := range []string{"shard bad: boom", "shard panics: panic: kaboom"} {
		if !strings.Contains(got, frag) {
			t.Fatalf("job error missing %q: %q", frag, got)
		}
	}
	if rep.Results[1].Failed() {
		t.Fatalf("sibling corrupted: %+v", rep.Results[1])
	}
}

func TestMergeErrorAndPanicAreCaptured(t *testing.T) {
	reg := NewRegistry()
	one := []Shard{{Name: "a", Run: func(context.Context) (Output, error) { return Output{Data: 1}, nil }}}
	must := func(j Job) {
		if err := reg.Register(j); err != nil {
			t.Fatal(err)
		}
	}
	must(Job{Name: "mergeerr", Shards: one, Merge: func([]Output) (Output, error) {
		return Output{}, errors.New("cannot assemble")
	}})
	must(Job{Name: "mergepanic", Shards: one, Merge: func([]Output) (Output, error) {
		panic("merge kaboom")
	}})
	rep, err := Run(reg, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Results[0].Err, "merge: cannot assemble") {
		t.Fatalf("merge error: %q", rep.Results[0].Err)
	}
	if !strings.Contains(rep.Results[1].Err, "merge: panic: merge kaboom") {
		t.Fatalf("merge panic: %q", rep.Results[1].Err)
	}
}

// TestShardedJobCaching: the second pass replays every shard from the
// cache, computing none, and runs the merge again over the replays.
func TestShardedJobCaching(t *testing.T) {
	var mu sync.Mutex
	runs, merges := 0, 0
	build := func() *Registry {
		reg := NewRegistry()
		var shards []Shard
		for i := 0; i < 3; i++ {
			shards = append(shards, Shard{
				Name: fmt.Sprintf("s%d", i),
				Run: func(context.Context) (Output, error) {
					mu.Lock()
					runs++
					mu.Unlock()
					return Output{Data: "x"}, nil
				},
			})
		}
		if err := reg.Register(Job{Name: "grid", Key: "grid@hash", Shards: shards, Merge: func(outs []Output) (Output, error) {
			merges++
			return Output{Text: fmt.Sprintf("merged %d", len(outs))}, nil
		}}); err != nil {
			t.Fatal(err)
		}
		return reg
	}
	cache := NewCache()
	for pass := 0; pass < 2; pass++ {
		rep, err := Run(build(), Options{Workers: 4, Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			t.Fatal(err)
		}
		r := rep.Results[0]
		if r.Text != "merged 3" {
			t.Fatalf("pass %d: text %q", pass, r.Text)
		}
		if want := pass == 1; r.Cached != want {
			t.Fatalf("pass %d: cached = %v, want %v", pass, r.Cached, want)
		}
	}
	if runs != 3 {
		t.Fatalf("shards computed %d times, want 3 (second pass must replay)", runs)
	}
	if merges != 2 {
		t.Fatalf("merge ran %d times, want once per pass", merges)
	}
	if cache.Len() != 3 {
		t.Fatalf("cache holds %d entries, want one per shard", cache.Len())
	}
}

// TestShardLevelCacheReuse: two jobs sharing a key reuse each other's
// shard results (single-flight per shard), and a job assembled purely
// from cached shards counts as cached.
func TestShardLevelCacheReuse(t *testing.T) {
	var mu sync.Mutex
	computed := map[string]int{}
	build := func(reg *Registry, jobName string) {
		var shards []Shard
		for i := 0; i < 4; i++ {
			i := i
			shards = append(shards, Shard{
				Name: fmt.Sprintf("s%d", i),
				Run: func(context.Context) (Output, error) {
					mu.Lock()
					computed[fmt.Sprintf("s%d", i)]++
					mu.Unlock()
					return Output{Data: i * i}, nil
				},
			})
		}
		if err := reg.Register(Job{Name: jobName, Key: "shared@key", Shards: shards, Merge: func(outs []Output) (Output, error) {
			var vals []string
			for _, o := range outs {
				var v int
				if err := DecodeData(o.Data, &v); err != nil {
					return Output{}, err
				}
				vals = append(vals, fmt.Sprint(v))
			}
			return Output{Text: strings.Join(vals, ",")}, nil
		}}); err != nil {
			t.Fatal(err)
		}
	}
	reg := NewRegistry()
	build(reg, "first")
	build(reg, "second")
	rep, err := Run(reg, Options{Workers: 1, Cache: NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	for name, n := range computed {
		if n != 1 {
			t.Fatalf("shard %s computed %d times, want 1", name, n)
		}
	}
	if rep.Results[0].Text != "0,1,4,9" || rep.Results[1].Text != "0,1,4,9" {
		t.Fatalf("texts: %q vs %q", rep.Results[0].Text, rep.Results[1].Text)
	}
	if rep.Results[0].Cached {
		t.Fatal("first job must compute")
	}
	if !rep.Results[1].Cached {
		t.Fatal("second job assembled fully from cached shards must count as cached")
	}
}

// TestDecodeDataRoundTripsThroughWireTypes: a shard payload marshalled
// into api.TaskResult.Data (the executor boundary), shipped as JSON (the
// remote transport), and handed back to a merge must decode to the value
// the shard produced — the property that makes merges transport-agnostic.
func TestDecodeDataRoundTripsThroughWireTypes(t *testing.T) {
	type row struct {
		Curve string    `json:"curve"`
		Pts   []float64 `json:"pts"`
		N     int       `json:"n"`
	}
	want := row{Curve: "fig7a/trr", Pts: []float64{0.5, 1.25, 2}, N: 3}

	// Executor side: live value -> raw payload in a TaskResult.
	payload, err := marshalPayload(want)
	if err != nil {
		t.Fatal(err)
	}
	res := api.TaskResult{Proto: api.Version, Job: "tiny/fig7a", Shard: 0, Data: payload}

	// Transport: the result crosses the wire as JSON.
	wire, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back api.TaskResult
	if err := json.Unmarshal(wire, &back); err != nil {
		t.Fatal(err)
	}

	// Scheduler side: the merge decodes the replayed payload.
	var got row
	if err := DecodeData(back.Data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Curve != want.Curve || got.N != want.N || fmt.Sprint(got.Pts) != fmt.Sprint(want.Pts) {
		t.Fatalf("round-trip changed the payload: %+v vs %+v", got, want)
	}
	// And the bytes themselves survive untouched (byte-identity of
	// reports across transports reduces to this).
	if string(back.Data) != string(payload) {
		t.Fatalf("payload bytes changed: %s vs %s", back.Data, payload)
	}
}

func TestDecodeDataShapes(t *testing.T) {
	type row struct {
		A int     `json:"a"`
		B float64 `json:"b"`
	}
	want := row{A: 3, B: 0.1}
	var fromLive row
	if err := DecodeData(want, &fromLive); err != nil || fromLive != want {
		t.Fatalf("live: %+v, %v", fromLive, err)
	}
	var fromRaw row
	if err := DecodeData([]byte(`{"a":3,"b":0.1}`), &fromRaw); err != nil || fromRaw != want {
		t.Fatalf("raw: %+v, %v", fromRaw, err)
	}
	if err := DecodeData(nil, &fromRaw); err == nil {
		t.Fatal("nil payload must error")
	}
}
