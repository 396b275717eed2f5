package engine

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/api"
)

func execRegistry(t *testing.T) *Registry {
	t.Helper()
	reg := NewRegistry()
	must := func(j Job) {
		if err := reg.Register(j); err != nil {
			t.Fatal(err)
		}
	}
	must(single(Job{Name: "mono", Key: "mono@hash"}, func(context.Context) (Output, error) {
		return Output{Text: "mono ran", Data: map[string]string{"job": "mono"}}, nil
	}))
	must(single(Job{Name: "panics"}, func(context.Context) (Output, error) { panic("kaboom") }))
	must(Job{Name: "grid", Key: "grid@hash", Shards: []Shard{
		{Name: "s0", Run: func(context.Context) (Output, error) { return Output{Data: "s0"}, nil }},
		{Name: "s1", Run: func(context.Context) (Output, error) { return Output{Data: "s1"}, nil }},
	}, Merge: func(outs []Output) (Output, error) {
		return Output{Text: fmt.Sprintf("%d shards", len(outs))}, nil
	}})
	return reg
}

func TestLocalExecutorRunsMonolith(t *testing.T) {
	exec := NewLocalExecutor(execRegistry(t))
	spec := api.TaskSpec{Proto: api.Version, Job: "mono", Shard: 0, Seed: 42, Key: "mono@hash"}
	res, err := exec.Execute(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(spec); err != nil {
		t.Fatal(err)
	}
	if res.Text != "mono ran" {
		t.Fatalf("text %q", res.Text)
	}
	var data struct {
		Job string `json:"job"`
	}
	if err := DecodeData(res.Data, &data); err != nil || data.Job != "mono" {
		t.Fatalf("data %s (%v)", res.Data, err)
	}
	if res.DurationNS <= 0 {
		t.Fatalf("duration %d", res.DurationNS)
	}
}

func TestLocalExecutorRunsShard(t *testing.T) {
	exec := NewLocalExecutor(execRegistry(t))
	spec := api.TaskSpec{Proto: api.Version, Job: "grid", Shard: 1, Seed: 9, Key: "grid@hash"}
	res, err := exec.Execute(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var shard string
	if err := DecodeData(res.Data, &shard); err != nil || shard != "s1" {
		t.Fatalf("shard data %s (%v)", res.Data, err)
	}
}

func TestLocalExecutorResolutionErrors(t *testing.T) {
	exec := NewLocalExecutor(execRegistry(t))
	cases := []struct {
		desc string
		spec api.TaskSpec
		code api.Code
		frag string
	}{
		{"bad proto", api.TaskSpec{Proto: "old", Job: "mono", Shard: 0}, api.CodeProtoMismatch, "protocol version"},
		{"unknown job", api.TaskSpec{Proto: api.Version, Job: "nosuch", Shard: 0}, api.CodeUnknownJob, "unknown job"},
		{"key mismatch", api.TaskSpec{Proto: api.Version, Job: "mono", Shard: 0, Key: "mono@OTHER"}, api.CodeKeyMismatch, "cache-key mismatch"},
		{"shard out of range", api.TaskSpec{Proto: api.Version, Job: "grid", Shard: 7, Key: "grid@hash"}, api.CodeBadRequest, "2 shards"},
		{"shard == len(Shards)", api.TaskSpec{Proto: api.Version, Job: "grid", Shard: 2, Key: "grid@hash"}, api.CodeBadRequest, "2 shards"},
		// -1 was an older build's whole-job index; no job has one now.
		{"shard -1", api.TaskSpec{Proto: api.Version, Job: "mono", Shard: -1, Key: "mono@hash"}, api.CodeBadRequest, "invalid shard index -1"},
	}
	for _, c := range cases {
		_, err := exec.Execute(context.Background(), c.spec)
		if err == nil {
			t.Errorf("%s: must fail", c.desc)
			continue
		}
		if ae, ok := api.AsError(err); !ok || ae.Code != c.code {
			t.Errorf("%s: error %v, want a typed %s", c.desc, err, c.code)
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %q missing %q", c.desc, err, c.frag)
		}
	}
}

// Resolution failures are Go errors (retryable elsewhere); job failures
// ride inside the TaskResult (deterministic, never retried).
func TestLocalExecutorSeparatesFailureChannels(t *testing.T) {
	exec := NewLocalExecutor(execRegistry(t))
	res, err := exec.Execute(context.Background(), api.TaskSpec{
		Proto: api.Version, Job: "panics", Shard: 0,
	})
	if err != nil {
		t.Fatalf("a panicking job is a task failure, not a transport error: %v", err)
	}
	if !strings.Contains(res.Err, "kaboom") {
		t.Fatalf("panic not captured in result: %q", res.Err)
	}
}

// fakeExecutor proves the scheduler is executor-agnostic: it resolves
// tasks against the registry but stamps every output, and the stamp must
// surface in the report.
type fakeExecutor struct{ local *LocalExecutor }

func (f *fakeExecutor) Execute(ctx context.Context, spec api.TaskSpec) (api.TaskResult, error) {
	res, err := f.local.Execute(ctx, spec)
	res.Text = "[via fake] " + res.Text
	return res, err
}

func TestRunWithCustomExecutor(t *testing.T) {
	reg := seededRegistry(t, 4)
	rep, err := Run(reg, Options{Workers: 2, Executor: &fakeExecutor{local: NewLocalExecutor(reg)}})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Results {
		if !strings.HasPrefix(r.Text, "[via fake] ") {
			t.Fatalf("%s: executor not consulted: %q", r.Name, r.Text)
		}
	}
}

// A panicking executor implementation must not take down the scheduler.
type bombExecutor struct{}

func (bombExecutor) Execute(context.Context, api.TaskSpec) (api.TaskResult, error) {
	panic("executor bug")
}

func TestRunSurvivesPanickingExecutor(t *testing.T) {
	reg := seededRegistry(t, 3)
	rep, err := Run(reg, Options{Workers: 2, Executor: bombExecutor{}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed() != 3 {
		t.Fatalf("failed = %d, want 3", rep.Failed())
	}
	for _, r := range rep.Results {
		if !strings.Contains(r.Err, "executor panic") {
			t.Fatalf("%s: %q", r.Name, r.Err)
		}
	}
}

// TestRunReportsIdenticalAcrossExecutors is the executor-independence
// guarantee at the report level: the same registry produces identical
// normalised reports under the default local executor and a custom one.
func TestRunReportsIdenticalAcrossExecutors(t *testing.T) {
	build := func() *Registry {
		reg := seededRegistry(t, 6)
		if err := reg.Register(gridJob("grid", 5, "")); err != nil {
			t.Fatal(err)
		}
		return reg
	}
	local, err := Run(build(), Options{Workers: 4, BaseSeed: 11})
	if err != nil {
		t.Fatal(err)
	}
	reg := build()
	viaExec, err := Run(reg, Options{Workers: 4, BaseSeed: 11, Executor: NewNamedLocalExecutor(reg, "elsewhere")})
	if err != nil {
		t.Fatal(err)
	}
	if textOf(local) != textOf(viaExec) {
		t.Fatalf("reports diverged across executors:\n%s\nvs\n%s", textOf(local), textOf(viaExec))
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	reg := NewRegistry()
	must := func(j Job) {
		if err := reg.Register(j); err != nil {
			t.Fatal(err)
		}
	}
	// First job cancels the run mid-flight; with one worker the rest are
	// still queued and must fail fast without running.
	ran := 0
	must(single(Job{Name: "canceller"}, func(jobCtx context.Context) (Output, error) {
		close(started)
		cancel()
		<-jobCtx.Done()
		return Output{}, jobCtx.Err()
	}))
	for i := 0; i < 3; i++ {
		must(single(Job{Name: fmt.Sprintf("queued%d", i)}, func(context.Context) (Output, error) {
			ran++
			return Output{Text: "should not run"}, nil
		}))
	}
	rep, err := Run(reg, Options{Workers: 1, Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if rep.Failed() != 4 {
		t.Fatalf("failed = %d, want 4", rep.Failed())
	}
	if ran != 0 {
		t.Fatalf("%d queued jobs ran after cancellation", ran)
	}
	for _, r := range rep.Results {
		if !strings.Contains(r.Err, context.Canceled.Error()) {
			t.Fatalf("%s: %q", r.Name, r.Err)
		}
	}
}

// TestMarshalPayloadShapes pins the wire normalisation: raw payloads pass
// through byte-identically, live values marshal once.
func TestMarshalPayloadShapes(t *testing.T) {
	if b, err := marshalPayload(nil); err != nil || b != nil {
		t.Fatalf("nil: %s, %v", b, err)
	}
	raw := json.RawMessage(`{"a": 1}`)
	if b, err := marshalPayload(raw); err != nil || string(b) != string(raw) {
		t.Fatalf("raw: %s, %v", b, err)
	}
	if b, err := marshalPayload(map[string]int{"a": 1}); err != nil || string(b) != `{"a":1}` {
		t.Fatalf("live: %s, %v", b, err)
	}
	if _, err := marshalPayload(make(chan int)); err == nil {
		t.Fatal("unmarshalable payload must error")
	}
}
