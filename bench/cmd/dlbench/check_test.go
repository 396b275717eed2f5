package main

import (
	"encoding/json"
	"slices"
	"testing"
	"time"

	"repro/internal/engine"
)

func sampleReport() *engine.Report {
	return &engine.Report{Workers: 2, Wall: time.Second, Results: []engine.Result{
		{Name: "tiny/mc", Title: "MC", Text: "rows\n", Data: []int{1, 2}, Seed: 7, Duration: time.Millisecond},
		{Name: "tiny/fig1b", Text: "t\n", Data: json.RawMessage(`{"a":1}`), Seed: 9, Duration: 2 * time.Millisecond},
	}}
}

func TestNormaliserStripsOnlyTimingFields(t *testing.T) {
	want, err := normalise(sampleReport())
	if err != nil {
		t.Fatal(err)
	}
	same := []func(*engine.Report){
		func(r *engine.Report) { r.Results[0].Duration = time.Hour },
		func(r *engine.Report) { r.Results[1].Cached = true },
		func(r *engine.Report) { r.Wall, r.Workers = time.Minute, 8 },
		func(r *engine.Report) { r.Results[0].Title = "" }, // titles come from the registry, not the run
		// A typed payload and its raw JSON replay are the same result.
		func(r *engine.Report) { r.Results[0].Data = json.RawMessage(`[1,2]`) },
	}
	for i, mutate := range same {
		rep := sampleReport()
		mutate(rep)
		got, err := normalise(rep)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(got, want, sameResult) {
			t.Errorf("timing-only change %d made the reports differ", i)
		}
	}
	differ := []func(*engine.Report){
		func(r *engine.Report) { r.Results[0].Name = "tiny/mc2" },
		func(r *engine.Report) { r.Results[0].Seed++ },
		func(r *engine.Report) { r.Results[0].Text = "other\n" },
		func(r *engine.Report) { r.Results[1].Data = json.RawMessage(`{"a":2}`) },
		func(r *engine.Report) { r.Results[1].Err = "boom" },
		func(r *engine.Report) { r.Results = r.Results[:1] },
	}
	for i, mutate := range differ {
		rep := sampleReport()
		mutate(rep)
		got, err := normalise(rep)
		if err != nil {
			t.Fatal(err)
		}
		if slices.EqualFunc(got, want, sameResult) {
			t.Errorf("content change %d went unnoticed", i)
		}
	}
}

func TestReseedRestampsJobSeeds(t *testing.T) {
	ref, err := normalise(sampleReport())
	if err != nil {
		t.Fatal(err)
	}
	got := reseed(ref, 42)
	for i, r := range got {
		if want := engine.JobSeed(42, r.Name); r.Seed != want {
			t.Errorf("%s: seed %d, want %d", r.Name, r.Seed, want)
		}
		r.Seed = ref[i].Seed
		if !sameResult(r, ref[i]) {
			t.Errorf("%s: reseed changed more than the seed", r.Name)
		}
	}
}

func TestInvariantsFlagBrokenClaims(t *testing.T) {
	ok := []normResult{
		// Fewer flips land with DRAM-Locker; accuracy may still end lower.
		{Name: "tiny/fig8b", Data: json.RawMessage(`{"Without":{"TotalFlips":8,"Records":[{"Accuracy":0.85}]},"With":{"TotalFlips":1,"TotalDenied":7,"Records":[{"Accuracy":0.8375}]}}`)},
		{Name: "tiny/fig8pta", Data: json.RawMessage(`{"With":{"TotalFlips":0}}`)},
		{Name: "tiny/perf", Data: json.RawMessage(`{"DefendedFlips":0}`)},
		{Name: "tiny/table2", Data: json.RawMessage(`[{"Model":"Baseline ResNet-20","PostAttackAcc":0.1},{"Model":"DRAM-Locker","CleanAcc":0.9,"PostAttackAcc":0.9}]`)},
	}
	if v := invariantViolations(ok); len(v) != 0 {
		t.Fatalf("violations on holding claims: %v", v)
	}
	bad := []normResult{
		{Name: "tiny/fig8a", Data: json.RawMessage(`{"Without":{"TotalFlips":8},"With":{"TotalFlips":8}}`)},
		{Name: "tiny/fig8pta", Data: json.RawMessage(`{"With":{"TotalFlips":3}}`)},
		{Name: "tiny/perf", Data: json.RawMessage(`{"DefendedFlips":1}`)},
		{Name: "tiny/table2", Data: json.RawMessage(`[{"Model":"Baseline ResNet-20","PostAttackAcc":0.1},{"Model":"DRAM-Locker","CleanAcc":0.9,"PostAttackAcc":0.8}]`)},
	}
	if v := invariantViolations(bad); len(v) != 4 {
		t.Fatalf("got %d violations, want 4: %v", len(v), v)
	}
}
