package main

import (
	"context"
	"encoding/json"
	"os"
	"slices"
	"testing"

	"repro/internal/api"
	"repro/internal/engine"
)

// runQueue sets a queue workload up in e and drives it for seconds,
// returning the passes and, when e has a tracer, the per-layer metrics.
func runQueue(t *testing.T, name string, seconds float64, e env) ([]passResult, metrics) {
	t.Helper()
	w, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	e.seed, e.tmpDir, e.label = 1, t.TempDir(), name
	r, err := setupRig(ctx, w, e)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	passes, err := measure(ctx, r, seconds, false)
	if err != nil {
		t.Fatal(err)
	}
	var layers metrics
	if e.tracer != nil {
		layers = r.layers(passes)
	}
	return passes, layers
}

func TestQueueWorkloadsSmoke(t *testing.T) {
	for _, name := range []string{"queue-lease", "queue-plane"} {
		passes, _ := runQueue(t, name, 1, env{})
		attempted, failed, failures := totals(passes)
		if attempted == 0 || failed != 0 {
			t.Fatalf("%s: %d attempted, %d failed: %v", name, attempted, failed, failures)
		}
		m := endToEnd(passes)
		for _, d := range endToEndMetrics {
			if _, ok := m[d.name]; !ok && d.name != "setup_s" {
				t.Errorf("%s: %s not measured", name, d.name)
			}
		}
	}
}

// corrupter flips one byte of every result's text, as a broken worker
// or transport would.
type corrupter struct{ next engine.Executor }

func (c corrupter) Execute(ctx context.Context, spec api.TaskSpec) (api.TaskResult, error) {
	res, err := c.next.Execute(ctx, spec)
	if res.Text != "" {
		res.Text = "#" + res.Text[1:]
	}
	return res, err
}

// TestTracedQueueLayers drives both queue workloads with every layer
// wrapper installed (under -race, from the scheduler, worker and server
// goroutines at once) and checks the structural counts.
func TestTracedQueueLayers(t *testing.T) {
	for _, c := range []struct {
		name   string
		leases float64
	}{{"queue-lease", 1}, {"queue-plane", 0}} {
		tr := newTracer()
		passes, m := runQueue(t, c.name, 0.5, env{tracer: tr})
		if _, failed, failures := totals(passes); failed != 0 {
			t.Fatalf("%s: %d failed: %v", c.name, failed, failures)
		}
		if got := m["queue.leases_per_task"].Value; got != c.leases {
			t.Errorf("%s: %g leases per task, want %g", c.name, got, c.leases)
		}
		if m["queue.journal_appends_per_task"].Value <= 0 {
			t.Errorf("%s: no journal appends counted", c.name)
		}
		if len(tr.snapshot()) == 0 {
			t.Errorf("%s: no spans recorded", c.name)
		}
	}
}

func TestCorruptedResultsFailTheRun(t *testing.T) {
	passes, _ := runQueue(t, "queue-lease", 0.3, env{wrapWorker: func(e engine.Executor) engine.Executor { return corrupter{e} }})
	res := runResult{Workload: "queue-lease"}
	res.Attempted, res.Failed, res.Failures = totals(passes)
	if res.Failed == 0 {
		t.Fatalf("corrupted results passed the check (%d attempted)", res.Attempted)
	}
	if _, correct := summaryLine([]runResult{res}); correct {
		t.Fatal("a run with failed checks reports correct")
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and the metrics
// the program reports in step.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	b, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("workloads %v, want %v", got, want)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		var got, want []string
		for _, m := range listed {
			got = append(got, m.Name+" "+m.Unit)
		}
		for _, d := range defs {
			want = append(want, d.name+" "+d.unit)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s metrics %v, want %v", kind, got, want)
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
}
