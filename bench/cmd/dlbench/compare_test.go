package main

import (
	"os"
	"strings"
	"testing"
)

func writeFile(t *testing.T, path, s string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
		t.Fatal(err)
	}
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestCompareDecisionRule(t *testing.T) {
	// Ten runs with a 2% spread around 100.
	steady := []float64{99, 101, 100, 98, 102, 100, 99, 101, 100, 100}
	noisy := []float64{80, 120, 100, 70, 130, 100, 90, 110, 85, 115}
	for _, c := range []struct {
		name       string
		base, head []float64
		lower      bool
		bound      float64
		median     bool // judge the median alone, as for set-up time
		want       string
	}{
		{"same code", steady, steady, true, 0.1, false, verdictSame},
		{"faster in every pair", steady, scaled(steady, 0.8), true, 0.1, false, verdictGain},
		{"higher-is-better gain", steady, scaled(steady, 1.2), false, 0.1, false, verdictGain},
		{"slower beyond the bound", steady, scaled(steady, 1.2), true, 0.1, false, verdictRegression},
		{"slower within the bound", steady, scaled(steady, 1.05), true, 0.1, false, verdictSame},
		{"spread wider than the bound", noisy, scaled(noisy, 0.97), true, 0.1, false, verdictUnresolved},
		{"noisy but every run better", noisy, scaled(steady, 0.5), true, 0.1, false, verdictGain},
		// Better median but only half the pairs won: no gain claimed.
		{"mixed pairs", steady, []float64{90, 110, 90, 110, 90, 110, 90, 110, 90, 95}, true, 0.25, false, verdictSame},
		{"noisy set-up, same median", noisy, scaled(noisy, 1.05), true, 0.1, true, verdictSame},
		{"noisy set-up, work moved in", noisy, scaled(noisy, 3), true, 0.1, true, verdictRegression},
	} {
		if got := compareMetric(c.base, c.head, c.lower, c.bound, !c.median).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareMainReportsRegression(t *testing.T) {
	dir := t.TempDir()
	spec := dir + "/BENCHMARK.json"
	writeFile(t, spec, `{"end_to_end":[{"name":"wall_s","unit":"s","better":"lower","bound":0.1}]}`)
	mk := func(f float64) []runResult {
		var runs []runResult
		for _, v := range []float64{10, 10.1, 9.9, 10, 10.05} {
			runs = append(runs, runResult{Workload: "queue-lease", Metrics: metrics{"wall_s": {Value: v * f, Unit: "s"}}})
		}
		return runs
	}
	if err := writeResults(dir+"/a.json", mk(1), false); err != nil {
		t.Fatal(err)
	}
	if err := writeResults(dir+"/b.json", mk(1.3), false); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if code := compareMain([]string{"-benchmark", spec, dir + "/a.json", dir + "/b.json"}, &out); code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), verdictRegression) {
		t.Fatalf("no regression reported:\n%s", out.String())
	}
	out.Reset()
	if code := compareMain([]string{"-benchmark", spec, dir + "/a.json", dir + "/a.json"}, &out); code != 0 {
		t.Fatalf("same runs: exit %d, want 0; output:\n%s", code, out.String())
	}
}
