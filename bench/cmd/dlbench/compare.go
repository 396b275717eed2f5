package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json compare reads: each
// end-to-end metric's direction and regression bound.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// Verdicts of one workload x metric comparison.
const (
	verdictGain       = "gain"
	verdictSame       = "within bound"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
)

// comparison is one workload x metric: each side's quartiles, the
// pairwise win fraction of the head side, the relative change of the
// medians (positive = worse), and the verdict.
type comparison struct {
	base, head [3]float64
	wins       int
	pairs      int
	worse      float64
	spread     float64
	verdict    string
}

// compareMetric applies the claim rules: a gain needs the head side to
// win at least nine tenths of the run pairs and the medians to differ by
// more than the base side's interquartile distance; a regression is a
// median worse by more than the bound; and, with judgeSpread, where
// either side's spread exceeds the bound the metric is unresolved,
// unless every head run beats every base run.
func compareMetric(base, head []float64, lowerIsBetter bool, bound float64, judgeSpread bool) comparison {
	var c comparison
	c.base[0], c.base[1], c.base[2] = quartiles(base)
	c.head[0], c.head[1], c.head[2] = quartiles(head)
	better := func(x, y float64) bool { // x is better than y
		if lowerIsBetter {
			return x < y
		}
		return x > y
	}
	c.pairs = min(len(base), len(head))
	for i := range c.pairs {
		if better(head[i], base[i]) {
			c.wins++
		}
	}
	c.worse = (c.head[1] - c.base[1]) / math.Abs(c.base[1])
	if !lowerIsBetter {
		c.worse = -c.worse
	}
	allBetter := better(worstOf(head, lowerIsBetter), bestOf(base, lowerIsBetter))
	c.spread = max(spread(base), spread(head))
	switch {
	case judgeSpread && c.spread > bound && !allBetter:
		c.verdict = verdictUnresolved
	case c.worse > bound:
		c.verdict = verdictRegression
	case c.worse < 0 && float64(c.wins) >= 0.9*float64(c.pairs) &&
		math.Abs(c.head[1]-c.base[1]) > c.base[2]-c.base[0]:
		c.verdict = verdictGain
	default:
		c.verdict = verdictSame
	}
	return c
}

func bestOf(xs []float64, lowerIsBetter bool) float64 {
	if lowerIsBetter {
		return slices.Min(xs)
	}
	return slices.Max(xs)
}

func worstOf(xs []float64, lowerIsBetter bool) float64 {
	return bestOf(xs, !lowerIsBetter)
}

// compareMain implements `dlbench compare BASE HEAD`: BASE and HEAD are
// results files (or comma-separated lists of them) holding untraced runs
// of two commits, or two sets of runs of one commit. It prints one row
// per workload and end-to-end metric and exits non-zero when any row is
// a regression or unresolved.
func compareMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("dlbench compare", flag.ContinueOnError)
	specPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding each metric's bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: dlbench compare [-benchmark BENCHMARK.json] BASE HEAD")
		return 2
	}
	var spec benchmarkSpec
	b, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dlbench compare:", err)
		return 2
	}
	sides := make([]map[string][]runResult, 2)
	for i, arg := range fs.Args() {
		sides[i] = make(map[string][]runResult)
		for _, path := range strings.Split(arg, ",") {
			runs, err := readResults(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dlbench compare:", err)
				return 2
			}
			for _, r := range runs {
				if !r.Trace {
					sides[i][r.Workload] = append(sides[i][r.Workload], r)
				}
			}
		}
	}
	fmt.Fprintf(stdout, "base %s\nhead %s\n", fs.Arg(0), fs.Arg(1))
	fmt.Fprintf(stdout, "%-13s %-16s %-34s %-34s %8s %6s  %s\n",
		"workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "change", "wins", "verdict")
	bad := 0
	for _, w := range workloads {
		base, head := sides[0][w.name], sides[1][w.name]
		if len(base) == 0 || len(head) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			a, b := values(base, m.Name), values(head, m.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			// Set-up time is judged on its median alone. A set-up of
			// milliseconds swings with the host's speed from run to run,
			// while work moved into set-up shifts the median far beyond
			// the bound.
			c := compareMetric(a, b, m.Better == "lower", m.Bound, m.Name != "setup_s")
			verdict := c.verdict
			if verdict == verdictUnresolved {
				verdict = fmt.Sprintf("%s (spread %.1f%% > bound %.0f%%)", verdict, 100*c.spread, 100*m.Bound)
			}
			if c.verdict == verdictRegression || c.verdict == verdictUnresolved {
				bad++
			}
			fmt.Fprintf(stdout, "%-13s %-16s %-34s %-34s %+7.1f%% %2d/%-3d  %s\n",
				w.name, m.Name, quartileText(c.base, m.Unit), quartileText(c.head, m.Unit),
				100*c.worse, c.wins, c.pairs, verdict)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

func values(runs []runResult, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func quartileText(q [3]float64, unit string) string {
	return fmt.Sprintf("%.4g %s [%.4g, %.4g]", q[1], unit, q[0], q[2])
}
