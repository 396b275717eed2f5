package experiments

import (
	"strings"
	"testing"

	"repro/internal/attack"
)

func sampleResult(iters int, flipsEvery int, acc float64) attack.Result {
	var r attack.Result
	for i := 1; i <= iters; i++ {
		if flipsEvery > 0 && i%flipsEvery == 0 {
			r.TotalFlips++
		} else {
			r.TotalDenied++
		}
		r.Records = append(r.Records, attack.IterationRecord{
			Iteration: i, Flips: r.TotalFlips, Denied: r.TotalDenied, Accuracy: acc,
		})
	}
	return r
}

func TestFormatFig1aSubsamplesRows(t *testing.T) {
	r := &Fig1aResult{
		CleanAcc: 0.9,
		Targeted: sampleResult(100, 1, 0.1),
		Random:   sampleResult(100, 1, 0.88),
	}
	out := FormatFig1a(r)
	lines := strings.Count(out, "\n")
	if lines > 20 {
		t.Fatalf("output too long (%d lines); must subsample", lines)
	}
	if !strings.Contains(out, "90.00") || !strings.Contains(out, "final:") {
		t.Fatalf("missing content:\n%s", out)
	}
}

func TestFormatFig7aMarksCompromise(t *testing.T) {
	out := FormatFig7a(fig7aCurves(t, 80000, 40000))
	if !strings.Contains(out, "*") {
		t.Fatalf("SHADOW1000 at 8e4 BFA must be marked compromised:\n%s", out)
	}
	if !strings.Contains(out, "DL") {
		t.Fatal("missing DL column")
	}
}

func TestFormatFig7bColumns(t *testing.T) {
	out := FormatFig7b(fig7bBars(t))
	for _, frag := range []string{"1000", "8000", "SHADOW", "DRAM-Locker"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("missing %q:\n%s", frag, out)
		}
	}
}

func TestFormatMonteCarloIncludesPaperColumn(t *testing.T) {
	rows := []MonteCarloRow{{Variation: 0.2, Measured: 0.094, Paper: 0.096}}
	out := FormatMonteCarlo(rows)
	if !strings.Contains(out, "9.40") || !strings.Contains(out, "9.60") {
		t.Fatalf("expected measured and paper percentages:\n%s", out)
	}
}

func TestFormatTable2AlignsRows(t *testing.T) {
	rows := []Table2Row{
		{Model: "Baseline", CleanAcc: 0.9171, PostAttackAcc: 0.109, BitFlips: 20},
		{Model: "DRAM-Locker", CleanAcc: 0.9171, PostAttackAcc: 0.9171, BitFlips: 1150, Note: "denied"},
	}
	out := FormatTable2(rows)
	if !strings.Contains(out, "91.71") || !strings.Contains(out, "1150") || !strings.Contains(out, "denied") {
		t.Fatalf("bad table:\n%s", out)
	}
}

func TestFormatFig8PairHandlesUnequalLengths(t *testing.T) {
	r := &Fig8Result{
		Arch: ArchResNet20, Classes: 10, CleanAcc: 0.95, LockedRows: 7,
		Without: sampleResult(20, 1, 0.1),
		With:    sampleResult(10, 0, 0.95),
	}
	out := FormatFig8(r)
	if !strings.Contains(out, "locked rows=7") {
		t.Fatalf("missing locked rows:\n%s", out)
	}
}
