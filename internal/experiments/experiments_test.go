package experiments

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/overhead"
	"repro/internal/sim"
)

func TestPresetByName(t *testing.T) {
	for _, name := range []string{"tiny", "small", "paper"} {
		p, err := PresetByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name != name {
			t.Fatalf("preset name %q", p.Name)
		}
	}
	if _, err := PresetByName("huge"); err == nil {
		t.Fatal("unknown preset must fail")
	}
}

func TestPresetsAreInternallyConsistent(t *testing.T) {
	for _, p := range []Preset{Tiny(), Small(), PaperScale()} {
		if p.AttackBatch > p.TestN {
			t.Fatalf("%s: attack batch exceeds test set", p.Name)
		}
		if p.EvalN > p.TestN {
			t.Fatalf("%s: eval size exceeds test set", p.Name)
		}
		if err := p.Geometry.Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if err := p.hammerConfig().Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if err := p.controllerConfig().Validate(); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
	}
}

func TestFig1bThresholdValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("hammers 139k activations per generation")
	}
	rows, err := Fig1b()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.FlipAtTRH {
			t.Fatalf("%s: flip at exactly TRH", r.Generation)
		}
		if !r.FlipPastTRH {
			t.Fatalf("%s: no flip past TRH", r.Generation)
		}
	}
}

func TestMonteCarloExperiment(t *testing.T) {
	var rows []MonteCarloRow
	runTiny(t, "mc", &rows)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Measured != 0 {
		t.Fatalf("nominal corner rate %g", rows[0].Measured)
	}
	if rows[2].Measured <= rows[1].Measured {
		t.Fatal("error rate must grow with variation")
	}
}

func TestTable1Experiment(t *testing.T) {
	var reports []overhead.Report
	out := runTiny(t, "table1", &reports).Text
	if len(reports) != 10 {
		t.Fatalf("rows = %d", len(reports))
	}
	for _, frag := range []string{"DRAM-Locker", "SHADOW", "Graphene", "56KB", "0.02%"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("Table I output missing %q:\n%s", frag, out)
		}
	}
}

func TestFig7Data(t *testing.T) {
	var curves []sim.Fig7aCurve
	runTiny(t, "fig7a", &curves)
	if len(curves) != 5 {
		t.Fatalf("curves = %d", len(curves))
	}
	var bars []sim.Fig7bBar
	runTiny(t, "fig7b", &bars)
	for _, b := range bars {
		if b.LockerDays <= b.ShadowDays {
			t.Fatalf("trh=%d: DL %f <= SHADOW %f", b.Threshold, b.LockerDays, b.ShadowDays)
		}
	}
	if bars[0].LockerDays < 500 {
		t.Fatalf("DL @1k = %.0f days, paper reports >500", bars[0].LockerDays)
	}
	if bars[3].LockerDays < 4000 {
		t.Fatalf("DL @8k = %.0f days, paper annotates >4000", bars[3].LockerDays)
	}
}

// Fig8 at tiny scale is the repository's main integration test: it trains
// a victim, builds the full DRAM stack twice and runs the BFA end to end.
// It is shared by several checks below.
var (
	fig8Once sync.Once
	fig8Res  *Fig8Result
	fig8Err  error
)

func fig8Tiny(t *testing.T) *Fig8Result {
	t.Helper()
	fig8Once.Do(func() {
		fig8Res, fig8Err = Fig8(context.Background(), Tiny(), ArchResNet20, 10)
	})
	if fig8Err != nil {
		t.Fatal(fig8Err)
	}
	return fig8Res
}

func TestFig8ShapeMatchesPaper(t *testing.T) {
	r := fig8Tiny(t)
	if r.CleanAcc < 0.6 {
		t.Fatalf("victim clean accuracy %.2f too low to be meaningful", r.CleanAcc)
	}
	if r.LockedRows == 0 {
		t.Fatal("defended run locked nothing")
	}
	// Undefended: every iteration lands a flip.
	if r.Without.TotalFlips == 0 || r.Without.TotalDenied != 0 {
		t.Fatalf("undefended run: %d flips %d denied", r.Without.TotalFlips, r.Without.TotalDenied)
	}
	// Defended: most attempts denied (9.6% leak).
	if r.With.TotalDenied == 0 {
		t.Fatal("defended run denied nothing")
	}
	// The paper's headline: with DRAM-Locker the attacker needs more
	// iterations for the same damage; at equal iteration count the
	// defended accuracy must not be lower than the undefended one.
	if r.With.FinalAccuracy() < r.Without.FinalAccuracy() {
		t.Fatalf("defense made things worse: %.3f vs %.3f",
			r.With.FinalAccuracy(), r.Without.FinalAccuracy())
	}
}

func TestFig8Formatting(t *testing.T) {
	r := fig8Tiny(t)
	out := FormatFig8(r)
	for _, frag := range []string{"without DL", "with DL", "denied"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("output missing %q:\n%s", frag, out)
		}
	}
}

func TestFig8PTAShape(t *testing.T) {
	r, err := Fig8PTA(context.Background(), Tiny())
	if err != nil {
		t.Fatal(err)
	}
	// PTA without defense wipes whole weight rows: collapse is fast.
	if r.Without.FinalAccuracy() >= r.CleanAcc/2 {
		t.Fatalf("undefended PTA barely hurt: %.3f (clean %.3f)",
			r.Without.FinalAccuracy(), r.CleanAcc)
	}
	// Defended: page-table rows locked, accuracy essentially preserved.
	if r.With.FinalAccuracy() < r.CleanAcc-0.15 {
		t.Fatalf("defended PTA accuracy %.3f, clean %.3f", r.With.FinalAccuracy(), r.CleanAcc)
	}
	if r.With.TotalDenied == 0 {
		t.Fatal("defended PTA denied nothing")
	}
}

func TestTrainVictimProducesUsableModel(t *testing.T) {
	p := Tiny()
	v, err := NewVictim(context.Background(), p, ArchResNet20, 10)
	if err != nil {
		t.Fatal(err)
	}
	if v.CleanAcc < 0.5 {
		t.Fatalf("clean accuracy %.2f", v.CleanAcc)
	}
	if v.QM.TotalWeights() == 0 {
		t.Fatal("no quantized weights")
	}
	if v.AttackBatch.X.Shape[0] != p.AttackBatch {
		t.Fatalf("attack batch size %d", v.AttackBatch.X.Shape[0])
	}
	if _, err := NewVictim(context.Background(), p, Arch("mlp"), 10); err == nil {
		t.Fatal("unknown arch must fail")
	}
}
