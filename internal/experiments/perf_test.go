package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestPerfMatchesPaperClaims(t *testing.T) {
	r, err := Perf(context.Background(), Tiny())
	if err != nil {
		t.Fatal(err)
	}
	// Claim 1 (§IV-B): skipped attacker instructions eliminate their
	// latency, so the defended total latency is *lower* under attack.
	if r.Defended.TotalLatency >= r.Undefended.TotalLatency {
		t.Fatalf("defended total latency %v not below undefended %v",
			r.Defended.TotalLatency, r.Undefended.TotalLatency)
	}
	// Claim 2: the victim workload is essentially unaffected (adjacent
	// rows are locked, never the weights).
	if r.VictimSlowdown > 1.02 {
		t.Fatalf("victim slowdown %.4f, want <= 1.02", r.VictimSlowdown)
	}
	// Claim 3: protection is complete at the nominal corner.
	if r.DefendedFlips != 0 {
		t.Fatalf("defended run leaked %d flips", r.DefendedFlips)
	}
	if r.UndefendedFlips == 0 {
		t.Fatal("undefended run must demonstrate real flips")
	}
	if r.Defended.Denied == 0 {
		t.Fatal("defended run must deny the hammer bursts")
	}

	out := FormatPerf(r)
	for _, frag := range []string{"victim slowdown", "denied requests", "disturbance flips"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("report missing %q:\n%s", frag, out)
		}
	}
}
