package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/engine"
)

// pinnedReports maps a job to the SHA-256 of its report entry (see
// reportDigest). They cover every model-free job at every preset, whose
// DRAM models (the rowhammer engine, the controller, the baseline
// defenses) no model-bearing job reaches, plus tiny/fig1a and the tiny
// ResNet-20 jobs (fig8a, fig8pta, perf, table2), which run the DRAM
// executor, the PTA, trace replay and the controller on a trained
// victim. bench/golden.json pins those ResNet-20 payloads too, but only
// dlbench checks it.
var pinnedReports = map[string]string{
	"tiny/fig1b":    "df30914ec125e77e67783cbe60d4dca609ee8737c02450fa8fe07c55709094f1",
	"tiny/mc":       "b3dffd1c323b4388d0cddc3516392586d48b7aca0ed756f62b1e53910ce54b13",
	"tiny/table1":   "70f1328ae5bf0463eb7ec9116e8490b1bd7e5fbba57fd93d884ae179d59cbd44",
	"tiny/fig7a":    "3409f9de1eccda44f4d78c03e11b6037c9e7df7ff23cd65bf5265de1875def17",
	"tiny/fig7b":    "cde7b60cbc61be242f19f2642a808533345d465c1436dbb92e71cb6c50cef75f",
	"tiny/defense":  "4a7897974a5bbfe72e396edba80d6bd9ce29436a9b4c2e32bf7613dfaef4f923",
	"tiny/fig1a":    "019672c27c6c15bfbecb09430a65188bcfa5d467204a78d1627adad0bee01e3e",
	"tiny/fig8a":    "e6b4205bf92c150371b6e45fe6c25a7e0dee94e71c66bf594534649df2aae406",
	"tiny/fig8pta":  "c03300b7e7d307d1310bb1cb28616c91d861f338e87fdb46b52523ad3a697dbe",
	"tiny/perf":     "948cd21629f98bc74a4f7d3fa3d783efb2aee643c7dc6d0c710b656591b3e80a",
	"tiny/table2":   "8224ff821a229aaabe5b6bc7c9183eabdb272df90aa470e04b569766fcf7763a",
	"small/fig1b":   "df30914ec125e77e67783cbe60d4dca609ee8737c02450fa8fe07c55709094f1",
	"small/mc":      "6730a0eaa2159929536656d1d3f5cd65c3b448afee5c211894b330a5e0a298e7",
	"small/table1":  "70f1328ae5bf0463eb7ec9116e8490b1bd7e5fbba57fd93d884ae179d59cbd44",
	"small/fig7a":   "3409f9de1eccda44f4d78c03e11b6037c9e7df7ff23cd65bf5265de1875def17",
	"small/fig7b":   "cde7b60cbc61be242f19f2642a808533345d465c1436dbb92e71cb6c50cef75f",
	"small/defense": "c6e98aec7b38e766c5f8f7d9e7135515524f952b4865eb5c41cc17f55ebb2e43",
	"paper/fig1b":   "df30914ec125e77e67783cbe60d4dca609ee8737c02450fa8fe07c55709094f1",
	"paper/mc":      "fceb1d3a0fa3eb7a549bc553e4cedc5405e895c7abf0f64b5c034f06657d9c13",
	"paper/table1":  "70f1328ae5bf0463eb7ec9116e8490b1bd7e5fbba57fd93d884ae179d59cbd44",
	"paper/fig7a":   "3409f9de1eccda44f4d78c03e11b6037c9e7df7ff23cd65bf5265de1875def17",
	"paper/fig7b":   "cde7b60cbc61be242f19f2642a808533345d465c1436dbb92e71cb6c50cef75f",
	"paper/defense": "f338d0c87edf436248bd03113ae1915c6f3ca4852fe185fc5b42426601c93463",
}

// trainsVictim marks the pinned jobs that train a victim, which -short
// leaves out.
var trainsVictim = map[string]bool{
	"tiny/fig1a": true, "tiny/fig8a": true, "tiny/fig8pta": true,
	"tiny/perf": true, "tiny/table2": true,
}

// reportDigest fingerprints a job's Text and its Data as JSON.
func reportDigest(t *testing.T, r engine.Result) string {
	t.Helper()
	data, err := json.Marshal(r.Data)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write([]byte(r.Text))
	h.Write([]byte{0})
	h.Write(data)
	return hex.EncodeToString(h.Sum(nil))
}

// TestReportsMatchPinnedDigests runs the pinned jobs through the engine
// and compares each report entry with its digest. Floating-point results
// are recorded on amd64; -short leaves out the jobs that train a victim
// (tiny/fig1a's VGG-11 and the tiny ResNet-20 jobs).
func TestReportsMatchPinnedDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are recorded on amd64")
	}
	reg, err := BuildRegistry(PresetNames())
	if err != nil {
		t.Fatal(err)
	}
	var jobs []string
	for name := range pinnedReports {
		if testing.Short() && trainsVictim[name] {
			continue
		}
		jobs = append(jobs, name)
	}
	rep, err := engine.Run(reg, engine.Options{Filter: jobs})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != len(jobs) {
		t.Fatalf("ran %d jobs, want %d", len(rep.Results), len(jobs))
	}
	for _, r := range rep.Results {
		if got := reportDigest(t, r); got != pinnedReports[r.Name] {
			t.Errorf("%s: digest %s, pinned %s", r.Name, got, pinnedReports[r.Name])
		}
	}
}
