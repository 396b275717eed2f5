package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/engine"
	"repro/internal/experiments"
)

// normResult is one job's report entry with the fields that vary from
// run to run (duration, the cached flag) stripped: two correct runs of
// the same jobs at the same seeds produce identical normResults at any
// worker count or transport.
type normResult struct {
	Name string          `json:"name"`
	Seed uint64          `json:"seed"`
	Text string          `json:"text,omitempty"`
	Data json.RawMessage `json:"data,omitempty"`
	Err  string          `json:"error,omitempty"`
}

// normalise strips a report down to its normResults, in report order.
func normalise(rep *engine.Report) ([]normResult, error) {
	out := make([]normResult, len(rep.Results))
	for i, r := range rep.Results {
		n := normResult{Name: r.Name, Seed: r.Seed, Text: r.Text, Err: r.Err}
		if r.Data != nil {
			b, err := json.Marshal(r.Data)
			if err != nil {
				return nil, fmt.Errorf("normalise %s: %w", r.Name, err)
			}
			n.Data = b
		}
		out[i] = n
	}
	return out, nil
}

// reseed re-stamps a reference's job seeds for another scheduler base
// seed. The queue workloads compute their reference once, then give
// every pass a fresh base seed; the model-free jobs ignore the job seed,
// so only the stamp differs.
func reseed(ref []normResult, base uint64) []normResult {
	out := make([]normResult, len(ref))
	for i, r := range ref {
		r.Seed = engine.JobSeed(base, r.Name)
		out[i] = r
	}
	return out
}

// sameResult reports whether got succeeded and equals want.
func sameResult(got, want normResult) bool {
	return got.Err == "" && got.Name == want.Name && got.Seed == want.Seed &&
		got.Text == want.Text && got.Err == want.Err && bytes.Equal(got.Data, want.Data)
}

// digest fingerprints one normalised job result.
func digest(r normResult) string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // normResult holds only strings, numbers and raw JSON
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// golden holds the digests of compute jobs at pinned preset seeds, keyed
// "<job>@<preset seed>". Floating-point results are only reproducible on
// the architecture they were recorded on, so the digests apply there
// alone.
type golden struct {
	GOARCH  string            `json:"goarch"`
	Digests map[string]string `json:"digests"`
}

func loadGolden(path string) (*golden, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &g, nil
}

// goldenKey names a job's result at a preset seed.
func goldenKey(job string, presetSeed uint64) string {
	return fmt.Sprintf("%s@%d", job, presetSeed)
}

// want returns the pinned digest for a job, if one applies here.
func (g *golden) want(key string) (string, bool) {
	if g == nil || g.GOARCH != runtime.GOARCH {
		return "", false
	}
	d, ok := g.Digests[key]
	return d, ok
}

// violation is one broken claim in one job's result.
type violation struct{ job, msg string }

// invariantViolations checks the paper's DRAM-Locker claims on a
// compute pass's results, which must hold at any seed. The claims are
// about flips: at the tiny scale eight flips barely move accuracy, so
// which run ends a point higher is down to the seed (a fig8b victim can
// end at 83.75% with DRAM-Locker's one leaked flip and 85% without it).
func invariantViolations(results []normResult) []violation {
	var bad []violation
	fail := func(job, format string, args ...any) {
		bad = append(bad, violation{job, job + ": " + fmt.Sprintf(format, args...)})
	}
	for _, r := range results {
		if r.Err != "" {
			continue // counted as a failed job already
		}
		switch jobExp(r.Name) {
		case "fig8a", "fig8b":
			var f experiments.Fig8Result
			if err := json.Unmarshal(r.Data, &f); err != nil {
				fail(r.Name, "decode: %v", err)
			} else if f.With.TotalDenied == 0 || f.With.TotalFlips >= f.Without.TotalFlips {
				fail(r.Name, "DRAM-Locker denied %d attempts and let %d of the attacker's flips land, against %d without it",
					f.With.TotalDenied, f.With.TotalFlips, f.Without.TotalFlips)
			}
		case "fig8pta":
			var f experiments.Fig8PTAResult
			if err := json.Unmarshal(r.Data, &f); err != nil {
				fail(r.Name, "decode: %v", err)
			} else if f.With.TotalFlips != 0 {
				fail(r.Name, "%d flips landed on the defended page table", f.With.TotalFlips)
			}
		case "perf":
			var f experiments.PerfResult
			if err := json.Unmarshal(r.Data, &f); err != nil {
				fail(r.Name, "decode: %v", err)
			} else if f.DefendedFlips != 0 {
				fail(r.Name, "%d disturbance flips landed on the defended system", f.DefendedFlips)
			}
		case "table2":
			var rows []experiments.Table2Row
			if err := json.Unmarshal(r.Data, &rows); err != nil {
				fail(r.Name, "decode: %v", err)
				continue
			}
			// Table II runs DRAM-Locker with an ideal SWAP: no flip lands,
			// so the attack costs it no accuracy.
			_, dl, ok := table2Rows(rows)
			if !ok {
				fail(r.Name, "baseline or DRAM-Locker row missing")
			} else if dl.PostAttackAcc < dl.CleanAcc {
				fail(r.Name, "DRAM-Locker accuracy fell from %.4f to %.4f under attack",
					dl.CleanAcc, dl.PostAttackAcc)
			}
		}
	}
	return bad
}

// table2Rows picks the baseline and DRAM-Locker rows of Table II.
func table2Rows(rows []experiments.Table2Row) (base, dl experiments.Table2Row, ok bool) {
	var haveBase, haveDL bool
	for _, r := range rows {
		switch r.Model {
		case "Baseline ResNet-20":
			base, haveBase = r, true
		case "DRAM-Locker":
			dl, haveDL = r, true
		}
	}
	return base, dl, haveBase && haveDL
}

// jobExp strips the preset from a job name ("tiny/fig8a" -> "fig8a").
func jobExp(name string) string {
	_, exp, _ := strings.Cut(name, "/")
	return exp
}
