package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/engine"
)

// CacheVersion stamps every result persisted by the on-disk cache
// (engine.OpenDiskCache). Bump it whenever a change could alter any
// experiment's output — a formula fix, a formatting tweak, a new shard
// layout — so stale entries written by older code are skipped on load.
// Preset knob changes need no bump: they alter the preset hash inside the
// cache key.
const CacheVersion = "exp1"

// JobNames lists the experiment ids registered per preset, in the order
// the paper presents them (cheap model-free tables first, then the
// training-heavy attack panels).
func JobNames() []string {
	return []string{
		"fig1b", "mc", "table1", "fig7a", "fig7b", "defense",
		"fig1a", "fig8a", "fig8b", "fig8pta", "table2", "perf",
	}
}

// jobTitles maps experiment ids to one-line descriptions.
var jobTitles = map[string]string{
	"fig1a":   "Fig 1(a): targeted BFA vs random flips (VGG-11/100)",
	"fig1b":   "Fig 1(b): RowHammer thresholds validated on the fault model",
	"mc":      "§IV.D: erroneous-SWAP Monte-Carlo vs process variation",
	"table1":  "Table I: hardware overhead comparison",
	"fig7a":   "Fig 7(a): mitigation latency per Tref vs attack intensity",
	"fig7b":   "Fig 7(b): sustained defense time",
	"defense": "RowHammer mitigation comparison (single-sided campaign)",
	"fig8a":   "Fig 8: BFA on ResNet-20/10 without and with DRAM-Locker",
	"fig8b":   "Fig 8: BFA on VGG-11/100 without and with DRAM-Locker",
	"fig8pta": "Fig 8 (PTA): page-table attack without and with DRAM-Locker",
	"table2":  "Table II: software-defense comparison (ResNet-20/10)",
	"perf":    "Workload overhead under attack (trace replay)",
}

// presetFree marks the experiments whose output ignores the preset
// entirely (they take no scale knobs). Their cache keys omit the preset
// hash, so a multi-preset run with a cache computes each of them once and
// replays it, shard by shard, for the other presets.
var presetFree = map[string]bool{
	"fig1b": true, "table1": true, "fig7a": true, "fig7b": true,
}

// RegisterJobs registers one engine job per experiment at preset p, named
// "<preset>/<experiment>" (e.g. "small/fig8a"). Every job is shards plus
// a merge: the parameter-grid experiments (mc, table1, fig7a, fig7b,
// defense, table2) shard per variation point, framework, curve,
// threshold, mechanism or defended model, and the rest run as one shard
// (monolith). Cache keys embed the preset hash (except for the
// preset-free experiments), so a preset change invalidates prior results.
//
// The registration owns one victim memo, reached through every shard's
// context: each distinct victim is trained once, by the first shard to
// ask for it, and every job gets its own copy of the trained weights and
// builds its own DefendedSystem, so any subset may execute concurrently.
// Each table2 shard carries its victim's dispatch cost, so the widest
// trainings start first.
func RegisterJobs(reg *engine.Registry, p Preset) error {
	hash := p.Hash()
	memo := newVictimMemo(p)
	for _, exp := range JobNames() {
		j, err := jobSpec(exp, p)
		if err != nil {
			return err
		}
		for i := range j.Shards {
			j.Shards[i].Run = memo.attach(j.Shards[i].Run)
		}
		j.Name = p.Name + "/" + exp
		j.Title = jobTitles[exp]
		j.Key = exp + "@" + hash
		if presetFree[exp] {
			j.Key = exp + "@-"
		}
		if err := reg.Register(j); err != nil {
			return err
		}
	}
	return nil
}

// BuildRegistry registers every experiment of the named presets into a
// fresh registry. It is the one registry constructor shared by
// cmd/dramlocker and cmd/dramlockerd: a scheduler and a worker daemon
// that name the same presets resolve byte-identical job sets (same names,
// same shard layouts, same cache keys), which the executor protocol's
// key echo then verifies per task. Duplicate preset names are ignored.
func BuildRegistry(presets []string) (*engine.Registry, error) {
	if len(presets) == 0 {
		return nil, fmt.Errorf("experiments: no preset given (want a comma-separated subset of %s)",
			strings.Join(PresetNames(), ","))
	}
	reg := engine.NewRegistry()
	seen := make(map[string]bool, len(presets))
	for _, name := range presets {
		if seen[name] {
			continue
		}
		seen[name] = true
		p, err := PresetByName(name)
		if err != nil {
			return nil, err
		}
		if err := RegisterJobs(reg, p); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// SplitList splits a comma-separated flag value, trimming space and
// dropping empty items (the CLI and daemon share it for -preset/-exp).
func SplitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// monolith wraps one experiment function into a one-shard engine.Job
// whose merge returns the shard's output. The closure uses the preset's
// own seeds; the context is forwarded so the model-bearing experiments
// can poll cancellation, report training progress and reach the victim
// memo.
func monolith[T any](run func(context.Context) (T, error), format func(T) string) engine.Job {
	return engine.Job{
		Shards: []engine.Shard{{Name: "whole", Run: func(ctx context.Context) (engine.Output, error) {
			v, err := run(ctx)
			if err != nil {
				return engine.Output{}, err
			}
			return engine.Output{Text: format(v), Data: v}, nil
		}}},
		Merge: func(outs []engine.Output) (engine.Output, error) { return outs[0], nil },
	}
}

// jobSpec builds the shards and merge of one experiment id;
// RegisterJobs stamps name, title and cache key.
func jobSpec(exp string, p Preset) (engine.Job, error) {
	switch exp {
	case "fig1a":
		return monolith(func(ctx context.Context) (*Fig1aResult, error) { return Fig1a(ctx, p) }, FormatFig1a), nil
	case "fig1b":
		return monolith(func(context.Context) ([]Fig1bRow, error) { return Fig1b() }, FormatFig1b), nil
	case "mc":
		return mcJob(p), nil
	case "table1":
		return table1Job(), nil
	case "fig7a":
		return fig7aJob(), nil
	case "fig7b":
		return fig7bJob(), nil
	case "defense":
		return defenseJob(p), nil
	case "fig8a":
		return monolith(func(ctx context.Context) (*Fig8Result, error) { return Fig8(ctx, p, ArchResNet20, 10) }, FormatFig8), nil
	case "fig8b":
		return monolith(func(ctx context.Context) (*Fig8Result, error) { return Fig8(ctx, p, ArchVGG11, 100) }, FormatFig8), nil
	case "fig8pta":
		return monolith(func(ctx context.Context) (*Fig8PTAResult, error) { return Fig8PTA(ctx, p) }, FormatFig8PTA), nil
	case "table2":
		return table2Job(p), nil
	case "perf":
		return monolith(func(ctx context.Context) (*PerfResult, error) { return Perf(ctx, p) }, FormatPerf), nil
	default:
		return engine.Job{}, fmt.Errorf("experiments: unknown experiment %q", exp)
	}
}
