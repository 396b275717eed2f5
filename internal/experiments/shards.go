// Sharded parameter grids: the Fig. 7 threshold sweep, the defense
// comparison and the table generators run as sharded engine.Jobs — one
// shard per curve / grid point / table row, each computed by the
// per-point function of its model package. These grids are the only
// code that assembles those results. Shards schedule independently on
// the engine worker pool and cache individually, so a warm run replays
// per point and a parameter change recomputes only the affected shards.
// Every merge assembles shard payloads in shard order through one JSON
// round-trip (engine.DecodeData), which keeps the report byte-identical
// at any worker count and across cold/warm runs.
package experiments

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/overhead"
	"repro/internal/sim"
)

// mergeRows builds the deterministic merge shared by every grid job:
// decode one payload per shard, assemble the slice in shard order, format.
func mergeRows[T any](format func([]T) string) func(engine.Context, []engine.Output) (engine.Output, error) {
	return func(_ engine.Context, outs []engine.Output) (engine.Output, error) {
		rows := make([]T, len(outs))
		for i, o := range outs {
			if err := engine.DecodeData(o.Data, &rows[i]); err != nil {
				return engine.Output{}, fmt.Errorf("shard %d: %w", i, err)
			}
		}
		return engine.Output{Text: format(rows), Data: rows}, nil
	}
}

// payloadShard wraps a typed shard computation into an engine.Shard. The
// engine.Context is passed through so shard bodies can poll cancellation
// (the model-training table2 rows do; the cheap grid points ignore it).
func payloadShard[T any](name string, run func(engine.Context) (T, error)) engine.Shard {
	return engine.Shard{
		Name: name,
		Run: func(ec engine.Context) (engine.Output, error) {
			v, err := run(ec)
			if err != nil {
				return engine.Output{}, err
			}
			return engine.Output{Data: v}, nil
		},
	}
}

// mcJob shards the §IV.D Monte-Carlo over the process-variation grid.
func mcJob(p Preset) engine.Job {
	var shards []engine.Shard
	for i, v := range circuit.PaperVariations() {
		i := i
		shards = append(shards, payloadShard(
			fmt.Sprintf("var=%g", v),
			func(engine.Context) (MonteCarloRow, error) { return MonteCarloRowFor(p, i) },
		))
	}
	return engine.Job{Shards: shards, Merge: mergeRows(FormatMonteCarlo)}
}

// table1Job shards Table I over the compared frameworks.
func table1Job() engine.Job {
	var shards []engine.Shard
	for _, name := range overhead.Table1Frameworks() {
		name := name
		shards = append(shards, payloadShard(
			name,
			func(engine.Context) (overhead.Report, error) { return overhead.Table1Report(name) },
		))
	}
	return engine.Job{Shards: shards, Merge: mergeRows(FormatTable1)}
}

// fig7aJob shards the Fig. 7(a) threshold sweep per curve: one SHADOW
// curve per device threshold plus the DRAM-Locker curve.
func fig7aJob() engine.Job {
	var shards []engine.Shard
	for _, trh := range sim.PaperThresholds() {
		trh := trh
		shards = append(shards, payloadShard(
			fmt.Sprintf("shadow-trh=%d", trh),
			func(engine.Context) (sim.Fig7aCurve, error) { return sim.ShadowCurve(trh, fig7aMaxBFA, fig7aStep) },
		))
	}
	shards = append(shards, payloadShard(
		"locker",
		func(engine.Context) (sim.Fig7aCurve, error) { return sim.LockerCurve(fig7aMaxBFA, fig7aStep) },
	))
	return engine.Job{Shards: shards, Merge: mergeRows(FormatFig7a)}
}

// fig7bJob shards the Fig. 7(b) defense-time bars per device threshold.
func fig7bJob() engine.Job {
	var shards []engine.Shard
	for _, trh := range sim.PaperThresholds() {
		trh := trh
		shards = append(shards, payloadShard(
			fmt.Sprintf("trh=%d", trh),
			func(engine.Context) (sim.Fig7bBar, error) { return sim.Fig7bBarAt(trh) },
		))
	}
	return engine.Job{Shards: shards, Merge: mergeRows(FormatFig7b)}
}

// defenseJob shards the RowHammer mitigation comparison per mechanism.
func defenseJob(p Preset) engine.Job {
	var shards []engine.Shard
	for _, name := range DefenseGridNames() {
		name := name
		shards = append(shards, payloadShard(
			name,
			func(engine.Context) (DefenseRow, error) { return DefenseRowFor(p, name) },
		))
	}
	merge := func(rows []DefenseRow) string { return FormatDefenseComparison(p, rows) }
	return engine.Job{Shards: shards, Merge: mergeRows(merge)}
}

// table2Job shards the software-defense comparison per defended model,
// so the heavy Table II rows spread across the pool instead of
// serialising in one job. Rows that defend the same victim share its
// training through the registration's memo, and each shard's dispatch
// cost is its victim's, so the 4x-width capacity row starts first.
func table2Job(p Preset) engine.Job {
	cfg := DefaultTable2Config(p)
	var shards []engine.Shard
	for _, m := range Table2Models(cfg) {
		m := m
		sh := payloadShard(
			m.ID,
			func(ec engine.Context) (Table2Row, error) { return m.Run(ec.Ctx, p, cfg) },
		)
		sh.Cost = m.Victim.cost()
		shards = append(shards, sh)
	}
	return engine.Job{Shards: shards, Merge: mergeRows(FormatTable2)}
}
