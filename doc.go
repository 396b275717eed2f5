// Package repro is a from-scratch Go reproduction of "DRAM-Locker: A
// General-Purpose DRAM Protection Mechanism against Adversarial DNN Weight
// Attacks" (Zhou et al., DATE 2024).
//
// The library lives under internal/: the DRAM device model, RowHammer
// fault injection, RowClone/SWAP, the DRAM-Locker ISA and controller, the
// lock-table, baseline defenses, a pure-Go quantized-DNN substrate, the
// BFA/PTA attacks, and the experiment harness that regenerates every table
// and figure of the paper. See README.md for a guided tour; its Layout
// section maps the packages.
//
// Experiments execute through internal/engine: each (preset, experiment)
// pair is a named, self-contained job ("tiny/fig8a") in a registry, run
// on a runtime.NumCPU()-bounded worker pool with deterministic per-job
// seeding, per-job timing/error capture, glob filtering, and result
// caching keyed by the preset hash. The scheduler dispatches each task —
// a monolithic job or one shard — through the pluggable engine.Executor
// seam: LocalExecutor runs tasks in-process, and internal/remote ships
// them to dramlockerd worker daemons over HTTP using the versioned wire
// types of internal/api (tasks travel as job name + shard index + seed +
// cache-key stem; workers re-resolve closures from their own registry).
// Seeding, ordering, merging and caching stay scheduler-side, so reports
// render as text or JSON and are byte-identical regardless of worker
// count or transport. cmd/dramlocker is the CLI front end (-exp,
// -preset, -workers, -remote, -json, -list); cmd/dramlockerd is the
// worker daemon.
//
// The root package holds the benchmark harness (bench_test.go): one
// testing.B benchmark per paper table/figure, each timing its registry
// job, plus an ablation bench for DRAM-Locker's lock granularity (the
// aggressor rows against the weight rows themselves).
package repro
