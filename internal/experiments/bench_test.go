package experiments

import (
	"context"
	"testing"

	"repro/internal/engine"
)

// benchGridFilter selects the model-free sharded grids (cheap enough for
// -benchtime=1x smoke runs).
var benchGridFilter = []string{"*/mc", "*/table1", "*/fig7a", "*/fig7b", "*/defense"}

// BenchmarkShardedGridsCold runs the model-free parameter grids through
// the engine with a fresh cache each pass.
func BenchmarkShardedGridsCold(b *testing.B) {
	reg := engine.NewRegistry()
	if err := RegisterJobs(reg, Tiny()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := engine.Run(reg, engine.Options{Filter: benchGridFilter, Cache: engine.NewCache()})
		if err != nil {
			b.Fatal(err)
		}
		if err := rep.Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVictimTrain measures the end-to-end victim build — dataset
// generation, training on the zero-alloc path, quantization, clean-accuracy
// eval — the cost that dominates every model-bearing experiment
// (table2, fig1a, fig8a, fig8b, fig8pta, perf). TrainVictim bypasses the
// registration's victim memo, so every iteration trains. allocs/op
// tracks how much of the training loop still hits the allocator.
func BenchmarkVictimTrain(b *testing.B) {
	p := Tiny()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainVictim(context.Background(), p, standardVictim(ArchResNet20, 10)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedGridsWarm measures the steady state: every grid replays
// from one shared cache (what a re-run of the paper tables costs).
func BenchmarkShardedGridsWarm(b *testing.B) {
	reg := engine.NewRegistry()
	if err := RegisterJobs(reg, Tiny()); err != nil {
		b.Fatal(err)
	}
	cache := engine.NewCache()
	if _, err := engine.Run(reg, engine.Options{Filter: benchGridFilter, Cache: cache}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := engine.Run(reg, engine.Options{Filter: benchGridFilter, Cache: cache})
		if err != nil {
			b.Fatal(err)
		}
		if rep.CachedCount() != len(rep.Results) {
			b.Fatalf("warm pass computed %d jobs", len(rep.Results)-rep.CachedCount())
		}
	}
}
