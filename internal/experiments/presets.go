// Package experiments drives every table and figure of the paper's
// evaluation from the substrate packages, in three sizes: Tiny (unit
// tests), Small (benchmarks and the default CLI) and Paper (closest to the
// paper's parameters; minutes of CPU).
//
// README.md ("Running experiments") lists the experiment ids and what
// each preset costs.
package experiments

import (
	"fmt"
	"hash/fnv"

	"repro/internal/dram"
)

// Preset bundles every scale-dependent knob.
type Preset struct {
	Name string

	// DNN / dataset scale.
	ImageSize   int
	Width       float64 // channel width multiplier for both architectures
	TrainN      int
	TestN       int
	Epochs      int
	NoiseStd    float64
	AttackIters int
	AttackBatch int
	EvalN       int // examples used for per-iteration accuracy
	Candidates  int // BFA candidates evaluated per iteration

	// Monte-Carlo scale.
	MCTrials int

	// DRAM geometry for full-stack attacks.
	Geometry dram.Geometry
	TRH      int

	// Seeds.
	Seed uint64
}

// Tiny returns the unit-test scale: model-free experiments take
// milliseconds, and each model-bearing one trains its victims in
// seconds. README.md ("Running experiments") gives measured times.
func Tiny() Preset {
	return Preset{
		Name:      "tiny",
		ImageSize: 16, Width: 0.25,
		TrainN: 240, TestN: 80, Epochs: 6, NoiseStd: 0.30,
		AttackIters: 8, AttackBatch: 16, EvalN: 80, Candidates: 3,
		MCTrials: 2000,
		// VGG-scale victims need more rows than dram.SmallGeometry()
		// offers; sparse row allocation keeps the larger geometry free.
		Geometry: mediumGeometry(),
		TRH:      50,
		Seed:     0x7e57,
	}
}

// Small returns the benchmark scale (seconds per experiment).
func Small() Preset {
	return Preset{
		Name:      "small",
		ImageSize: 16, Width: 0.25,
		TrainN: 400, TestN: 160, Epochs: 8, NoiseStd: 0.30,
		AttackIters: 40, AttackBatch: 32, EvalN: 160, Candidates: 4,
		MCTrials: 10000,
		Geometry: mediumGeometry(),
		TRH:      200,
		Seed:     0x5a11,
	}
}

// PaperScale returns the configuration closest to the paper (32x32 images,
// 100 attack iterations, 128-sample attack batches, 10k Monte-Carlo
// trials). Width stays below 1.0 to keep pure-Go training tractable.
func PaperScale() Preset {
	return Preset{
		Name:      "paper",
		ImageSize: 32, Width: 0.25,
		TrainN: 2000, TestN: 512, Epochs: 6, NoiseStd: 0.40,
		AttackIters: 100, AttackBatch: 128, EvalN: 512, Candidates: 5,
		MCTrials: 10000,
		Geometry: mediumGeometry(),
		TRH:      1000,
		Seed:     0x9a9e5,
	}
}

// mediumGeometry holds full models while keeping row scans cheap.
func mediumGeometry() dram.Geometry {
	return dram.Geometry{
		Ranks:            1,
		BanksPerRank:     4,
		SubarraysPerBank: 16,
		RowsPerSubarray:  512,
		RowBytes:         2048,
	}
}

// Hash fingerprints every knob of the preset. The engine layer uses it as
// the result-cache key component, so changing any field — even one buried
// in the geometry — invalidates cached results computed under it.
func (p Preset) Hash() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%#v", p)
	return fmt.Sprintf("%016x", h.Sum64())
}

// PresetNames lists the selectable presets in size order.
func PresetNames() []string {
	return []string{"tiny", "small", "paper"}
}

// PresetByName resolves "tiny", "small" or "paper".
func PresetByName(name string) (Preset, error) {
	switch name {
	case "tiny":
		return Tiny(), nil
	case "small":
		return Small(), nil
	case "paper":
		return PaperScale(), nil
	default:
		return Preset{}, fmt.Errorf("experiments: unknown preset %q (have %v)", name, PresetNames())
	}
}
