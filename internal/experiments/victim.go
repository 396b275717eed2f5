package experiments

import (
	"context"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/nn"
	"repro/internal/quant"
)

// Arch selects the victim architecture.
type Arch string

// Victim architectures from the paper's evaluation.
const (
	ArchResNet20 Arch = "resnet20"
	ArchVGG11    Arch = "vgg11"
)

// Victim is a trained, quantized model with its data.
type Victim struct {
	Arch     Arch
	Classes  int
	Net      *nn.Model
	QM       *quant.Model
	DS       *dataset.Dataset
	CleanAcc float64
	// AttackBatch is the attacker's sample batch (paper: 128 test images).
	AttackBatch nn.Batch
	// Eval is the accuracy-evaluation source.
	Eval nn.BatchSource
}

// datasetConfig derives the dataset generation config from a preset.
func (p Preset) datasetConfig(classes int) dataset.Config {
	return dataset.Config{
		Classes:  classes,
		Size:     p.ImageSize,
		Train:    p.TrainN,
		Test:     p.TestN,
		NoiseStd: p.NoiseStd,
		MaxShift: 1,
		ProtoRes: p.ImageSize / 4,
		Seed:     p.Seed ^ uint64(classes)*0x9e37,
	}
}

// buildNet constructs the architecture at preset scale.
func (p Preset) buildNet(arch Arch, classes int, widthMul float64) (*nn.Model, error) {
	w := p.Width * widthMul
	switch arch {
	case ArchResNet20:
		return nn.NewResNet20(classes, w, p.Seed+1), nil
	case ArchVGG11:
		return nn.NewVGG11(classes, w, p.Seed+2), nil
	default:
		return nil, fmt.Errorf("experiments: unknown arch %q", arch)
	}
}

// TrainVictim trains and quantizes a victim model. bits is the weight
// width (8 normally, 1 for the binary-weight defense); widthMul scales
// the architecture relative to the preset (Table II's capacity rows);
// reg optionally adds a training regularizer. Training is the dominant
// cost of the model-bearing experiments, so ctx is polled per epoch:
// that is what lets Ctrl-C (or a disconnected remote scheduler) stop an
// in-flight job instead of only the queued tail. A progress reporter
// installed with engine.WithProgress hears every finished epoch.
func TrainVictim(ctx context.Context, p Preset, arch Arch, classes, bits int, widthMul float64, reg func([]*nn.Param)) (*Victim, error) {
	ds, err := dataset.Generate(p.datasetConfig(classes))
	if err != nil {
		return nil, err
	}
	net, err := p.buildNet(arch, classes, widthMul)
	if err != nil {
		return nil, err
	}
	tc := nn.DefaultTrainConfig()
	tc.Epochs = p.Epochs
	tc.Seed = p.Seed + 11
	tc.Regularizer = reg
	tc.Stop = ctx.Err
	if rep := engine.ProgressFromContext(ctx); rep != nil {
		tc.OnEpoch = func(done, total int) { rep("train", done, total) }
	}
	if bits == 1 {
		// Binary-weight defenses are trained binarization-aware (STE);
		// binarizing a float-trained model post hoc destroys it.
		nn.FitProjected(net, &ds.TrainSplit, tc, nn.BinaryProjection())
	} else {
		nn.Fit(net, &ds.TrainSplit, tc)
	}
	if err := ctx.Err(); err != nil {
		return nil, err // training was aborted; a partial victim is useless
	}

	qm := quant.NewModelBits(net, bits)
	v := &Victim{
		Arch: arch, Classes: classes,
		Net: net, QM: qm, DS: ds,
	}
	evalN := p.EvalN
	if evalN > ds.TestSplit.N {
		evalN = ds.TestSplit.N
	}
	v.Eval = dataset.Subset(&ds.TestSplit, evalN)
	v.CleanAcc = nn.Evaluate(net, v.Eval, 64)

	ab := p.AttackBatch
	if ab > ds.TestSplit.N {
		ab = ds.TestSplit.N
	}
	v.AttackBatch = ds.TestSplit.Slice(0, ab)
	return v, nil
}

// NewVictim trains the standard 8-bit victim for an experiment.
func NewVictim(ctx context.Context, p Preset, arch Arch, classes int) (*Victim, error) {
	return TrainVictim(ctx, p, arch, classes, 8, 1.0, nil)
}
