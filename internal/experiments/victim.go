package experiments

import (
	"context"
	"fmt"
	"sync"

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

// VictimSpec identifies a victim at a preset. Training is deterministic
// in (preset, spec), so within one preset the spec names one trained
// model.
type VictimSpec struct {
	Arch    Arch
	Classes int
	// Bits is the weight width: 8 normally, 1 for the binary-weight
	// defenses.
	Bits int
	// Width scales the architecture relative to the preset (Table II's
	// capacity rows).
	Width float64
	// ClusteringLambda, when positive, trains with the piece-wise
	// clustering regularizer at that strength (Table II).
	ClusteringLambda float64
}

// standardVictim is the 8-bit, preset-width victim of the attack panels.
func standardVictim(arch Arch, classes int) VictimSpec {
	return VictimSpec{Arch: arch, Classes: classes, Bits: 8, Width: 1}
}

// cost is the spec's relative training cost, the dispatch cost of the
// table2 shard that defends it: training FLOPs grow with the square of
// the width.
func (s VictimSpec) cost() float64 { return s.Width * s.Width }

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

// TrainVictim trains and quantizes the victim s. Training is the
// dominant cost of the model-bearing experiments, so ctx is polled per
// epoch: that is what lets Ctrl-C (or a disconnected remote scheduler)
// stop an in-flight job instead of only the queued tail. A progress
// reporter installed with engine.WithProgress hears every finished epoch.
// It trains on every call; the jobs of one registration share their
// trainings through its memo instead (see RegisterJobs).
func TrainVictim(ctx context.Context, p Preset, s VictimSpec) (*Victim, error) {
	ds, net, err := p.fit(ctx, s)
	if err != nil {
		return nil, err
	}
	v := p.quantize(s, ds, net)
	v.CleanAcc = nn.Evaluate(net, v.Eval, 64)
	return v, nil
}

// fit generates the victim's dataset and trains its network.
func (p Preset) fit(ctx context.Context, s VictimSpec) (*dataset.Dataset, *nn.Model, error) {
	ds, err := dataset.Generate(p.datasetConfig(s.Classes))
	if err != nil {
		return nil, nil, err
	}
	net, err := p.buildNet(s.Arch, s.Classes, s.Width)
	if err != nil {
		return nil, nil, err
	}
	tc := nn.DefaultTrainConfig()
	tc.Epochs = p.Epochs
	tc.Seed = p.Seed + 11
	if s.ClusteringLambda > 0 {
		tc.Regularizer = nn.PiecewiseClusteringReg(s.ClusteringLambda)
	}
	tc.Stop = ctx.Err
	if rep := engine.ProgressFromContext(ctx); rep != nil {
		tc.OnEpoch = func(done, total int) { rep("train", done, total) }
	}
	if s.Bits == 1 {
		// Binary-weight defenses are trained binarization-aware (STE);
		// binarizing a float-trained model post hoc destroys it.
		nn.FitProjected(net, &ds.TrainSplit, tc, nn.BinaryProjection())
	} else {
		nn.Fit(net, &ds.TrainSplit, tc)
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err // training was aborted; a partial victim is useless
	}
	return ds, net, nil
}

// quantize completes a victim around its trained network: the quantized
// model (which overwrites the float weights) and the evaluation and
// attack batches. CleanAcc is left to the caller.
func (p Preset) quantize(s VictimSpec, ds *dataset.Dataset, net *nn.Model) *Victim {
	v := &Victim{
		Arch: s.Arch, Classes: s.Classes,
		Net: net, QM: quant.NewModelBits(net, s.Bits), DS: ds,
	}
	v.Eval = dataset.Subset(&ds.TestSplit, min(p.EvalN, ds.TestSplit.N))
	v.AttackBatch = ds.TestSplit.Slice(0, min(p.AttackBatch, ds.TestSplit.N))
	return v
}

// victimMemo trains each distinct victim of one preset registration
// once. It keeps what a training produced — the dataset, a copy of the
// float parameters and BatchNorm statistics, taken before quantization
// overwrites the weights, and the clean accuracy — and builds every
// later request a network and quant.Model of its own from it. Attacks
// mutate weights in place, so no two requests share a model; they share
// the dataset, which nothing writes after dataset.Generate (training
// shuffles batch offsets, splits and subsets are views, and no layer
// writes to its input).
//
// The first requester of a spec trains. Concurrent requesters wait
// under their own contexts. A training that fails, is cancelled or
// panics stores nothing, and its waiters try again: one of them trains.
type victimMemo struct {
	p       Preset
	mu      sync.Mutex
	entries map[VictimSpec]*memoEntry
}

// memoEntry is one spec's training: in flight until done closes, then
// trained when net is set, withdrawn from the memo otherwise. net never
// runs: it only holds the trained state. The copy that filled it built
// its Params and BatchNorms caches, so concurrent restores only read it.
type memoEntry struct {
	done     chan struct{}
	ds       *dataset.Dataset
	net      *nn.Model
	cleanAcc float64
}

func newVictimMemo(p Preset) *victimMemo {
	return &victimMemo{p: p, entries: make(map[VictimSpec]*memoEntry)}
}

// victim returns a private copy of the trained victim s, training it
// first unless another request already has.
func (m *victimMemo) victim(ctx context.Context, s VictimSpec) (*Victim, error) {
	for {
		m.mu.Lock()
		e, ok := m.entries[s]
		if !ok {
			e = &memoEntry{done: make(chan struct{})}
			m.entries[s] = e
			m.mu.Unlock()
			return m.train(ctx, s, e)
		}
		m.mu.Unlock()
		select {
		case <-e.done:
			if e.net != nil {
				return m.restore(s, e)
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// train trains s for entry e and publishes the result, or withdraws e
// when training does not complete.
func (m *victimMemo) train(ctx context.Context, s VictimSpec, e *memoEntry) (*Victim, error) {
	defer func() {
		if e.net == nil {
			m.mu.Lock()
			delete(m.entries, s)
			m.mu.Unlock()
		}
		close(e.done)
	}()
	ds, net, err := m.p.fit(ctx, s)
	if err != nil {
		return nil, err
	}
	kept, err := m.p.buildNet(s.Arch, s.Classes, s.Width)
	if err != nil {
		return nil, err
	}
	kept.CopyStateFrom(net)
	v := m.p.quantize(s, ds, net)
	v.CleanAcc = nn.Evaluate(net, v.Eval, 64)
	e.ds, e.net, e.cleanAcc = ds, kept, v.CleanAcc
	return v, nil
}

// restore builds a fresh victim from a published training, over the
// training's dataset.
func (m *victimMemo) restore(s VictimSpec, e *memoEntry) (*Victim, error) {
	net, err := m.p.buildNet(s.Arch, s.Classes, s.Width)
	if err != nil {
		return nil, err
	}
	net.CopyStateFrom(e.net)
	v := m.p.quantize(s, e.ds, net)
	v.CleanAcc = e.cleanAcc
	return v, nil
}

// memoKey keys a registration's victim memo in a job's context.
type memoKey struct{}

// attach wraps a job or shard body so that its context carries the
// registration's victim memo.
func (m *victimMemo) attach(run func(context.Context) (engine.Output, error)) func(context.Context) (engine.Output, error) {
	return func(ctx context.Context) (engine.Output, error) {
		return run(context.WithValue(ctx, memoKey{}, m))
	}
}

// victimFor returns victim s at preset p: a private copy from the memo
// that ctx carries for p, or a fresh training when it carries none.
func victimFor(ctx context.Context, p Preset, s VictimSpec) (*Victim, error) {
	if m, ok := ctx.Value(memoKey{}).(*victimMemo); ok && m.p == p {
		return m.victim(ctx, s)
	}
	return TrainVictim(ctx, p, s)
}
