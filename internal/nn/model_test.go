package nn

import (
	"math"
	"slices"
	"testing"

	"repro/internal/stats"
	"repro/internal/tensor"
)

func TestResNet20Shapes(t *testing.T) {
	m := NewResNet20(10, 0.25, 1)
	rng := stats.NewRNG(1)
	x := tensor.New(2, 3, 16, 16)
	x.RandNormal(rng, 1)
	out := m.Forward(x, false)
	if len(out.Shape) != 2 || out.Shape[0] != 2 || out.Shape[1] != 10 {
		t.Fatalf("output shape %v, want (2,10)", out.Shape)
	}
}

// TestForwardFromMatchesForward: a forward restarted at any layer from
// the input ForwardFrom kept for it gives the full forward's logits bit
// for bit, and the kept inputs are left as they were.
func TestForwardFromMatchesForward(t *testing.T) {
	for _, m := range []*Model{NewResNet20(10, 0.25, 1), NewVGG11(10, 0.25, 2)} {
		rng := stats.NewRNG(3)
		x := tensor.New(4, 3, 16, 16)
		x.RandNormal(rng, 1)
		keep := make([]*tensor.Tensor, len(m.Layers))
		for l := 1; l < len(keep); l++ {
			keep[l] = new(tensor.Tensor)
		}
		want := m.ForwardFrom(0, x, false, keep).Clone()
		kept := make([]*tensor.Tensor, len(keep))
		for l := 1; l < len(keep); l++ {
			kept[l] = keep[l].Clone()
		}
		for l := len(m.Layers) - 1; l >= 0; l-- {
			in := x
			if l > 0 {
				in = keep[l]
			}
			got := m.ForwardFrom(l, in, false, nil)
			for i, v := range got.Data {
				if math.Float32bits(v) != math.Float32bits(want.Data[i]) {
					t.Fatalf("%s: restart at layer %d: logit %d = %v, full forward %v", m.Name(), l, i, v, want.Data[i])
				}
			}
		}
		for l := 1; l < len(keep); l++ {
			for i, v := range keep[l].Data {
				if math.Float32bits(v) != math.Float32bits(kept[l].Data[i]) {
					t.Fatalf("%s: kept input of layer %d changed at %d", m.Name(), l, i)
				}
			}
		}
	}
}

func TestResNet20ParamCountScalesWithWidth(t *testing.T) {
	small := NewResNet20(10, 0.25, 1).NumParams()
	big := NewResNet20(10, 0.5, 1).NumParams()
	if big <= small {
		t.Fatalf("width 0.5 params (%d) should exceed width 0.25 (%d)", big, small)
	}
	// Conv params scale ~quadratically with width.
	if float64(big) < 2.5*float64(small) {
		t.Fatalf("expected ~4x params, got %d vs %d", big, small)
	}
}

func TestVGG11Shapes32(t *testing.T) {
	m := NewVGG11(100, 0.25, 2)
	rng := stats.NewRNG(2)
	x := tensor.New(1, 3, 32, 32)
	x.RandNormal(rng, 1)
	out := m.Forward(x, false)
	if out.Shape[0] != 1 || out.Shape[1] != 100 {
		t.Fatalf("output shape %v, want (1,100)", out.Shape)
	}
}

func TestVGG11Shapes16(t *testing.T) {
	// Global average pooling makes the net input-size agnostic.
	m := NewVGG11(10, 0.25, 2)
	rng := stats.NewRNG(3)
	x := tensor.New(2, 3, 16, 16)
	x.RandNormal(rng, 1)
	out := m.Forward(x, false)
	if out.Shape[0] != 2 || out.Shape[1] != 10 {
		t.Fatalf("output shape %v, want (2,10)", out.Shape)
	}
}

func TestQuantizableParamsAreConvAndLinearOnly(t *testing.T) {
	m := NewResNet20(10, 0.25, 1)
	qs := m.QuantizableParams()
	if len(qs) == 0 {
		t.Fatal("no quantizable params")
	}
	for _, p := range qs {
		if !p.Quantizable {
			t.Fatalf("%s not marked quantizable", p.Name)
		}
		if p.NoDecay {
			t.Fatalf("%s is a bias/BN param, must not be quantizable", p.Name)
		}
	}
	// ResNet-20: 1 stem + 9 blocks x 2 convs + 2 downsample convs + 1 fc = 22.
	if len(qs) != 22 {
		t.Fatalf("ResNet-20 quantizable params = %d, want 22", len(qs))
	}
}

func TestWalkVisitsNestedLayers(t *testing.T) {
	m := NewResNet20(10, 0.25, 1)
	convs := 0
	m.Walk(func(l Layer) {
		if _, ok := l.(*Conv2D); ok {
			convs++
		}
	})
	if convs != 21 { // 22 quantizable minus the fc
		t.Fatalf("walked %d convs, want 21", convs)
	}
	if bns := len(m.BatchNorms()); bns != 21 {
		t.Fatalf("found %d batch norms, want 21", bns)
	}
}

func TestZeroGradClearsAll(t *testing.T) {
	m := NewResNet20(10, 0.25, 1)
	rng := stats.NewRNG(4)
	x := tensor.New(2, 3, 8, 8)
	x.RandNormal(rng, 1)
	logits := m.Forward(x, true)
	g := tensor.New(logits.Shape...)
	SoftmaxCrossEntropyInto(g, logits, []int{1, 2})
	m.Backward(g)
	m.ZeroGrad()
	for _, p := range m.Params() {
		for _, v := range p.Grad.Data {
			if v != 0 {
				t.Fatalf("%s grad not cleared", p.Name)
			}
		}
	}
}

func TestBatchNormInferenceUsesRunningStats(t *testing.T) {
	rng := stats.NewRNG(5)
	bn := NewBatchNorm2D("bn", 2)
	x := tensor.New(4, 2, 3, 3)
	x.RandNormal(rng, 3)
	// Train-mode forwards move the running stats.
	for i := 0; i < 20; i++ {
		bn.Forward(x, true)
	}
	// Inference output must be deterministic given frozen stats. Forward
	// returns a layer-owned buffer, so snapshot the first pass.
	y1 := bn.Forward(x, false).Clone()
	y2 := bn.Forward(x, false)
	for i := range y1.Data {
		if y1.Data[i] != y2.Data[i] {
			t.Fatal("inference output not deterministic")
		}
	}
	if bn.RunningMean[0] == 0 && bn.RunningMean[1] == 0 {
		t.Fatal("running mean never updated")
	}
}

func TestBatchNormFreezeStats(t *testing.T) {
	rng := stats.NewRNG(6)
	bn := NewBatchNorm2D("bn", 2)
	x := tensor.New(4, 2, 3, 3)
	x.RandNormal(rng, 3)
	bn.FreezeStats = true
	bn.Forward(x, true)
	if bn.RunningMean[0] != 0 || bn.RunningVar[0] != 1 {
		t.Fatal("FreezeStats must suppress running-stat updates")
	}
}

func TestGradientPassPreservesRunningStats(t *testing.T) {
	m := NewResNet20(10, 0.25, 7)
	rng := stats.NewRNG(7)
	x := tensor.New(2, 3, 8, 8)
	x.RandNormal(rng, 1)
	// Prime the stats with one training forward.
	m.Forward(x, true)
	before := make([]float64, 0)
	for _, bn := range m.BatchNorms() {
		before = append(before, bn.RunningMean...)
	}
	GradientPass(m, Batch{X: x, Y: []int{0, 1}})
	i := 0
	for _, bn := range m.BatchNorms() {
		for _, v := range bn.RunningMean {
			if v != before[i] {
				t.Fatal("GradientPass must not move running statistics")
			}
			i++
		}
	}
	// And gradients must be populated.
	var total float64
	for _, p := range m.Params() {
		for _, g := range p.Grad.Data {
			total += math.Abs(float64(g))
		}
	}
	if total == 0 {
		t.Fatal("GradientPass produced zero gradients")
	}
}

func TestMaxPoolForwardKnownValues(t *testing.T) {
	x := tensor.FromData([]float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 1, 2, 2,
		1, 1, 2, 3,
	}, 1, 1, 4, 4)
	p := NewMaxPool2("pool")
	y := p.Forward(x, false)
	want := []float32{4, 8, 9, 3}
	for i, v := range want {
		if y.Data[i] != v {
			t.Fatalf("pool[%d] = %g, want %g", i, y.Data[i], v)
		}
	}
}

func TestGlobalAvgPoolKnownValues(t *testing.T) {
	x := tensor.FromData([]float32{1, 2, 3, 4, 10, 10, 10, 10}, 1, 2, 2, 2)
	p := NewGlobalAvgPool("pool")
	y := p.Forward(x, false)
	if y.Data[0] != 2.5 || y.Data[1] != 10 {
		t.Fatalf("avgpool = %v, want [2.5 10]", y.Data)
	}
}

// TestCopyStateFromMatchesSource: a copy of a trained network's state
// into a differently initialised one gives the source's logits bit for
// bit, and later changes to the source's weights and running statistics
// do not reach the copy.
func TestCopyStateFromMatchesSource(t *testing.T) {
	src := NewResNet20(2, 0.25, 77)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 2
	Fit(src, newToySource(32, 8), cfg)
	dst := NewResNet20(2, 0.25, 999)
	dst.CopyStateFrom(src)

	rng := stats.NewRNG(5)
	x := tensor.New(4, 3, 8, 8)
	x.RandNormal(rng, 1)
	want := src.Forward(x, false).Clone()
	if !slices.Equal(dst.Forward(x, false).Data, want.Data) {
		t.Fatal("the copy's logits differ from the source's")
	}

	src.Params()[0].W.Data[0] = -src.Params()[0].W.Data[0]
	src.BatchNorms()[0].RunningMean[0] += 1
	if slices.Equal(src.Forward(x, false).Data, want.Data) {
		t.Fatal("changing the source's weight and statistic did not move its logits")
	}
	if !slices.Equal(dst.Forward(x, false).Data, want.Data) {
		t.Fatal("changing the source moved the copy's logits")
	}
}

// TestCopyStateFromPanicsAcrossArchitectures: the state of one
// architecture does not fit another, or the same one at another width.
func TestCopyStateFromPanicsAcrossArchitectures(t *testing.T) {
	src := NewResNet20(2, 0.25, 1)
	for _, dst := range []*Model{NewResNet20(2, 0.5, 1), NewVGG11(2, 0.25, 1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("copying %s into %s did not panic", src.ModelName, dst.ModelName)
				}
			}()
			dst.CopyStateFrom(src)
		}()
	}
}
