package dataset

import (
	"math"
	"testing"
)

func TestGenerateShapesAndLabels(t *testing.T) {
	cfg := Tiny(5)
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ds.TrainSplit.N != cfg.Train || ds.TestSplit.N != cfg.Test {
		t.Fatalf("split sizes %d/%d", ds.TrainSplit.N, ds.TestSplit.N)
	}
	per := 3 * cfg.Size * cfg.Size
	if len(ds.TrainSplit.X) != cfg.Train*per {
		t.Fatalf("X length %d", len(ds.TrainSplit.X))
	}
	for _, y := range ds.TrainSplit.Y {
		if y < 0 || y >= cfg.Classes {
			t.Fatalf("label %d out of range", y)
		}
	}
}

func TestLabelBalance(t *testing.T) {
	cfg := Tiny(4)
	cfg.Train = 400
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, cfg.Classes)
	for _, y := range ds.TrainSplit.Y {
		counts[y]++
	}
	for c, n := range counts {
		if n != 100 {
			t.Fatalf("class %d count %d, want 100 (balanced)", c, n)
		}
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	cfg := Tiny(3)
	a, _ := Generate(cfg)
	b, _ := Generate(cfg)
	for i := range a.TrainSplit.X {
		if a.TrainSplit.X[i] != b.TrainSplit.X[i] {
			t.Fatal("same seed must generate identical data")
		}
	}
	cfg.Seed++
	c, _ := Generate(cfg)
	same := true
	for i := range a.TrainSplit.X {
		if a.TrainSplit.X[i] != c.TrainSplit.X[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds must differ")
	}
}

func TestSliceReturnsViews(t *testing.T) {
	ds, _ := Generate(Tiny(3))
	b := ds.TrainSplit.Slice(4, 8)
	if b.X.Shape[0] != 4 || b.X.Shape[1] != 3 {
		t.Fatalf("batch shape %v", b.X.Shape)
	}
	if len(b.Y) != 4 {
		t.Fatalf("labels %d", len(b.Y))
	}
	// Views share storage with the split.
	per := 3 * ds.Cfg.Size * ds.Cfg.Size
	b.X.Data[0] = 42
	if ds.TrainSplit.X[4*per] != 42 {
		t.Fatal("Slice must be a view, not a copy")
	}
}

func TestSlicePanicsOnBadRange(t *testing.T) {
	ds, _ := Generate(Tiny(3))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ds.TrainSplit.Slice(5, 3)
}

func TestSubset(t *testing.T) {
	ds, _ := Generate(Tiny(3))
	s := Subset(&ds.TestSplit, 10)
	if s.NumExamples() != 10 {
		t.Fatalf("subset size %d", s.NumExamples())
	}
	big := Subset(&ds.TestSplit, 1<<20)
	if big.NumExamples() != ds.TestSplit.N {
		t.Fatal("oversized subset must clamp")
	}
}

func TestSamplesCenterNearPrototypes(t *testing.T) {
	cfg := Tiny(2)
	cfg.NoiseStd = 0.05
	cfg.MaxShift = 0
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	per := 3 * cfg.Size * cfg.Size
	// With almost no noise and no shift, same-class samples are nearly
	// identical while cross-class samples differ markedly.
	var iA, iB = -1, -1
	for i, y := range ds.TrainSplit.Y {
		if y == 0 && iA < 0 {
			iA = i
		} else if y == 0 && iB < 0 {
			iB = i
		}
		if iA >= 0 && iB >= 0 {
			break
		}
	}
	dist := func(i, j int) float64 {
		var s float64
		for k := 0; k < per; k++ {
			d := float64(ds.TrainSplit.X[i*per+k] - ds.TrainSplit.X[j*per+k])
			s += d * d
		}
		return math.Sqrt(s / float64(per))
	}
	intra := dist(iA, iB)
	var iC int
	for i, y := range ds.TrainSplit.Y {
		if y == 1 {
			iC = i
			break
		}
	}
	inter := dist(iA, iC)
	if intra >= inter {
		t.Fatalf("intra-class distance %.3f must be below inter-class %.3f", intra, inter)
	}
}

func TestValidation(t *testing.T) {
	bad := []Config{
		{Classes: 1, Size: 16, Train: 10, Test: 10, ProtoRes: 4},
		{Classes: 3, Size: 2, Train: 10, Test: 10, ProtoRes: 2},
		{Classes: 3, Size: 16, Train: 0, Test: 10, ProtoRes: 4},
		{Classes: 3, Size: 16, Train: 10, Test: 10, NoiseStd: -1, ProtoRes: 4},
		{Classes: 3, Size: 16, Train: 10, Test: 10, ProtoRes: 32},
	}
	for i, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("config %d should fail validation", i)
		}
	}
}
