// Package dataset generates the synthetic CIFAR-like data that replaces
// the real CIFAR-10/100 images (which cannot be downloaded in this offline
// reproduction).
//
// Each class has a smooth random prototype image (low-resolution Gaussian
// noise bilinearly upsampled, which gives conv-friendly spatial structure).
// A sample is its class prototype plus per-sample Gaussian noise and a
// small random translation. The task difficulty is controlled by the noise
// level; the defaults give well-trained models headroom to collapse under
// attack, which is the property the BFA experiments need.
package dataset

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/stats"
	"repro/internal/tensor"
)

// Config parameterises generation.
type Config struct {
	Classes int
	// Size is the square image side (CIFAR: 32).
	Size int
	// Train and Test are the split sizes.
	Train, Test int
	// NoiseStd is the per-pixel Gaussian noise added to prototypes.
	NoiseStd float64
	// MaxShift is the maximum absolute translation in pixels.
	MaxShift int
	// ProtoRes is the low resolution at which prototypes are drawn before
	// upsampling (controls spatial smoothness).
	ProtoRes int
	Seed     uint64
}

// Tiny returns a fast configuration for unit tests.
func Tiny(classes int) Config {
	return Config{Classes: classes, Size: 16, Train: 160, Test: 80,
		NoiseStd: 0.35, MaxShift: 1, ProtoRes: 4, Seed: 0x7e57}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Classes <= 1:
		return fmt.Errorf("dataset: Classes must be > 1, got %d", c.Classes)
	case c.Size < 4:
		return fmt.Errorf("dataset: Size must be >= 4, got %d", c.Size)
	case c.Train <= 0 || c.Test <= 0:
		return fmt.Errorf("dataset: Train and Test must be positive")
	case c.NoiseStd < 0:
		return fmt.Errorf("dataset: NoiseStd must be >= 0")
	case c.ProtoRes < 2 || c.ProtoRes > c.Size:
		return fmt.Errorf("dataset: ProtoRes must be in [2, Size]")
	}
	return nil
}

// Split is one labelled set of images with contiguous storage.
type Split struct {
	X       []float32 // (N, 3, Size, Size) flattened
	Y       []int
	N, Size int
}

// NumExamples implements nn.BatchSource.
func (s *Split) NumExamples() int { return s.N }

// Slice implements nn.BatchSource.
func (s *Split) Slice(i, j int) nn.Batch {
	if i < 0 || j > s.N || i >= j {
		panic(fmt.Sprintf("dataset: bad slice [%d,%d) of %d", i, j, s.N))
	}
	per := 3 * s.Size * s.Size
	x := tensor.FromData(s.X[i*per:j*per], j-i, 3, s.Size, s.Size)
	return nn.Batch{X: x, Y: s.Y[i:j]}
}

// Dataset is a generated train/test pair plus the class prototypes.
type Dataset struct {
	Cfg        Config
	TrainSplit Split
	TestSplit  Split
	prototypes []float32 // (Classes, 3, Size, Size)
}

// Generate builds the dataset deterministically from the config seed.
func Generate(cfg Config) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(cfg.Seed)
	d := &Dataset{Cfg: cfg}
	per := 3 * cfg.Size * cfg.Size
	d.prototypes = make([]float32, cfg.Classes*per)
	for c := 0; c < cfg.Classes; c++ {
		drawPrototype(d.prototypes[c*per:(c+1)*per], cfg, rng)
	}
	d.TrainSplit = d.sample(cfg.Train, rng.Fork())
	d.TestSplit = d.sample(cfg.Test, rng.Fork())
	return d, nil
}

// drawPrototype fills dst with a smooth random image in [-1, 1].
func drawPrototype(dst []float32, cfg Config, rng *stats.RNG) {
	lowPer := cfg.ProtoRes * cfg.ProtoRes
	low := make([]float64, 3*lowPer)
	for i := range low {
		low[i] = rng.Normal(0, 1)
	}
	// Bilinear upsample each channel to Size x Size.
	scale := float64(cfg.ProtoRes-1) / float64(cfg.Size-1)
	for ch := 0; ch < 3; ch++ {
		lp := low[ch*lowPer : (ch+1)*lowPer]
		for y := 0; y < cfg.Size; y++ {
			fy := float64(float64(y) * scale)
			y0 := int(fy)
			y1 := y0 + 1
			if y1 >= cfg.ProtoRes {
				y1 = cfg.ProtoRes - 1
			}
			wy := fy - float64(y0)
			for x := 0; x < cfg.Size; x++ {
				fx := float64(float64(x) * scale)
				x0 := int(fx)
				x1 := x0 + 1
				if x1 >= cfg.ProtoRes {
					x1 = cfg.ProtoRes - 1
				}
				wx := fx - float64(x0)
				v := float64(lp[y0*cfg.ProtoRes+x0]*(1-wy)*(1-wx)) +
					float64(lp[y0*cfg.ProtoRes+x1]*(1-wy)*wx) +
					float64(lp[y1*cfg.ProtoRes+x0]*wy*(1-wx)) +
					float64(lp[y1*cfg.ProtoRes+x1]*wy*wx)
				dst[(ch*cfg.Size+y)*cfg.Size+x] = float32(v)
			}
		}
	}
}

// sample draws n examples with balanced class labels.
func (d *Dataset) sample(n int, rng *stats.RNG) Split {
	cfg := d.Cfg
	per := 3 * cfg.Size * cfg.Size
	s := Split{X: make([]float32, n*per), Y: make([]int, n), N: n, Size: cfg.Size}
	for i := 0; i < n; i++ {
		c := i % cfg.Classes
		s.Y[i] = c
		proto := d.prototypes[c*per : (c+1)*per]
		dst := s.X[i*per : (i+1)*per]
		dy := rng.Intn(2*cfg.MaxShift+1) - cfg.MaxShift
		dx := rng.Intn(2*cfg.MaxShift+1) - cfg.MaxShift
		for ch := 0; ch < 3; ch++ {
			for y := 0; y < cfg.Size; y++ {
				sy := y + dy
				for x := 0; x < cfg.Size; x++ {
					sx := x + dx
					var v float32
					if sy >= 0 && sy < cfg.Size && sx >= 0 && sx < cfg.Size {
						v = proto[(ch*cfg.Size+sy)*cfg.Size+sx]
					}
					dst[(ch*cfg.Size+y)*cfg.Size+x] = v + float32(rng.Normal(0, cfg.NoiseStd))
				}
			}
		}
	}
	// Shuffle example order so minibatches mix classes.
	rng.Shuffle(n, func(i, j int) {
		s.Y[i], s.Y[j] = s.Y[j], s.Y[i]
		xi := s.X[i*per : (i+1)*per]
		xj := s.X[j*per : (j+1)*per]
		for k := range xi {
			xi[k], xj[k] = xj[k], xi[k]
		}
	})
	return s
}

// Subset returns a view of the first n examples of a split as a
// BatchSource (used for attack sample batches).
func Subset(s *Split, n int) *Split {
	if n > s.N {
		n = s.N
	}
	per := 3 * s.Size * s.Size
	return &Split{X: s.X[:n*per], Y: s.Y[:n], N: n, Size: s.Size}
}
