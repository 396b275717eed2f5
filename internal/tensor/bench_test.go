package tensor

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/par"
	"repro/internal/stats"
)

// benchKernel times run under a fixed worker budget and reports its
// throughput as GFLOP/s, counting a multiply-add as two FLOPs.
func benchKernel(b *testing.B, budget int, flops float64, run func()) {
	old := par.Budget()
	par.SetBudget(budget)
	defer par.SetBudget(old)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// benchGEMM runs one C = A·B shape under a fixed worker budget. The
// serial/parallel pair for the same shape is the ≥2x multi-core
// throughput gate tracked by `make bench-kernels` in BENCH_<sha>.json.
func benchGEMM(b *testing.B, m, k, n, budget int) {
	rng := stats.NewRNG(1)
	a := randTensor(rng, m, k)
	bb := randTensor(rng, k, n)
	c := New(m, n)
	benchKernel(b, budget, 2*float64(m*k*n), func() { MatMulInto(c, a, bb) })
}

func BenchmarkMatMul256Serial(b *testing.B)   { benchGEMM(b, 256, 256, 256, 1) }
func BenchmarkMatMul256Parallel(b *testing.B) { benchGEMM(b, 256, 256, 256, par.Budget()) }
func BenchmarkMatMul512Serial(b *testing.B)   { benchGEMM(b, 512, 512, 512, 1) }
func BenchmarkMatMul512Parallel(b *testing.B) { benchGEMM(b, 512, 512, 512, par.Budget()) }

// BenchmarkConvGEMM runs the three GEMMs of one convolution's training
// step at the tall-skinny shapes the DNN substrate hands them: forward
// (cols·Wᵀ, MatMulTransB), input gradient (dOut·W, MatMul) and weight
// gradient (dOutᵀ·cols, MatMulTransAAcc), each on the vector tiles and
// on the scalar kernels, on one core and on every core. The vector level
// is left out on a CPU without AVX2.
func BenchmarkConvGEMM(b *testing.B) {
	const rows, inner, outC = 4096, 144, 32 // N*oh*ow, inC*k*k, out channels
	rng := stats.NewRNG(2)
	cols := randTensor(rng, rows, inner)
	w := randTensor(rng, outC, inner)
	g := randTensor(rng, rows, outC)
	out, dcols, grad := New(rows, outC), New(rows, inner), New(outC, inner)
	budgets := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		budgets = append(budgets, n)
	}
	detected := useAVX2
	defer func() { useAVX2 = detected }()
	for _, kern := range []struct {
		name string
		run  func()
	}{
		{"forward", func() { MatMulTransBInto(out, cols, w) }},
		{"input-grad", func() { MatMulInto(dcols, g, w) }},
		{"weight-grad", func() { MatMulTransAAcc(grad, g, cols) }},
	} {
		for _, path := range []struct {
			name   string
			vector bool
		}{{"vector", true}, {"scalar", false}} {
			if path.vector && !detected {
				continue
			}
			for _, budget := range budgets {
				b.Run(fmt.Sprintf("%s/%s/budget%d", kern.name, path.name, budget), func(b *testing.B) {
					useAVX2 = path.vector
					benchKernel(b, budget, 2*rows*inner*outC, kern.run)
				})
			}
		}
	}
}

// The im2col benchmarks lower a 32×16×16×16 batch with a 3×3 kernel,
// stride 1 and padding 1 into an 8192×144 column matrix, and scatter one
// back.
func BenchmarkIm2Col(b *testing.B) {
	rng := stats.NewRNG(4)
	x := randTensor(rng, 32, 16, 16, 16)
	cols := Ensure(nil, 32*16*16, 16*9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Im2ColInto(cols, x, 3, 3, 1, 1)
	}
}

func BenchmarkCol2Im(b *testing.B) {
	rng := stats.NewRNG(5)
	cols := randTensor(rng, 32*16*16, 16*9)
	x := Ensure(nil, 32, 16, 16, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Col2ImInto(x, cols, 3, 3, 1, 1)
	}
}

func BenchmarkScratchPool(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := GetScratch(64, 64)
		PutScratch(t)
	}
}

// BenchmarkGEMMScaling reports per-budget throughput at a fixed shape so
// the bench artifact captures the scaling curve, not just the endpoints.
func BenchmarkGEMMScaling(b *testing.B) {
	for _, budget := range []int{1, 2, 4, 8} {
		if budget > par.Budget() {
			break
		}
		b.Run(fmt.Sprintf("budget%d", budget), func(b *testing.B) {
			benchGEMM(b, 384, 384, 384, budget)
		})
	}
}
