package attack

// Attack-layer hot-path gauges (make bench-attack): the per-iteration
// cost of the BFA progressive bit search on each of its two paths and
// of candidate selection alone, with allocation stats. The allocs/op of
// BenchmarkBFASearchIter and BenchmarkRankCandidates are zero-alloc
// gates; README's Performance table records the before/after of each
// change to the scan.

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/par"
	"repro/internal/quant"
)

// benchVictim builds the ResNet-20 attack surface at the tiny preset
// scale without training (the gradient landscape's shape, not its
// quality, is what the search cost depends on), with a 16-image attack
// batch and the tiny preset's 80-image eval set.
func benchVictim(b *testing.B) (*quant.Model, nn.Batch, nn.BatchSource) {
	b.Helper()
	ds, err := dataset.Generate(dataset.Tiny(4))
	if err != nil {
		b.Fatal(err)
	}
	qm := quant.NewModel(nn.NewResNet20(4, 0.25, 21))
	return qm, ds.TestSplit.Slice(0, 16), &ds.TestSplit
}

// denyingExecutor refuses every flip, as DRAM-Locker without leaks does.
type denyingExecutor struct{}

func (denyingExecutor) TryFlip(int, int) (FlipOutcome, error) {
	return FlipOutcome{Denied: true}, nil
}

// searchPaths are the two steady states of a BFA iteration. After a
// commit the model changed, so the iteration reruns the gradient pass
// and every trial, and its loss and accuracy rerun from the flipped
// layer. After a denial nothing changed, so it reuses the gradients,
// the loss, the accuracy and the memoised trial losses, and runs the
// candidate scan and one new trial.
var searchPaths = []struct {
	name string
	exec func(*quant.Model) FlipExecutor
}{
	{"commit", func(qm *quant.Model) FlipExecutor { return &DirectExecutor{QM: qm} }},
	{"denied", func(*quant.Model) FlipExecutor { return denyingExecutor{} }},
}

// newSearchIter returns a Searcher bound to the batches, warmed by one
// iteration through exec, with room in its tried set for n more.
func newSearchIter(tb testing.TB, qm *quant.Model, ab nn.Batch, eval nn.BatchSource, exec FlipExecutor, n int) (*Searcher, *Result) {
	cfg := DefaultBFAConfig()
	cfg.CandidatesPerIter = 3
	cfg.Iterations = n + 1
	s, err := NewSearcher(qm, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	s.reset()
	s.ev.bind(ab, eval)
	res := &Result{}
	if _, _, err := s.iterate(exec, res); err != nil {
		tb.Fatal(err)
	}
	return s, res
}

// BenchmarkBFASearchIter times one steady-state attack iteration on a
// reused Searcher, once per path: a search step, the executor call and
// the record's loss and accuracy on the 80-image eval set. Allocs/op
// must stay at 0: no per-iteration candidate slices, map churn or
// activation buffers. The worker budget is pinned to 1, whatever -cpu
// says, because par fan-out spends allocations on goroutines.
func BenchmarkBFASearchIter(b *testing.B) {
	old := par.Budget()
	par.SetBudget(1)
	b.Cleanup(func() { par.SetBudget(old) })
	for _, path := range searchPaths {
		b.Run(path.name, func(b *testing.B) {
			qm, ab, eval := benchVictim(b)
			exec := path.exec(qm)
			s, res := newSearchIter(b, qm, ab, eval, exec, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.iterate(exec, res); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRankCandidates times candidate selection alone: one
// bound-pruned scan of the scored attack surface keeping the top
// CandidatesPerIter untried bits, as every iteration runs it. It runs on the untrained tiny ResNet-20 surface
// (17k weights) and on VGG-11/100 at the tiny preset's width (590k
// weights, fig8b's victim). The scan is serial, so allocs/op is 0 at any
// -cpu.
func BenchmarkRankCandidates(b *testing.B) {
	b.Run("resnet20", func(b *testing.B) {
		qm, ab, _ := benchVictim(b)
		benchRank(b, qm, ab)
	})
	b.Run("vgg11-100", func(b *testing.B) {
		ds, err := dataset.Generate(dataset.Tiny(100))
		if err != nil {
			b.Fatal(err)
		}
		benchRank(b, quant.NewModel(nn.NewVGG11(100, 0.25, 21)), ds.TestSplit.Slice(0, 16))
	})
}

// benchRank times selectTopK on qm's gradients for the attack batch ab.
func benchRank(b *testing.B, qm *quant.Model, ab nn.Batch) {
	cfg := DefaultBFAConfig()
	s, err := NewSearcher(qm, cfg)
	if err != nil {
		b.Fatal(err)
	}
	nn.GradientPass(qm.Net, ab)
	s.selectTopK() // warm scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.selectTopK()
	}
}
