//go:build !race

package attack

// The zero-alloc steady-state pin is excluded from -race builds: race
// instrumentation allocates, which is noise, not a regression.

import (
	"testing"

	"repro/internal/par"
)

// TestSearchIterationSteadyStateAllocs pins the zero-alloc contract of
// the reused Searcher on both iteration paths: once warm, an iteration
// that commits a flip (gradient pass, selection, trials, loss and
// accuracy rerun from the flipped layer) and one that follows a denial
// (selection, memoised trials, one new trial, reused loss and accuracy)
// stay off the allocator.
func TestSearchIterationSteadyStateAllocs(t *testing.T) {
	origBudget := par.Budget()
	defer par.SetBudget(origBudget)
	par.SetBudget(1) // serial: goroutine spawns would count as allocs
	for _, path := range searchPaths {
		t.Run(path.name, func(t *testing.T) {
			qm, ab, eval := trainedVictim(t)
			exec := path.exec(qm)
			s, res := newSearchIter(t, qm, ab, eval, exec, 6)
			allocs := testing.AllocsPerRun(5, func() {
				if _, _, err := s.iterate(exec, res); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 0 {
				t.Fatalf("steady-state %s iteration allocates %.1f objects/op, want 0", path.name, allocs)
			}
		})
	}
}
