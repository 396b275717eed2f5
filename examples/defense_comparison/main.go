// Defense comparison: runs the same single-sided RowHammer campaign
// against every implemented mitigation — no defense, PARA, counter-per-row,
// Graphene, Hydra, CounterTree, TWiCE, RRS, SHADOW, and DRAM-Locker — as
// an engine job and reports whether the victim bit flipped and what each
// mechanism spent. Each mechanism's campaign is one shard
// (experiments.DefenseRowFor) of the defense grid job; this example runs
// that job through the registry like any other experiment.
package main

import (
	"fmt"
	"log"

	"repro/internal/engine"
	"repro/internal/experiments"
)

func main() {
	reg := engine.NewRegistry()
	// Small's TRH of 200 gives the classic 2000-activation campaign.
	if err := experiments.RegisterJobs(reg, experiments.Small()); err != nil {
		log.Fatal(err)
	}
	rep, err := engine.Run(reg, engine.Options{Filter: []string{"*/defense"}})
	if err != nil {
		log.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		log.Fatal(err)
	}
	for _, r := range rep.Results {
		fmt.Print(r.Text)
	}
}
