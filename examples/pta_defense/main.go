// PTA defense demo: the attacker corrupts page-table entries (Fig. 3(b))
// to redirect its own virtual page onto the victim's weight frames and
// overwrite them. DRAM-Locker locks the rows adjacent to the page-table
// rows, so the PTE bits can never be hammered.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/experiments"
)

func main() {
	p := experiments.Tiny()

	fmt.Println("training victim and building page tables in DRAM...")
	r, err := experiments.Fig8PTA(context.Background(), p)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiments.FormatFig8PTA(r))

	fmt.Println()
	fmt.Println("interpretation:")
	fmt.Printf("  - undefended, each PTE redirect lets the attacker overwrite a whole\n")
	fmt.Printf("    weight row; accuracy collapsed to %.1f%%\n", r.Without.FinalAccuracy()*100)
	fmt.Printf("  - with DRAM-Locker on the page-table rows (%d rows locked), all %d\n",
		r.LockedRows, r.With.TotalDenied)
	fmt.Printf("    redirect attempts were denied; accuracy stayed at %.1f%%\n",
		r.With.FinalAccuracy()*100)
}
