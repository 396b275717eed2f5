// BFA defense demo: trains a quantized ResNet-20 on synthetic CIFAR-like
// data, places its weights into simulated DRAM, and runs the gradient-
// guided Bit-Flip Attack twice — against an unprotected system and against
// DRAM-Locker — printing the Fig. 8-style accuracy traces.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/experiments"
)

func main() {
	p := experiments.Tiny()
	p.AttackIters = 12

	fmt.Println("training victim ResNet-20 (synthetic CIFAR-10-like)...")
	r, err := experiments.Fig8(context.Background(), p, experiments.ArchResNet20, 10)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiments.FormatFig8(r))

	fmt.Println()
	fmt.Println("interpretation:")
	fmt.Printf("  - undefended, the attacker landed %d targeted flips and pushed accuracy\n", r.Without.TotalFlips)
	fmt.Printf("    from %.1f%% to %.1f%%\n", r.CleanAcc*100, r.Without.FinalAccuracy()*100)
	fmt.Printf("  - with DRAM-Locker, %d of %d attempts were denied at the lock-table;\n",
		r.With.TotalDenied, r.With.TotalDenied+r.With.TotalFlips)
	fmt.Printf("    accuracy stayed at %.1f%%\n", r.With.FinalAccuracy()*100)
}
