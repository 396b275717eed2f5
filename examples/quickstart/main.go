// Quickstart: build a DRAM-Locker system, store a secret in a DRAM row,
// lock its aggressor-candidate neighbors, and watch a RowHammer campaign
// bounce off the lock-table while the victim program keeps full access.
package main

import (
	"bytes"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dram"
)

func main() {
	sys, err := core.NewSystem(core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	ctl := sys.Controller()
	geom := sys.Device().Geometry()

	// The victim stores critical data (say, DNN weights) in row 10 of
	// bank 0. With 256-byte rows, physical address = rowIndex * rowBytes
	// under the bank-interleaved map; use the mapper to be exact.
	victimRow := dram.RowAddr{Bank: 0, Row: 10}
	phys, err := ctl.Mapper().Untranslate(victimRow, 0)
	if err != nil {
		log.Fatal(err)
	}
	secret := []byte("weights that must not flip")
	if _, err := ctl.Write(phys, secret); err != nil {
		log.Fatal(err)
	}

	// Lock the rows physically adjacent to the victim row — the only rows
	// an attacker could hammer to disturb it.
	locked, err := ctl.LockNeighborsOf(phys)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("locked %d aggressor-candidate rows: %v\n", len(locked), locked)

	// The attacker hammers those neighbors far past the threshold.
	attempts, denied := 0, 0
	for _, agg := range geom.Neighbors(victimRow, 1) {
		for i := 0; i < sys.Hammer().TRH()*2; i++ {
			activated, _, err := ctl.HammerAttempt(agg)
			if err != nil {
				log.Fatal(err)
			}
			attempts++
			if !activated {
				denied++
			}
		}
	}
	fmt.Printf("hammer attempts: %d, denied by lock-table: %d\n", attempts, denied)
	fmt.Printf("disturbance flips injected: %d\n", sys.Hammer().TotalFlips())

	// The victim still reads its data intact.
	got, _, err := ctl.Read(phys, len(secret))
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		log.Fatalf("secret corrupted: %q", got)
	}
	fmt.Printf("victim read back intact: %q\n", got)

	st := ctl.Stats()
	fmt.Printf("controller: %d instructions, %d denied, %d swaps, total latency %v\n",
		st.Instructions, st.Denied, st.Swaps, st.TotalLatency)
}
