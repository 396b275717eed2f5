// ISA demo: assembles the paper's three-copy SWAP program (Fig. 5),
// encodes it to 16-bit words, runs it on the micro-op sequencer against a
// real DRAM device, and shows the two rows exchanging contents.
package main

import (
	"fmt"
	"log"

	"repro/internal/dram"
	"repro/internal/isa"
)

func main() {
	dev, err := dram.NewDevice(dram.SmallGeometry(), dram.DDR4Timing())
	if err != nil {
		log.Fatal(err)
	}
	seq := isa.NewSequencer(dev)

	// Three rows of the same subarray: locked, unlocked, buffer.
	locked := dram.RowAddr{Bank: 0, Row: 5}
	unlocked := dram.RowAddr{Bank: 0, Row: 20}
	buffer := dram.RowAddr{Bank: 0, Row: 63}
	must(dev.PokeRow(locked, []byte("LOCKED-ROW-DATA")))
	must(dev.PokeRow(unlocked, []byte("free-row-data")))

	// The canonical SWAP, written in assembler and round-tripped through
	// the 16-bit encoding.
	src := `
		AAP R2 R0   ; step 1: locked  -> buffer
		AAP R0 R1   ; step 2: unlocked -> locked
		AAP R1 R2   ; step 3: buffer -> unlocked
		DONE
	`
	prog, err := isa.Assemble(src)
	if err != nil {
		log.Fatal(err)
	}
	words, err := isa.EncodeProgram(prog)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("assembled SWAP program:")
	for _, w := range words {
		fmt.Printf("  %04x  %s\n", w, isa.Decode(w))
	}

	must(seq.BindRow(isa.RegLocked, locked))
	must(seq.BindRow(isa.RegUnlocked, unlocked))
	must(seq.BindRow(isa.RegBuffer, buffer))
	res, err := seq.Run(isa.DecodeProgram(words))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("executed %d uops, %d row copies, latency %v\n",
		res.Steps, res.Copies, res.Latency)

	a, b := make([]byte, 16), make([]byte, 16)
	must(dev.PeekRow(locked, a))
	must(dev.PeekRow(unlocked, b))
	fmt.Printf("locked row now holds:   %q\n", a)
	fmt.Printf("unlocked row now holds: %q\n", b)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
