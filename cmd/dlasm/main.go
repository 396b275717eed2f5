// Command dlasm assembles, disassembles and executes DRAM-Locker ISA
// programs (the 16-bit instruction set of paper Fig. 5).
//
// Usage:
//
//	dlasm -mode asm   -in prog.s            # assemble to hex words
//	dlasm -mode dis   -words 4100,4001,c000 # disassemble
//	dlasm -mode run   -in prog.s            # execute a SWAP-style program
//	dlasm -mode swap                        # print the canonical SWAP
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/dram"
	"repro/internal/isa"
)

func main() {
	mode := flag.String("mode", "swap", "asm | dis | run | swap")
	in := flag.String("in", "", "assembler source file (stdin if empty)")
	words := flag.String("words", "", "comma-separated hex words for -mode dis")
	flag.Parse()

	if err := run(*mode, *in, *words); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func readSource(in string) (string, error) {
	if in == "" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(in)
	return string(b), err
}

func run(mode, in, words string) error {
	switch mode {
	case "asm":
		src, err := readSource(in)
		if err != nil {
			return err
		}
		prog, err := isa.Assemble(src)
		if err != nil {
			return err
		}
		enc, err := isa.EncodeProgram(prog)
		if err != nil {
			return err
		}
		for i, w := range enc {
			fmt.Printf("%04x  %s\n", w, prog[i])
		}
		return nil

	case "dis":
		if words == "" {
			return fmt.Errorf("dlasm: -mode dis needs -words")
		}
		for _, tok := range strings.Split(words, ",") {
			w, err := strconv.ParseUint(strings.TrimSpace(tok), 16, 16)
			if err != nil {
				return fmt.Errorf("dlasm: word %q: %w", tok, err)
			}
			fmt.Println(isa.Decode(uint16(w)))
		}
		return nil

	case "run":
		src, err := readSource(in)
		if err != nil {
			return err
		}
		prog, err := isa.Assemble(src)
		if err != nil {
			return err
		}
		return execute(prog)

	case "swap":
		prog := isa.SwapProgram()
		fmt.Println("; canonical three-copy SWAP (paper Fig. 4(b))")
		fmt.Println(isa.Disassemble(prog))
		enc, err := isa.EncodeProgram(prog)
		if err != nil {
			return err
		}
		fmt.Print("; words:")
		for _, w := range enc {
			fmt.Printf(" %04x", w)
		}
		fmt.Println()
		return execute(prog)

	default:
		return fmt.Errorf("dlasm: unknown mode %q", mode)
	}
}

// execute runs the program on a scratch device with the canonical
// registers bound to demonstration rows.
func execute(prog []isa.Instruction) error {
	dev, err := dram.NewDevice(dram.SmallGeometry())
	if err != nil {
		return err
	}
	seq := isa.NewSequencer(dev)
	locked := dram.RowAddr{Bank: 0, Row: 5}
	unlocked := dram.RowAddr{Bank: 0, Row: 9}
	buffer := dram.RowAddr{Bank: 0, Row: 63}
	if err := dev.PokeRow(locked, []byte("LOCKED")); err != nil {
		return err
	}
	if err := dev.PokeRow(unlocked, []byte("free")); err != nil {
		return err
	}
	for reg, row := range map[uint8]dram.RowAddr{
		isa.RegLocked: locked, isa.RegUnlocked: unlocked, isa.RegBuffer: buffer,
	} {
		if err := seq.BindRow(reg, row); err != nil {
			return err
		}
	}
	if err := seq.BindCounter(isa.RegCounter, 1); err != nil {
		return err
	}
	res, err := seq.Run(prog)
	if err != nil {
		return err
	}
	a, b := make([]byte, 8), make([]byte, 8)
	if err := dev.PeekRow(locked, a); err != nil {
		return err
	}
	if err := dev.PeekRow(unlocked, b); err != nil {
		return err
	}
	fmt.Printf("executed: %d uops, %d copies, latency %v\n", res.Steps, res.Copies, res.Latency)
	fmt.Printf("R%d (locked row)   now: %q\n", isa.RegLocked, strings.TrimRight(string(a), "\x00"))
	fmt.Printf("R%d (unlocked row) now: %q\n", isa.RegUnlocked, strings.TrimRight(string(b), "\x00"))
	return nil
}
