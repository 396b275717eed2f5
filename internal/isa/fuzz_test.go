package isa

import (
	"slices"
	"testing"
)

// FuzzAssemble checks the assembler behind dlasm over arbitrary text.
//
//   - Assemble never panics.
//   - A program it accepts re-assembles from its Disassemble text to the
//     same instructions.
//   - A program it accepts survives EncodeProgram → DecodeProgram
//     unchanged: the assembler accepts only operands the 16-bit format
//     can hold.
//
// The seeds are the TestAssemble* vectors, the disassembled SWAP program
// and one program at the edges of every operand field.
func FuzzAssemble(f *testing.F) {
	f.Add(assembleRoundTripSrc)
	f.Add(assembleCommentsSrc)
	for _, src := range assembleErrorCases {
		f.Add(src)
	}
	f.Add(Disassemble(SwapProgram()))
	f.Add("AAP R127 R0\nAAP r0 r127\nBNEZ R127 -64\nBNEZ R0 63")
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Assemble(src)
		if err != nil {
			return
		}
		text := Disassemble(prog)
		again, err := Assemble(text)
		if err != nil {
			t.Fatalf("Assemble(%q) accepted %v, but its disassembly %q fails: %v", src, prog, text, err)
		}
		if !slices.Equal(again, prog) {
			t.Fatalf("Assemble(%q) = %v, re-assembled from %q = %v", src, prog, text, again)
		}
		words, err := EncodeProgram(prog)
		if err != nil {
			t.Fatalf("Assemble(%q) accepted %v, which does not encode: %v", src, prog, err)
		}
		if back := DecodeProgram(words); !slices.Equal(back, prog) {
			t.Fatalf("Assemble(%q) = %v, encode/decode = %v", src, prog, back)
		}
	})
}
