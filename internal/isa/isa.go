// Package isa implements the DRAM-Locker instruction set of paper Fig. 5:
// 16-bit instructions with a 2-bit opcode.
//
//	OP=01  AAP   dst, src   row copy (ACT-ACT-PRE / RowClone) between the
//	                        rows named by two 7-bit micro-registers
//	OP=10  BNEZ  reg, off   decrement-and-branch-if-not-zero loop control
//	OP=11  DONE             terminate the program
//	OP=00  NOP              reserved / padding
//
// Layout (bit 15 is the MSB):
//
//	[15:14] opcode
//	[13:7]  operand A (AAP: dst µReg, BNEZ: counter µReg)
//	[6:0]   operand B (AAP: src µReg, BNEZ: signed 7-bit branch offset)
//
// The memory controller loads row addresses into micro-registers, then runs
// a small program (e.g. the three-copy SWAP) on the sequencer. The package
// provides the encoder/decoder, a text assembler/disassembler, and program
// builders for the canonical SWAP sequence.
package isa

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Opcode is the 2-bit operation field.
type Opcode uint8

// Instruction opcodes (Fig. 5).
const (
	OpNOP  Opcode = 0b00
	OpAAP  Opcode = 0b01 // row copy via back-to-back activates
	OpBNEZ Opcode = 0b10
	OpDONE Opcode = 0b11
)

// String returns the assembler mnemonic.
func (o Opcode) String() string {
	switch o {
	case OpNOP:
		return "NOP"
	case OpAAP:
		return "AAP"
	case OpBNEZ:
		return "BNEZ"
	case OpDONE:
		return "DONE"
	default:
		return fmt.Sprintf("OP(%d)", uint8(o))
	}
}

// NumMicroRegs is the micro-register file size (7-bit operand fields).
const NumMicroRegs = 128

// Instruction is one decoded 16-bit DRAM-Locker instruction.
type Instruction struct {
	Op Opcode
	// A is the first operand: AAP destination µReg, or BNEZ counter µReg.
	A uint8
	// B is the second operand: AAP source µReg, or BNEZ branch offset
	// (signed, in instructions, relative to the next instruction).
	B int8
}

// Errors returned by encoding and decoding.
var (
	ErrBadRegister = errors.New("isa: micro-register out of range")
	ErrBadOffset   = errors.New("isa: branch offset out of 7-bit range")
	ErrBadMnemonic = errors.New("isa: unknown mnemonic")
	ErrBadOperands = errors.New("isa: wrong operands")
)

// Copy builds an AAP row-copy instruction dst <- src.
func Copy(dst, src uint8) Instruction { return Instruction{Op: OpAAP, A: dst, B: int8(src)} }

// Bnez builds a decrement-and-branch instruction on µReg reg.
func Bnez(reg uint8, offset int8) Instruction {
	return Instruction{Op: OpBNEZ, A: reg, B: offset}
}

// Done builds the terminator instruction.
func Done() Instruction { return Instruction{Op: OpDONE} }

// Nop builds a no-op.
func Nop() Instruction { return Instruction{Op: OpNOP} }

// Encode packs the instruction into its 16-bit wire format.
func (in Instruction) Encode() (uint16, error) {
	if in.A >= NumMicroRegs {
		return 0, fmt.Errorf("%w: A=%d", ErrBadRegister, in.A)
	}
	var b uint8
	switch in.Op {
	case OpAAP:
		if uint8(in.B) >= NumMicroRegs {
			return 0, fmt.Errorf("%w: B=%d", ErrBadRegister, uint8(in.B))
		}
		b = uint8(in.B)
	case OpBNEZ:
		if in.B < -64 || in.B > 63 {
			return 0, fmt.Errorf("%w: %d", ErrBadOffset, in.B)
		}
		b = uint8(in.B) & 0x7f
	case OpNOP, OpDONE:
		b = 0
	default:
		return 0, fmt.Errorf("%w: %d", ErrBadMnemonic, in.Op)
	}
	word := uint16(in.Op)<<14 | uint16(in.A&0x7f)<<7 | uint16(b)
	return word, nil
}

// Decode unpacks a 16-bit word into an Instruction.
func Decode(word uint16) Instruction {
	op := Opcode(word >> 14)
	a := uint8(word>>7) & 0x7f
	braw := uint8(word) & 0x7f
	in := Instruction{Op: op, A: a}
	switch op {
	case OpBNEZ:
		// Sign-extend the 7-bit offset.
		if braw&0x40 != 0 {
			in.B = int8(braw | 0x80)
		} else {
			in.B = int8(braw)
		}
	case OpAAP:
		in.B = int8(braw)
	}
	return in
}

// String renders the instruction in assembler syntax.
func (in Instruction) String() string {
	switch in.Op {
	case OpAAP:
		return fmt.Sprintf("AAP R%d R%d", in.A, uint8(in.B))
	case OpBNEZ:
		return fmt.Sprintf("BNEZ R%d %d", in.A, in.B)
	case OpDONE:
		return "DONE"
	case OpNOP:
		return "NOP"
	default:
		return fmt.Sprintf("OP(%d) %d %d", uint8(in.Op), in.A, in.B)
	}
}

// Assemble parses a program in assembler syntax, one instruction per line.
// Blank lines and ";"-comments are ignored. Registers are written R0..R127.
func Assemble(src string) ([]Instruction, error) {
	var prog []Instruction
	for lineNo, line := range strings.Split(src, "\n") {
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		in, err := assembleLine(fields)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo+1, err)
		}
		prog = append(prog, in)
	}
	return prog, nil
}

func assembleLine(fields []string) (Instruction, error) {
	mnem := strings.ToUpper(fields[0])
	switch mnem {
	case "AAP":
		if len(fields) != 3 {
			return Instruction{}, fmt.Errorf("%w: AAP needs 2 registers", ErrBadOperands)
		}
		dst, err := parseReg(fields[1])
		if err != nil {
			return Instruction{}, err
		}
		src, err := parseReg(fields[2])
		if err != nil {
			return Instruction{}, err
		}
		return Copy(dst, src), nil
	case "BNEZ":
		if len(fields) != 3 {
			return Instruction{}, fmt.Errorf("%w: BNEZ needs register and offset", ErrBadOperands)
		}
		reg, err := parseReg(fields[1])
		if err != nil {
			return Instruction{}, err
		}
		off, err := strconv.Atoi(fields[2])
		if err != nil || off < -64 || off > 63 {
			return Instruction{}, fmt.Errorf("%w: %q", ErrBadOffset, fields[2])
		}
		return Bnez(reg, int8(off)), nil
	case "DONE":
		if len(fields) != 1 {
			return Instruction{}, fmt.Errorf("%w: DONE takes no operands", ErrBadOperands)
		}
		return Done(), nil
	case "NOP":
		if len(fields) != 1 {
			return Instruction{}, fmt.Errorf("%w: NOP takes no operands", ErrBadOperands)
		}
		return Nop(), nil
	default:
		return Instruction{}, fmt.Errorf("%w: %q", ErrBadMnemonic, fields[0])
	}
}

func parseReg(s string) (uint8, error) {
	if len(s) < 2 || (s[0] != 'R' && s[0] != 'r') {
		return 0, fmt.Errorf("%w: %q", ErrBadRegister, s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= NumMicroRegs {
		return 0, fmt.Errorf("%w: %q", ErrBadRegister, s)
	}
	return uint8(n), nil
}

// Disassemble renders a program back to assembler text.
func Disassemble(prog []Instruction) string {
	var b strings.Builder
	for i, in := range prog {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(in.String())
	}
	return b.String()
}

// EncodeProgram encodes a whole program to wire words.
func EncodeProgram(prog []Instruction) ([]uint16, error) {
	out := make([]uint16, len(prog))
	for i, in := range prog {
		w, err := in.Encode()
		if err != nil {
			return nil, fmt.Errorf("isa: instruction %d (%v): %w", i, in, err)
		}
		out[i] = w
	}
	return out, nil
}

// DecodeProgram decodes wire words to instructions.
func DecodeProgram(words []uint16) []Instruction {
	out := make([]Instruction, len(words))
	for i, w := range words {
		out[i] = Decode(w)
	}
	return out
}

// Canonical micro-register assignments used by the controller's built-in
// programs. The controller loads row addresses into these before running.
const (
	RegLocked   uint8 = 0 // the locked row being pulled out
	RegUnlocked uint8 = 1 // the free row receiving the data
	RegBuffer   uint8 = 2 // the reserved buffer row
	RegCounter  uint8 = 3 // loop counter for repeated sequences
)

// SwapProgram returns the canonical three-copy SWAP of paper Fig. 4(b):
//
//	AAP Rbuffer  Rlocked    ; step 1: locked -> buffer
//	AAP Rlocked  Runlocked  ; step 2: unlocked -> locked
//	AAP Runlocked Rbuffer   ; step 3: buffer -> unlocked
//	DONE
func SwapProgram() []Instruction {
	return []Instruction{
		Copy(RegBuffer, RegLocked),
		Copy(RegLocked, RegUnlocked),
		Copy(RegUnlocked, RegBuffer),
		Done(),
	}
}
