package isa

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dram"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	// Property: every valid instruction survives the 16-bit wire format.
	f := func(op uint8, a uint8, b int8) bool {
		in := Instruction{Op: Opcode(op % 4), A: a % NumMicroRegs}
		switch in.Op {
		case OpAAP:
			in.B = int8(uint8(b) % NumMicroRegs)
		case OpBNEZ:
			v := int8(b)
			if v < -64 {
				v = -64
			}
			if v > 63 {
				v = 63
			}
			in.B = v
		}
		w, err := in.Encode()
		if err != nil {
			return false
		}
		return Decode(w) == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeRejectsBadOperands(t *testing.T) {
	if _, err := (Instruction{Op: OpAAP, A: 200}).Encode(); !errors.Is(err, ErrBadRegister) {
		t.Fatal("A >= 128 must be rejected")
	}
	if _, err := Copy(1, 200).Encode(); !errors.Is(err, ErrBadRegister) {
		t.Fatal("src >= 128 must be rejected")
	}
	if _, err := Bnez(1, -65).Encode(); !errors.Is(err, ErrBadOffset) {
		t.Fatal("offset < -64 must be rejected")
	}
}

func TestBnezNegativeOffsetSignExtension(t *testing.T) {
	in := Bnez(3, -4)
	w, err := in.Encode()
	if err != nil {
		t.Fatal(err)
	}
	out := Decode(w)
	if out.B != -4 {
		t.Fatalf("decoded offset %d, want -4", out.B)
	}
}

func TestOpcodeBitsMatchFig5(t *testing.T) {
	// Fig. 5: OP=01 row copy, OP=10 bnez, OP=11 done.
	w, _ := Copy(0, 0).Encode()
	if w>>14 != 0b01 {
		t.Fatalf("AAP opcode bits = %02b, want 01", w>>14)
	}
	w, _ = Bnez(0, 0).Encode()
	if w>>14 != 0b10 {
		t.Fatalf("BNEZ opcode bits = %02b, want 10", w>>14)
	}
	w, _ = Done().Encode()
	if w>>14 != 0b11 {
		t.Fatalf("DONE opcode bits = %02b, want 11", w>>14)
	}
}

// The assembler vectors, shared by the TestAssemble* tests and
// FuzzAssemble's seed corpus.
const (
	assembleRoundTripSrc = "AAP R2 R0\nAAP R0 R1\nBNEZ R3 -2\nNOP\nDONE"
	assembleCommentsSrc  = "; full comment line\n\n  AAP R1 R2  ; inline\n\nDONE\n"
)

var assembleErrorCases = []string{
	"FROB R1 R2",
	"AAP R1",
	"AAP R1 R200",
	"BNEZ R1 99",
	"DONE R1",
	"AAP X1 R2",
}

func TestAssembleDisassembleRoundTrip(t *testing.T) {
	src := assembleRoundTripSrc
	prog, err := Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if Disassemble(prog) != src {
		t.Fatalf("round trip:\n%s\nvs\n%s", Disassemble(prog), src)
	}
}

func TestAssembleCommentsAndBlankLines(t *testing.T) {
	prog, err := Assemble(assembleCommentsSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog) != 2 || prog[0].Op != OpAAP || prog[1].Op != OpDONE {
		t.Fatalf("prog = %v", prog)
	}
}

func TestAssembleErrors(t *testing.T) {
	for _, src := range assembleErrorCases {
		if _, err := Assemble(src); err == nil {
			t.Errorf("Assemble(%q) should fail", src)
		}
	}
}

func TestSwapProgramIsPaperSequence(t *testing.T) {
	prog := SwapProgram()
	want := []Instruction{
		Copy(RegBuffer, RegLocked),
		Copy(RegLocked, RegUnlocked),
		Copy(RegUnlocked, RegBuffer),
		Done(),
	}
	if len(prog) != len(want) {
		t.Fatalf("len = %d", len(prog))
	}
	for i := range want {
		if prog[i] != want[i] {
			t.Fatalf("step %d = %v, want %v", i, prog[i], want[i])
		}
	}
}

func newSeq(t *testing.T) (*dram.Device, *Sequencer) {
	t.Helper()
	dev, err := dram.NewDevice(dram.SmallGeometry())
	if err != nil {
		t.Fatal(err)
	}
	return dev, NewSequencer(dev)
}

// peek returns a copy of row a.
func peek(t *testing.T, dev *dram.Device, a dram.RowAddr) []byte {
	t.Helper()
	row := make([]byte, dev.Geometry().RowBytes)
	if err := dev.PeekRow(a, row); err != nil {
		t.Fatal(err)
	}
	return row
}

func TestSequencerRunsSwap(t *testing.T) {
	dev, seq := newSeq(t)
	locked := dram.RowAddr{Bank: 0, Row: 5}
	unlocked := dram.RowAddr{Bank: 0, Row: 9}
	buffer := dram.RowAddr{Bank: 0, Row: 62}
	dev.PokeRow(locked, []byte("L"))
	dev.PokeRow(unlocked, []byte("U"))
	seq.BindRow(RegLocked, locked)
	seq.BindRow(RegUnlocked, unlocked)
	seq.BindRow(RegBuffer, buffer)
	res, err := seq.Run(SwapProgram())
	if err != nil {
		t.Fatal(err)
	}
	if res.Copies != 3 || res.Steps != 4 {
		t.Fatalf("res = %+v", res)
	}
	a := peek(t, dev, locked)
	b := peek(t, dev, unlocked)
	if a[0] != 'U' || b[0] != 'L' {
		t.Fatalf("swap failed: %c %c", a[0], b[0])
	}
}

// TestSwapProgramIsInvolution: running the SWAP program twice on the
// same bindings restores both rows, for arbitrary row data
// (property-based). This is the controller's swap-out then swap-back.
func TestSwapProgramIsInvolution(t *testing.T) {
	f := func(dataA, dataB []byte) bool {
		dev, seq := newSeq(t)
		a := dram.RowAddr{Bank: 1, Row: 5}
		b := dram.RowAddr{Bank: 1, Row: 9}
		buf := dram.RowAddr{Bank: 1, Row: 60}
		rowBytes := dev.Geometry().RowBytes
		dev.PokeRow(a, dataA[:min(len(dataA), rowBytes)])
		dev.PokeRow(b, dataB[:min(len(dataB), rowBytes)])
		origA := peek(t, dev, a)
		origB := peek(t, dev, b)
		seq.BindRow(RegLocked, a)
		seq.BindRow(RegUnlocked, b)
		seq.BindRow(RegBuffer, buf)
		for range 2 {
			if _, err := seq.Run(SwapProgram()); err != nil {
				return false
			}
		}
		nowA := peek(t, dev, a)
		nowB := peek(t, dev, b)
		return string(nowA) == string(origA) && string(nowB) == string(origB)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestSequencerBnezLoopCount(t *testing.T) {
	dev, seq := newSeq(t)
	src := dram.RowAddr{Bank: 0, Row: 2}
	dst := dram.RowAddr{Bank: 0, Row: 4}
	dev.PokeRow(src, []byte("X"))
	seq.BindRow(10, dst)
	seq.BindRow(11, src)
	seq.BindCounter(RegCounter, 5)
	prog := []Instruction{
		Copy(10, 11),
		Bnez(RegCounter, -2),
		Done(),
	}
	res, err := seq.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	// Counter 5: copies run 5 times (loop body re-entered while counter
	// decrements to zero).
	if res.Copies != 5 {
		t.Fatalf("copies = %d, want 5", res.Copies)
	}
	if seq.Counter(RegCounter) != 0 {
		t.Fatalf("counter = %d, want 0", seq.Counter(RegCounter))
	}
}

func TestSequencerUnboundRegisterFails(t *testing.T) {
	_, seq := newSeq(t)
	_, err := seq.Run([]Instruction{Copy(1, 2), Done()})
	if !errors.Is(err, ErrUnboundReg) {
		t.Fatalf("err = %v, want ErrUnboundReg", err)
	}
}

func TestSequencerNoTerminator(t *testing.T) {
	dev, seq := newSeq(t)
	dev.PokeRow(dram.RowAddr{Bank: 0, Row: 2}, []byte("X"))
	seq.BindRow(0, dram.RowAddr{Bank: 0, Row: 2})
	seq.BindRow(1, dram.RowAddr{Bank: 0, Row: 4})
	_, err := seq.Run([]Instruction{Copy(1, 0)})
	if !errors.Is(err, ErrNoTerminator) {
		t.Fatalf("err = %v, want ErrNoTerminator", err)
	}
}

func TestSequencerRunawayLoopBounded(t *testing.T) {
	_, seq := newSeq(t)
	seq.BindCounter(3, 1<<40) // effectively infinite
	prog := []Instruction{
		Nop(),
		Bnez(3, -2),
		Done(),
	}
	_, err := seq.Run(prog)
	if !errors.Is(err, ErrStepBudget) {
		t.Fatalf("err = %v, want ErrStepBudget", err)
	}
}

func TestSequencerBranchOutOfRange(t *testing.T) {
	_, seq := newSeq(t)
	seq.BindCounter(3, 5)
	_, err := seq.Run([]Instruction{Bnez(3, -10), Done()})
	if !errors.Is(err, ErrBranchRange) {
		t.Fatalf("err = %v, want ErrBranchRange", err)
	}
}

func TestEncodeProgramDecodeProgram(t *testing.T) {
	prog := SwapProgram()
	words, err := EncodeProgram(prog)
	if err != nil {
		t.Fatal(err)
	}
	back := DecodeProgram(words)
	for i := range prog {
		if back[i] != prog[i] {
			t.Fatalf("instruction %d: %v != %v", i, back[i], prog[i])
		}
	}
}

func TestInstructionStrings(t *testing.T) {
	if s := Copy(2, 0).String(); !strings.Contains(s, "AAP R2 R0") {
		t.Fatalf("String = %q", s)
	}
	if s := Bnez(3, -2).String(); !strings.Contains(s, "BNEZ R3 -2") {
		t.Fatalf("String = %q", s)
	}
}
