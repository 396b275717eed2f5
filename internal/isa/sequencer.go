package isa

import (
	"errors"
	"fmt"

	"repro/internal/dram"
)

// Errors returned by the sequencer.
var (
	ErrNoTerminator = errors.New("isa: program ran off the end without DONE")
	ErrBranchRange  = errors.New("isa: branch target outside program")
	ErrStepBudget   = errors.New("isa: step budget exhausted (runaway loop?)")
	ErrUnboundReg   = errors.New("isa: micro-register holds no row address")
)

// Sequencer executes DRAM-Locker programs on a device. Each AAP is one
// RowClone FPM copy (Seshadri et al. MICRO'13), dram.Device.RowCloneCopy,
// exact at the model's nominal process corner (§IV.D's erroneous copies
// are internal/circuit's Monte-Carlo). Micro-registers hold either a row
// address (for AAP operands) or a scalar counter (for BNEZ). The
// controller binds registers before Run.
type Sequencer struct {
	dev *dram.Device

	rows    [NumMicroRegs]dram.RowAddr
	bound   [NumMicroRegs]bool
	counter [NumMicroRegs]int64
}

// maxSteps bounds one program run, to catch runaway loops.
const maxSteps = 1 << 20

// NewSequencer builds a sequencer over the device.
func NewSequencer(dev *dram.Device) *Sequencer {
	return &Sequencer{dev: dev}
}

// BindRow loads a row address into a micro-register.
func (s *Sequencer) BindRow(reg uint8, addr dram.RowAddr) error {
	if reg >= NumMicroRegs {
		return fmt.Errorf("%w: R%d", ErrBadRegister, reg)
	}
	s.rows[reg] = addr
	s.bound[reg] = true
	return nil
}

// BindCounter loads a scalar counter into a micro-register.
func (s *Sequencer) BindCounter(reg uint8, v int64) error {
	if reg >= NumMicroRegs {
		return fmt.Errorf("%w: R%d", ErrBadRegister, reg)
	}
	s.counter[reg] = v
	return nil
}

// Counter returns the scalar value of a register.
func (s *Sequencer) Counter(reg uint8) int64 {
	if reg >= NumMicroRegs {
		return 0
	}
	return s.counter[reg]
}

// RunResult reports one program execution.
type RunResult struct {
	Steps   int
	Copies  int
	Latency dram.Picoseconds
}

// Run executes the program until DONE. AAP copies rows with RowClone;
// BNEZ decrements its counter register and branches while non-zero.
func (s *Sequencer) Run(prog []Instruction) (RunResult, error) {
	var res RunResult
	pc := 0
	for {
		if res.Steps >= maxSteps {
			return res, fmt.Errorf("%w after %d steps", ErrStepBudget, res.Steps)
		}
		if pc < 0 || pc >= len(prog) {
			return res, fmt.Errorf("%w: pc=%d len=%d", ErrNoTerminator, pc, len(prog))
		}
		in := prog[pc]
		res.Steps++
		switch in.Op {
		case OpDONE:
			return res, nil
		case OpNOP:
			pc++
		case OpAAP:
			src := uint8(in.B)
			if !s.bound[in.A] {
				return res, fmt.Errorf("%w: dst R%d", ErrUnboundReg, in.A)
			}
			if src >= NumMicroRegs || !s.bound[src] {
				return res, fmt.Errorf("%w: src R%d", ErrUnboundReg, src)
			}
			lat, err := s.dev.RowCloneCopy(s.rows[src], s.rows[in.A])
			if err != nil {
				return res, err
			}
			res.Copies++
			res.Latency += lat
			pc++
		case OpBNEZ:
			if s.counter[in.A] > 0 {
				s.counter[in.A]--
			}
			if s.counter[in.A] != 0 {
				target := pc + 1 + int(in.B)
				if target < 0 || target >= len(prog) {
					return res, fmt.Errorf("%w: pc=%d offset=%d", ErrBranchRange, pc, in.B)
				}
				pc = target
			} else {
				pc++
			}
		default:
			return res, fmt.Errorf("%w: opcode %d", ErrBadMnemonic, in.Op)
		}
	}
}
