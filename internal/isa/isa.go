// Package isa defines the abstract instruction set consumed by the timing
// model. It deliberately carries no architectural semantics beyond what a
// cycle-level out-of-order simulator needs: an operation class, register
// dependence distances, a memory address for loads/stores, and the resolved
// outcome for control transfers.
//
// The representation follows the trace-driven style of SimpleScalar's
// sim-outorder: control-flow outcomes are pre-resolved in the stream, and
// the core models the *timing* consequences (mispredictions, cache misses,
// structural hazards) rather than re-executing data computation.
package isa

import "fmt"

// Op identifies the functional class of an instruction. The classes match
// the functional-unit mix in the paper's Table 1 configuration.
type Op uint8

// Operation classes. The zero value is invalid so that an accidentally
// zeroed instruction is caught early.
const (
	OpInvalid  Op = iota
	OpIntALU      // 1-cycle integer operation
	OpIntMul      // integer multiply
	OpIntDiv      // integer divide (non-pipelined)
	OpFPALU       // floating-point add/sub/compare
	OpFPMul       // floating-point multiply
	OpFPDiv       // floating-point divide (non-pipelined)
	OpLoad        // memory read
	OpStore       // memory write
	OpBranch      // conditional branch
	OpJump        // unconditional direct jump
	OpCall        // function call (pushes return address)
	OpReturn      // function return (pops return address)
	opSentinel    // number of op classes + 1
)

// NumOps is the number of valid operation classes.
const NumOps = int(opSentinel) - 1

var opNames = [...]string{
	OpInvalid: "invalid",
	OpIntALU:  "ialu",
	OpIntMul:  "imul",
	OpIntDiv:  "idiv",
	OpFPALU:   "falu",
	OpFPMul:   "fmul",
	OpFPDiv:   "fdiv",
	OpLoad:    "load",
	OpStore:   "store",
	OpBranch:  "branch",
	OpJump:    "jump",
	OpCall:    "call",
	OpReturn:  "return",
}

// String returns the mnemonic for the op class.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether o is a defined operation class.
func (o Op) Valid() bool { return o > OpInvalid && o < opSentinel }

// IsMem reports whether the op accesses data memory.
func (o Op) IsMem() bool { return o == OpLoad || o == OpStore }

// IsCtrl reports whether the op is a control transfer.
func (o Op) IsCtrl() bool {
	return o == OpBranch || o == OpJump || o == OpCall || o == OpReturn
}

// Inst is one dynamic instruction.
//
// Register dependences are encoded as *distances*: SrcDist1 == d means the
// instruction reads a value produced by the instruction d positions earlier
// in the dynamic stream. A distance of 0 means "no dependence" (or a
// dependence old enough that the value is surely available).
type Inst struct {
	// PC is the instruction address. Consecutive static instructions are
	// 4 bytes apart, as on a fixed-width RISC.
	PC uint64

	// Op is the functional class.
	Op Op

	// SrcDist1 and SrcDist2 are dynamic dependence distances to the
	// producers of the two source operands (0 = none).
	SrcDist1, SrcDist2 uint16

	// Addr is the effective address for loads and stores (byte address).
	Addr uint64

	// Size is the access size in bytes for loads and stores (1..8).
	Size uint8

	// Taken is the resolved direction for conditional branches; it is
	// true for jumps, calls, and returns.
	Taken bool

	// Target is the resolved target address for taken control transfers.
	Target uint64
}

// NextPC returns the address of the dynamically next instruction.
func (in *Inst) NextPC() uint64 {
	if in.Op.IsCtrl() && in.Taken {
		return in.Target
	}
	return in.PC + 4
}
