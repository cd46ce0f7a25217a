// Package mips implements the 32-bit MIPS-I integer instruction subset used
// throughout this repository: binary encoding and decoding, disassembly, and
// a small two-pass text assembler.
//
// The subset covers the instructions emitted by the MicroC compiler
// (internal/mcc) and consumed by the decompiler (internal/decompile):
// three-operand ALU arithmetic, immediates, shifts, multiply/divide with
// HI/LO, loads and stores of 1/2/4 bytes, branches, jumps (including the
// indirect jr used by switch jump tables), and BREAK, which the simulator
// treats as program halt.
//
// One deliberate simplification relative to real MIPS-I: there are no branch
// delay slots. Delay slots are an artifact of the hardware pipeline and are
// orthogonal to every technique in the reproduced paper; omitting them keeps
// the compiler, simulator and decompiler honest without changing any result.
package mips

import "fmt"

// Reg identifies one of the 32 general-purpose MIPS registers.
type Reg uint8

// Register numbers follow the standard MIPS o32 conventions.
const (
	Zero Reg = 0 // hardwired zero
	AT   Reg = 1 // assembler temporary
	V0   Reg = 2 // function results
	V1   Reg = 3
	A0   Reg = 4 // arguments
	A1   Reg = 5
	A2   Reg = 6
	A3   Reg = 7
	T0   Reg = 8 // caller-saved temporaries
	T1   Reg = 9
	T2   Reg = 10
	T3   Reg = 11
	T4   Reg = 12
	T5   Reg = 13
	T6   Reg = 14
	T7   Reg = 15
	S0   Reg = 16 // callee-saved
	S1   Reg = 17
	S2   Reg = 18
	S3   Reg = 19
	S4   Reg = 20
	S5   Reg = 21
	S6   Reg = 22
	S7   Reg = 23
	T8   Reg = 24
	T9   Reg = 25
	K0   Reg = 26 // reserved for OS
	K1   Reg = 27
	GP   Reg = 28 // global pointer
	SP   Reg = 29 // stack pointer
	FP   Reg = 30 // frame pointer
	RA   Reg = 31 // return address
)

var regNames = [32]string{
	"zero", "at", "v0", "v1", "a0", "a1", "a2", "a3",
	"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7",
	"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7",
	"t8", "t9", "k0", "k1", "gp", "sp", "fp", "ra",
}

// String returns the conventional register name, e.g. "$t0".
func (r Reg) String() string {
	if int(r) < len(regNames) {
		return "$" + regNames[r]
	}
	return fmt.Sprintf("$r%d", uint8(r))
}

// Op enumerates the supported MIPS mnemonics.
type Op uint8

// Supported instructions, grouped by format.
const (
	NOP Op = iota

	// R-type three-register arithmetic and logic.
	ADD
	ADDU
	SUB
	SUBU
	AND
	OR
	XOR
	NOR
	SLT
	SLTU

	// R-type shifts by immediate (shamt in Imm) and by register.
	SLL
	SRL
	SRA
	SLLV
	SRLV
	SRAV

	// Multiply/divide with HI/LO access.
	MULT
	MULTU
	DIV
	DIVU
	MFHI
	MFLO
	MTHI
	MTLO

	// R-type jumps.
	JR
	JALR

	// BREAK halts the simulator.
	BREAK

	// I-type arithmetic and logic with immediate.
	ADDI
	ADDIU
	SLTI
	SLTIU
	ANDI
	ORI
	XORI
	LUI

	// Loads and stores. Imm is the signed offset from Rs; Rt is data.
	LB
	LBU
	LH
	LHU
	LW
	SB
	SH
	SW

	// Branches. Imm holds the signed word offset from the following
	// instruction (assembler/encoder units: instructions, not bytes).
	BEQ
	BNE
	BLEZ
	BGTZ
	BLTZ
	BGEZ

	// J-type absolute jumps. Target holds a byte address.
	J
	JAL

	numOps
)

var opNames = [numOps]string{
	NOP: "nop", ADD: "add", ADDU: "addu", SUB: "sub", SUBU: "subu",
	AND: "and", OR: "or", XOR: "xor", NOR: "nor", SLT: "slt", SLTU: "sltu",
	SLL: "sll", SRL: "srl", SRA: "sra", SLLV: "sllv", SRLV: "srlv", SRAV: "srav",
	MULT: "mult", MULTU: "multu", DIV: "div", DIVU: "divu",
	MFHI: "mfhi", MFLO: "mflo", MTHI: "mthi", MTLO: "mtlo",
	JR: "jr", JALR: "jalr", BREAK: "break",
	ADDI: "addi", ADDIU: "addiu", SLTI: "slti", SLTIU: "sltiu",
	ANDI: "andi", ORI: "ori", XORI: "xori", LUI: "lui",
	LB: "lb", LBU: "lbu", LH: "lh", LHU: "lhu", LW: "lw",
	SB: "sb", SH: "sh", SW: "sw",
	BEQ: "beq", BNE: "bne", BLEZ: "blez", BGTZ: "bgtz", BLTZ: "bltz", BGEZ: "bgez",
	J: "j", JAL: "jal",
}

// String returns the lowercase mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Inst is a decoded MIPS instruction. Field use depends on Op:
//
//   - Three-register ops use Rd = Rs op Rt.
//   - Immediate ops use Rt = Rs op Imm.
//   - Shifts by immediate use Rd = Rt shift Imm (MIPS encodes shamt).
//   - Loads: Rt = mem[Rs+Imm]; stores: mem[Rs+Imm] = Rt.
//   - Branches compare Rs (and Rt for BEQ/BNE); Imm is a signed word
//     offset relative to the next instruction.
//   - J/JAL use Target as an absolute byte address.
type Inst struct {
	Op     Op
	Rd     Reg
	Rs     Reg
	Rt     Reg
	Imm    int32
	Target uint32
}

// CostClass buckets opcodes by their cycle-model class. The simulator's
// cycle model fixes one cost per class; the fast interpreter predecodes
// the class into a per-instruction cost, and cycle attribution uses the
// same classification so both agree by construction.
type CostClass uint8

// Cost classes, one per cost constant of the simulator's cycle model.
// Branches carry two costs (taken/not-taken) and are resolved at
// execution time.
const (
	CostALU CostClass = iota
	CostLoad
	CostStore
	CostBranch
	CostJump
	CostMult
	CostDiv
)

// Cost returns the instruction class under the cycle model.
func (o Op) Cost() CostClass {
	switch o {
	case LB, LBU, LH, LHU, LW:
		return CostLoad
	case SB, SH, SW:
		return CostStore
	case BEQ, BNE, BLEZ, BGTZ, BLTZ, BGEZ:
		return CostBranch
	case J, JAL, JR, JALR:
		return CostJump
	case MULT, MULTU:
		return CostMult
	case DIV, DIVU:
		return CostDiv
	}
	return CostALU
}

// IsCondBranch reports whether the opcode is a conditional branch.
func (o Op) IsCondBranch() bool {
	switch o {
	case BEQ, BNE, BLEZ, BGTZ, BLTZ, BGEZ:
		return true
	}
	return false
}

// IsJumpOp reports whether the opcode unconditionally transfers control.
func (o Op) IsJumpOp() bool {
	switch o {
	case J, JAL, JR, JALR:
		return true
	}
	return false
}

// EndsBlock reports whether the opcode terminates a basic block: any
// control transfer, or BREAK (the simulator's halt).
func (o Op) EndsBlock() bool {
	return o.IsCondBranch() || o.IsJumpOp() || o == BREAK
}

// IsBranch reports whether the instruction is a conditional branch.
func (i Inst) IsBranch() bool { return i.Op.IsCondBranch() }

// EndsBlock reports whether the instruction terminates a basic block.
func (i Inst) EndsBlock() bool { return i.Op.EndsBlock() }

// Dest returns the register written by the instruction and whether one is
// written at all. HI/LO side effects of MULT/DIV are not reported here.
func (i Inst) Dest() (Reg, bool) {
	switch i.Op {
	case ADD, ADDU, SUB, SUBU, AND, OR, XOR, NOR, SLT, SLTU,
		SLL, SRL, SRA, SLLV, SRLV, SRAV, MFHI, MFLO, JALR:
		return i.Rd, true
	case ADDI, ADDIU, SLTI, SLTIU, ANDI, ORI, XORI, LUI,
		LB, LBU, LH, LHU, LW:
		return i.Rt, true
	case JAL:
		return RA, true
	}
	return 0, false
}

// String disassembles the instruction using conventional MIPS syntax.
// Branch and jump targets are shown as relative word offsets and absolute
// addresses respectively since no symbol context is available here.
func (i Inst) String() string {
	switch i.Op {
	case NOP, BREAK:
		return i.Op.String()
	case ADD, ADDU, SUB, SUBU, AND, OR, XOR, NOR, SLT, SLTU:
		return fmt.Sprintf("%s %s, %s, %s", i.Op, i.Rd, i.Rs, i.Rt)
	case SLLV, SRLV, SRAV:
		return fmt.Sprintf("%s %s, %s, %s", i.Op, i.Rd, i.Rt, i.Rs)
	case SLL, SRL, SRA:
		return fmt.Sprintf("%s %s, %s, %d", i.Op, i.Rd, i.Rt, i.Imm)
	case MULT, MULTU, DIV, DIVU:
		return fmt.Sprintf("%s %s, %s", i.Op, i.Rs, i.Rt)
	case MFHI, MFLO:
		return fmt.Sprintf("%s %s", i.Op, i.Rd)
	case MTHI, MTLO:
		return fmt.Sprintf("%s %s", i.Op, i.Rs)
	case JR:
		return fmt.Sprintf("jr %s", i.Rs)
	case JALR:
		return fmt.Sprintf("jalr %s, %s", i.Rd, i.Rs)
	case ADDI, ADDIU, SLTI, SLTIU, ANDI, ORI, XORI:
		return fmt.Sprintf("%s %s, %s, %d", i.Op, i.Rt, i.Rs, i.Imm)
	case LUI:
		return fmt.Sprintf("lui %s, %d", i.Rt, i.Imm)
	case LB, LBU, LH, LHU, LW, SB, SH, SW:
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, i.Rt, i.Imm, i.Rs)
	case BEQ, BNE:
		return fmt.Sprintf("%s %s, %s, %+d", i.Op, i.Rs, i.Rt, i.Imm)
	case BLEZ, BGTZ, BLTZ, BGEZ:
		return fmt.Sprintf("%s %s, %+d", i.Op, i.Rs, i.Imm)
	case J, JAL:
		return fmt.Sprintf("%s 0x%x", i.Op, i.Target)
	}
	return fmt.Sprintf("<bad %d>", uint8(i.Op))
}
