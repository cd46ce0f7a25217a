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
// Every fact about an opcode lives in one row of the ops table: its
// mnemonic, cost class, encoding numbers (primary opcode, plus the SPECIAL
// funct or REGIMM rt), the register it writes, and its operands in
// assembly order as a short layout such as "dst" (rd, rs, rt), "dta" (rd,
// rt, shift amount), "tsi" (rt, rs, signed immediate), "tm" (rt,
// offset(rs)) or "stb" (rs, rt, branch offset). Encode and Decode pack and
// unpack the fields the layout names, String prints it, the assembler
// parses it, and Dest and the cost predicates read the row; nothing else
// restates an opcode.
//
// One deliberate simplification relative to real MIPS-I: there are no branch
// delay slots. Delay slots are an artifact of the hardware pipeline and are
// orthogonal to every technique in the reproduced paper; omitting them keeps
// the compiler, simulator and decompiler honest without changing any result.
package mips

import (
	"fmt"
	"strconv"
)

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

// opInfo is everything the package knows about one opcode; Encode,
// Decode, String, the assembler, Dest and the cost predicates all read
// it from the one ops table.
type opInfo struct {
	name string
	cost CostClass
	// opcode is the primary opcode (bits 31-26). Under SPECIAL (0) sub
	// is the funct field (bits 5-0), under REGIMM (1) the rt field
	// (bits 20-16); other opcodes leave it 0.
	opcode, sub uint8
	// layout lists the operands in assembly order, one letter each:
	//
	//	d, s, t  the register in Rd, Rs, Rt
	//	a        shift amount: Imm in the shamt field, 0..31
	//	i        signed 16-bit immediate in Imm
	//	u        unsigned 16-bit immediate in Imm
	//	m        memory operand imm(rs): signed 16-bit Imm, base Rs
	//	b        branch offset: signed word offset in Imm, printed +n
	//	j        jump target: byte address in Target, 26-bit word field
	layout string
	// dest names the register the instruction writes: 'd' (Rd), 't'
	// (Rt), 'r' ($ra), or 0 for none.
	dest byte
}

// ops is the opcode table, hand-checked against the MIPS-I manual by
// TestEncodeDecodeKnownWords. NOP is the all-zero word, which would
// otherwise decode as sll $zero, $zero, 0.
var ops = [numOps]opInfo{
	//     name, cost class, opcode, funct or rt, layout, dest
	NOP:   {"nop", CostALU, 0x00, 0x00, "", 0},
	ADD:   {"add", CostALU, 0x00, 0x20, "dst", 'd'},
	ADDU:  {"addu", CostALU, 0x00, 0x21, "dst", 'd'},
	SUB:   {"sub", CostALU, 0x00, 0x22, "dst", 'd'},
	SUBU:  {"subu", CostALU, 0x00, 0x23, "dst", 'd'},
	AND:   {"and", CostALU, 0x00, 0x24, "dst", 'd'},
	OR:    {"or", CostALU, 0x00, 0x25, "dst", 'd'},
	XOR:   {"xor", CostALU, 0x00, 0x26, "dst", 'd'},
	NOR:   {"nor", CostALU, 0x00, 0x27, "dst", 'd'},
	SLT:   {"slt", CostALU, 0x00, 0x2a, "dst", 'd'},
	SLTU:  {"sltu", CostALU, 0x00, 0x2b, "dst", 'd'},
	SLL:   {"sll", CostALU, 0x00, 0x00, "dta", 'd'},
	SRL:   {"srl", CostALU, 0x00, 0x02, "dta", 'd'},
	SRA:   {"sra", CostALU, 0x00, 0x03, "dta", 'd'},
	SLLV:  {"sllv", CostALU, 0x00, 0x04, "dts", 'd'},
	SRLV:  {"srlv", CostALU, 0x00, 0x06, "dts", 'd'},
	SRAV:  {"srav", CostALU, 0x00, 0x07, "dts", 'd'},
	MULT:  {"mult", CostMult, 0x00, 0x18, "st", 0},
	MULTU: {"multu", CostMult, 0x00, 0x19, "st", 0},
	DIV:   {"div", CostDiv, 0x00, 0x1a, "st", 0},
	DIVU:  {"divu", CostDiv, 0x00, 0x1b, "st", 0},
	MFHI:  {"mfhi", CostALU, 0x00, 0x10, "d", 'd'},
	MFLO:  {"mflo", CostALU, 0x00, 0x12, "d", 'd'},
	MTHI:  {"mthi", CostALU, 0x00, 0x11, "s", 0},
	MTLO:  {"mtlo", CostALU, 0x00, 0x13, "s", 0},
	JR:    {"jr", CostJump, 0x00, 0x08, "s", 0},
	JALR:  {"jalr", CostJump, 0x00, 0x09, "ds", 'd'},
	BREAK: {"break", CostALU, 0x00, 0x0d, "", 0},
	ADDI:  {"addi", CostALU, 0x08, 0, "tsi", 't'},
	ADDIU: {"addiu", CostALU, 0x09, 0, "tsi", 't'},
	SLTI:  {"slti", CostALU, 0x0a, 0, "tsi", 't'},
	SLTIU: {"sltiu", CostALU, 0x0b, 0, "tsi", 't'},
	ANDI:  {"andi", CostALU, 0x0c, 0, "tsu", 't'},
	ORI:   {"ori", CostALU, 0x0d, 0, "tsu", 't'},
	XORI:  {"xori", CostALU, 0x0e, 0, "tsu", 't'},
	LUI:   {"lui", CostALU, 0x0f, 0, "tu", 't'},
	LB:    {"lb", CostLoad, 0x20, 0, "tm", 't'},
	LBU:   {"lbu", CostLoad, 0x24, 0, "tm", 't'},
	LH:    {"lh", CostLoad, 0x21, 0, "tm", 't'},
	LHU:   {"lhu", CostLoad, 0x25, 0, "tm", 't'},
	LW:    {"lw", CostLoad, 0x23, 0, "tm", 't'},
	SB:    {"sb", CostStore, 0x28, 0, "tm", 0},
	SH:    {"sh", CostStore, 0x29, 0, "tm", 0},
	SW:    {"sw", CostStore, 0x2b, 0, "tm", 0},
	BEQ:   {"beq", CostBranch, 0x04, 0, "stb", 0},
	BNE:   {"bne", CostBranch, 0x05, 0, "stb", 0},
	BLEZ:  {"blez", CostBranch, 0x06, 0, "sb", 0},
	BGTZ:  {"bgtz", CostBranch, 0x07, 0, "sb", 0},
	BLTZ:  {"bltz", CostBranch, 0x01, 0x00, "sb", 0},
	BGEZ:  {"bgez", CostBranch, 0x01, 0x01, "sb", 0},
	J:     {"j", CostJump, 0x02, 0, "j", 0},
	JAL:   {"jal", CostJump, 0x03, 0, "j", 'r'},
}

// String returns the lowercase mnemonic.
func (o Op) String() string {
	if o < numOps {
		return ops[o].name
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
	if o < numOps {
		return ops[o].cost
	}
	return CostALU
}

// IsCondBranch reports whether the opcode is a conditional branch.
func (o Op) IsCondBranch() bool { return o.Cost() == CostBranch }

// EndsBlock reports whether the opcode terminates a basic block: any
// control transfer, or BREAK (the simulator's halt).
func (o Op) EndsBlock() bool {
	c := o.Cost()
	return c == CostBranch || c == CostJump || o == BREAK
}

// IsBranch reports whether the instruction is a conditional branch.
func (i Inst) IsBranch() bool { return i.Op.IsCondBranch() }

// EndsBlock reports whether the instruction terminates a basic block.
func (i Inst) EndsBlock() bool { return i.Op.EndsBlock() }

// Dest returns the register written by the instruction and whether one is
// written at all. HI/LO side effects of MULT/DIV are not reported here.
func (i Inst) Dest() (Reg, bool) {
	if i.Op < numOps {
		switch ops[i.Op].dest {
		case 'd':
			return i.Rd, true
		case 't':
			return i.Rt, true
		case 'r':
			return RA, true
		}
	}
	return 0, false
}

// String disassembles the instruction using conventional MIPS syntax.
// Branch and jump targets are shown as relative word offsets and absolute
// addresses respectively since no symbol context is available here.
func (i Inst) String() string {
	if i.Op >= numOps {
		return fmt.Sprintf("<bad %d>", uint8(i.Op))
	}
	info := &ops[i.Op]
	b := []byte(info.name)
	for k := 0; k < len(info.layout); k++ {
		if k == 0 {
			b = append(b, ' ')
		} else {
			b = append(b, ", "...)
		}
		switch info.layout[k] {
		case 'd':
			b = append(b, i.Rd.String()...)
		case 's':
			b = append(b, i.Rs.String()...)
		case 't':
			b = append(b, i.Rt.String()...)
		case 'a', 'i', 'u':
			b = strconv.AppendInt(b, int64(i.Imm), 10)
		case 'm':
			b = strconv.AppendInt(b, int64(i.Imm), 10)
			b = append(b, '(')
			b = append(b, i.Rs.String()...)
			b = append(b, ')')
		case 'b':
			if i.Imm >= 0 {
				b = append(b, '+')
			}
			b = strconv.AppendInt(b, int64(i.Imm), 10)
		case 'j':
			b = append(b, "0x"...)
			b = strconv.AppendUint(b, uint64(i.Target), 16)
		}
	}
	return string(b)
}
