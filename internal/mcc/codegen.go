package mcc

import (
	"fmt"

	"binpart/internal/freelist"
	"binpart/internal/mips"
)

// callFix records a jal whose target is patched once every function is
// placed.
type callFix struct {
	instIdx int32 // index into the program's machine code
	callee  int32 // function id
}

// argRegs are the argument registers, in parameter order.
var argRegs = [...]mips.Reg{mips.A0, mips.A1, mips.A2, mips.A3}

// codegen translates one TAC function to MIPS, appending to the
// program's machine code.
type codegen struct {
	f         *tacFunc
	alloc     *allocation
	dataAddr  []uint32 // data symbol id -> address
	insts     []mips.Inst
	labelPos  []int32 // label id -> index into insts; the epilogue is label f.NLabel
	branchFix []branchFix
	callFix   []callFix
	frame     int32
	slotOff   []int32
	spillOff  int32
	raOff     int32
	saveOff   [32]int32
}

type branchFix struct {
	instIdx int32
	label   int32
}

// genFunction compiles one TAC function, appending its machine code to
// insts and its unresolved calls to calls. dataAddr resolves data symbols
// (globals and jump tables) to absolute addresses. labelPos maps each
// label id to the index in insts it marks (-1 if the label was
// optimized away); it lives in the function's scratch.
func genFunction(f *tacFunc, dataAddr []uint32, insts []mips.Inst, calls []callFix) (_ []mips.Inst, _ []callFix, labelPos []int32, _ error) {
	sc := f.sc
	cg := &codegen{
		f:         f,
		alloc:     allocate(f),
		dataAddr:  dataAddr,
		insts:     insts,
		callFix:   calls,
		labelPos:  freelist.Resize(sc.labelPos, int(f.NLabel)+1),
		branchFix: sc.branchFix[:0],
	}
	for i := range cg.labelPos {
		cg.labelPos[i] = -1
	}
	cg.layoutFrame()
	cg.prologue()
	for i := range f.Ins {
		if err := cg.genIns(&f.Ins[i]); err != nil {
			return nil, nil, nil, fmt.Errorf("mcc: %s: %w", f.Name, err)
		}
	}
	cg.labelPos[f.NLabel] = int32(len(cg.insts))
	cg.epilogue()
	sc.labelPos, sc.branchFix = cg.labelPos, cg.branchFix
	if err := cg.fixBranches(); err != nil {
		return nil, nil, nil, fmt.Errorf("mcc: %s: %w", f.Name, err)
	}
	return cg.insts, cg.callFix, cg.labelPos, nil
}

func (cg *codegen) layoutFrame() {
	// Spills, saved registers and $ra go at the bottom so their offsets
	// always fit 16-bit immediates even when local arrays make the frame
	// huge; large local-slot offsets go through $at in the addressing
	// paths instead.
	off := int32(0)
	cg.spillOff = off
	off += int32(4 * cg.alloc.numSpills)
	for _, r := range cg.alloc.usedCallee {
		cg.saveOff[r] = off
		off += 4
	}
	if cg.alloc.hasCall {
		cg.raOff = off
		off += 4
	}
	// Local slots.
	cg.slotOff = freelist.Resize(cg.f.sc.slotOff, len(cg.f.Slots))
	cg.f.sc.slotOff = cg.slotOff
	for i, s := range cg.f.Slots {
		align := int32(s.Align)
		if align < 4 {
			align = 4
		}
		off = (off + align - 1) &^ (align - 1)
		cg.slotOff[i] = off
		off += (int32(s.Size) + 3) &^ 3
	}
	cg.frame = (off + 7) &^ 7
}

func (cg *codegen) emit(in mips.Inst) { cg.insts = append(cg.insts, in) }

// adjustSP moves the stack pointer by delta, using $at for adjustments
// beyond the 16-bit immediate range (large frames).
func (cg *codegen) adjustSP(delta int32) {
	if delta == 0 {
		return
	}
	if fitsSigned16(delta) {
		cg.emit(mips.Inst{Op: mips.ADDIU, Rt: mips.SP, Rs: mips.SP, Imm: delta})
		return
	}
	cg.loadImm(mips.AT, delta)
	cg.emit(mips.Inst{Op: mips.ADDU, Rd: mips.SP, Rs: mips.SP, Rt: mips.AT})
}

func (cg *codegen) prologue() {
	cg.adjustSP(-cg.frame)
	if cg.alloc.hasCall {
		cg.emit(mips.Inst{Op: mips.SW, Rt: mips.RA, Rs: mips.SP, Imm: cg.raOff})
	}
	for _, r := range cg.alloc.usedCallee {
		cg.emit(mips.Inst{Op: mips.SW, Rt: r, Rs: mips.SP, Imm: cg.saveOff[r]})
	}
	// Bind incoming arguments to their temps.
	for i, p := range cg.f.Params {
		if i >= len(argRegs) {
			break
		}
		cg.writeTemp(p, argRegs[i])
	}
}

func (cg *codegen) epilogue() {
	for _, r := range cg.alloc.usedCallee {
		cg.emit(mips.Inst{Op: mips.LW, Rt: r, Rs: mips.SP, Imm: cg.saveOff[r]})
	}
	if cg.alloc.hasCall {
		cg.emit(mips.Inst{Op: mips.LW, Rt: mips.RA, Rs: mips.SP, Imm: cg.raOff})
	}
	cg.adjustSP(cg.frame)
	cg.emit(mips.Inst{Op: mips.JR, Rs: mips.RA})
}

// tempReg returns the register holding t, loading a spilled temp into the
// given scratch first.
func (cg *codegen) tempReg(t Temp, scratch mips.Reg) mips.Reg {
	if r := cg.alloc.reg[t]; r != 0 {
		return r
	}
	slot := cg.alloc.spill[t]
	if slot < 0 {
		// A temp with no allocation was never live; its value is
		// irrelevant, but reads must still produce something.
		return mips.Zero
	}
	cg.emit(mips.Inst{Op: mips.LW, Rt: scratch, Rs: mips.SP, Imm: cg.spillOff + int32(4*slot)})
	return scratch
}

// destReg returns the register an instruction should compute into for dest
// temp t; if t is spilled the result goes into scratch and writeBack must
// be called after the computation.
func (cg *codegen) destReg(t Temp, scratch mips.Reg) (mips.Reg, bool) {
	if r := cg.alloc.reg[t]; r != 0 {
		return r, false
	}
	return scratch, true
}

func (cg *codegen) writeBack(t Temp, from mips.Reg) {
	slot := cg.alloc.spill[t]
	if slot < 0 {
		return // dead temp
	}
	cg.emit(mips.Inst{Op: mips.SW, Rt: from, Rs: mips.SP, Imm: cg.spillOff + int32(4*slot)})
}

// writeTemp moves a value already in register from into temp t.
func (cg *codegen) writeTemp(t Temp, from mips.Reg) {
	if r := cg.alloc.reg[t]; r != 0 {
		if r != from {
			cg.emit(mips.Inst{Op: mips.ADDU, Rd: r, Rs: from, Rt: mips.Zero})
		}
		return
	}
	cg.writeBack(t, from)
}

// loadImm materializes a 32-bit constant into reg.
func (cg *codegen) loadImm(reg mips.Reg, v int32) {
	if v >= -32768 && v <= 32767 {
		cg.emit(mips.Inst{Op: mips.ADDIU, Rt: reg, Rs: mips.Zero, Imm: v})
		return
	}
	uv := uint32(v)
	cg.emit(mips.Inst{Op: mips.LUI, Rt: reg, Imm: int32(uv >> 16)})
	if low := uv & 0xffff; low != 0 {
		cg.emit(mips.Inst{Op: mips.ORI, Rt: reg, Rs: reg, Imm: int32(low)})
	}
}

// operandReg places an operand in a register.
func (cg *codegen) operandReg(o Operand, scratch mips.Reg) mips.Reg {
	if o.IsConst() {
		if o.Val == 0 {
			return mips.Zero
		}
		cg.loadImm(scratch, o.Val)
		return scratch
	}
	return cg.tempReg(o.Temp, scratch)
}

func fitsSigned16(v int32) bool   { return v >= -32768 && v <= 32767 }
func fitsUnsigned16(v int32) bool { return v >= 0 && v <= 0xffff }

func (cg *codegen) genIns(in *ins) error {
	switch in.Kind {
	case iNop:
	case iLabel:
		cg.labelPos[in.Sym] = int32(len(cg.insts))
	case iMov:
		d, spilled := cg.destReg(in.Dst, mips.K0)
		if in.A.IsConst() {
			cg.loadImm(d, in.A.Val)
		} else {
			src := cg.tempReg(in.A.Temp, mips.K0)
			if src != d {
				cg.emit(mips.Inst{Op: mips.ADDU, Rd: d, Rs: src, Rt: mips.Zero})
			}
		}
		if spilled {
			cg.writeBack(in.Dst, d)
		}
	case iBin:
		return cg.genBin(in)
	case iLoad:
		base := cg.operandReg(in.A, mips.K0)
		base = cg.addLargeOffset(base, &in.Off)
		d, spilled := cg.destReg(in.Dst, mips.K0)
		var op mips.Op
		switch {
		case in.Width == 1 && in.SignExtend:
			op = mips.LB
		case in.Width == 1:
			op = mips.LBU
		case in.Width == 2 && in.SignExtend:
			op = mips.LH
		case in.Width == 2:
			op = mips.LHU
		default:
			op = mips.LW
		}
		cg.emit(mips.Inst{Op: op, Rt: d, Rs: base, Imm: in.Off})
		if spilled {
			cg.writeBack(in.Dst, d)
		}
	case iStore:
		base := cg.operandReg(in.B, mips.K0)
		base = cg.addLargeOffset(base, &in.Off)
		val := cg.operandReg(in.A, mips.K1)
		var op mips.Op
		switch in.Width {
		case 1:
			op = mips.SB
		case 2:
			op = mips.SH
		default:
			op = mips.SW
		}
		cg.emit(mips.Inst{Op: op, Rt: val, Rs: base, Imm: in.Off})
	case iAddrG:
		if int(in.Sym) >= len(cg.dataAddr) {
			return fmt.Errorf("unknown data symbol %d", in.Sym)
		}
		addr := cg.dataAddr[in.Sym]
		d, spilled := cg.destReg(in.Dst, mips.K0)
		cg.loadImm(d, int32(addr))
		if spilled {
			cg.writeBack(in.Dst, d)
		}
	case iAddrL:
		d, spilled := cg.destReg(in.Dst, mips.K0)
		if off := cg.slotOff[in.Slot]; fitsSigned16(off) {
			cg.emit(mips.Inst{Op: mips.ADDIU, Rt: d, Rs: mips.SP, Imm: off})
		} else {
			cg.loadImm(mips.AT, off)
			cg.emit(mips.Inst{Op: mips.ADDU, Rd: d, Rs: mips.SP, Rt: mips.AT})
		}
		if spilled {
			cg.writeBack(in.Dst, d)
		}
	case iBr:
		cg.branchFix = append(cg.branchFix, branchFix{int32(len(cg.insts)), in.Sym})
		cg.emit(mips.Inst{Op: mips.BEQ, Rs: mips.Zero, Rt: mips.Zero})
	case iCBr:
		return cg.genCBr(in)
	case iJT:
		r := cg.operandReg(in.A, mips.K0)
		cg.emit(mips.Inst{Op: mips.JR, Rs: r})
	case iCall:
		for i, a := range cg.f.args(in) {
			if a.IsConst() {
				cg.loadImm(argRegs[i], a.Val)
				continue
			}
			src := cg.tempReg(a.Temp, mips.K0)
			if src != argRegs[i] {
				cg.emit(mips.Inst{Op: mips.ADDU, Rd: argRegs[i], Rs: src, Rt: mips.Zero})
			}
		}
		cg.callFix = append(cg.callFix, callFix{int32(len(cg.insts)), in.Sym})
		cg.emit(mips.Inst{Op: mips.JAL})
		if in.HasDst {
			cg.writeTemp(in.Dst, mips.V0)
		}
	case iRet:
		if in.HasA {
			if in.A.IsConst() {
				cg.loadImm(mips.V0, in.A.Val)
			} else {
				src := cg.tempReg(in.A.Temp, mips.K0)
				if src != mips.V0 {
					cg.emit(mips.Inst{Op: mips.ADDU, Rd: mips.V0, Rs: src, Rt: mips.Zero})
				}
			}
		}
		cg.branchFix = append(cg.branchFix, branchFix{int32(len(cg.insts)), cg.f.NLabel})
		cg.emit(mips.Inst{Op: mips.BEQ, Rs: mips.Zero, Rt: mips.Zero})
	default:
		return fmt.Errorf("unhandled TAC instruction %s", cg.f.insString(in))
	}
	return nil
}

// addLargeOffset folds an out-of-range memory offset into the base register
// using $at, returning the effective base.
func (cg *codegen) addLargeOffset(base mips.Reg, off *int32) mips.Reg {
	if fitsSigned16(*off) {
		return base
	}
	cg.loadImm(mips.AT, *off)
	cg.emit(mips.Inst{Op: mips.ADDU, Rd: mips.AT, Rs: base, Rt: mips.AT})
	*off = 0
	return mips.AT
}

func (cg *codegen) genBin(in *ins) error {
	d, spilled := cg.destReg(in.Dst, mips.K0)
	defer func() {
		if spilled {
			cg.writeBack(in.Dst, d)
		}
	}()

	a, b := in.A, in.B
	// Try immediate forms with the constant on the right; commute where
	// legal.
	if a.IsConst() && !b.IsConst() {
		switch in.Op {
		case opAdd, opAnd, opOr, opXor, opMul:
			a, b = b, a
		}
	}

	if !a.IsConst() && b.IsConst() {
		ra := func() mips.Reg { return cg.tempReg(a.Temp, mips.K0) }
		v := b.Val
		switch in.Op {
		case opAdd:
			if fitsSigned16(v) {
				cg.emit(mips.Inst{Op: mips.ADDIU, Rt: d, Rs: ra(), Imm: v})
				return nil
			}
		case opSub:
			if fitsSigned16(-v) {
				cg.emit(mips.Inst{Op: mips.ADDIU, Rt: d, Rs: ra(), Imm: -v})
				return nil
			}
		case opAnd:
			if fitsUnsigned16(v) {
				cg.emit(mips.Inst{Op: mips.ANDI, Rt: d, Rs: ra(), Imm: v})
				return nil
			}
		case opOr:
			if fitsUnsigned16(v) {
				cg.emit(mips.Inst{Op: mips.ORI, Rt: d, Rs: ra(), Imm: v})
				return nil
			}
		case opXor:
			if fitsUnsigned16(v) {
				cg.emit(mips.Inst{Op: mips.XORI, Rt: d, Rs: ra(), Imm: v})
				return nil
			}
		case opLT:
			if fitsSigned16(v) {
				cg.emit(mips.Inst{Op: mips.SLTI, Rt: d, Rs: ra(), Imm: v})
				return nil
			}
		case opLTU:
			if fitsSigned16(v) {
				cg.emit(mips.Inst{Op: mips.SLTIU, Rt: d, Rs: ra(), Imm: v})
				return nil
			}
		case opShl:
			cg.emit(mips.Inst{Op: mips.SLL, Rd: d, Rt: ra(), Imm: v & 31})
			return nil
		case opShrS:
			cg.emit(mips.Inst{Op: mips.SRA, Rd: d, Rt: ra(), Imm: v & 31})
			return nil
		case opShrU:
			cg.emit(mips.Inst{Op: mips.SRL, Rd: d, Rt: ra(), Imm: v & 31})
			return nil
		}
	}

	rs := cg.operandReg(a, mips.K0)
	rt := cg.operandReg(b, mips.K1)
	switch in.Op {
	case opAdd:
		cg.emit(mips.Inst{Op: mips.ADDU, Rd: d, Rs: rs, Rt: rt})
	case opSub:
		cg.emit(mips.Inst{Op: mips.SUBU, Rd: d, Rs: rs, Rt: rt})
	case opAnd:
		cg.emit(mips.Inst{Op: mips.AND, Rd: d, Rs: rs, Rt: rt})
	case opOr:
		cg.emit(mips.Inst{Op: mips.OR, Rd: d, Rs: rs, Rt: rt})
	case opXor:
		cg.emit(mips.Inst{Op: mips.XOR, Rd: d, Rs: rs, Rt: rt})
	case opLT:
		cg.emit(mips.Inst{Op: mips.SLT, Rd: d, Rs: rs, Rt: rt})
	case opLTU:
		cg.emit(mips.Inst{Op: mips.SLTU, Rd: d, Rs: rs, Rt: rt})
	case opShl:
		cg.emit(mips.Inst{Op: mips.SLLV, Rd: d, Rs: rt, Rt: rs})
	case opShrS:
		cg.emit(mips.Inst{Op: mips.SRAV, Rd: d, Rs: rt, Rt: rs})
	case opShrU:
		cg.emit(mips.Inst{Op: mips.SRLV, Rd: d, Rs: rt, Rt: rs})
	case opMul:
		cg.emit(mips.Inst{Op: mips.MULT, Rs: rs, Rt: rt})
		cg.emit(mips.Inst{Op: mips.MFLO, Rd: d})
	case opDiv:
		cg.emit(mips.Inst{Op: mips.DIV, Rs: rs, Rt: rt})
		cg.emit(mips.Inst{Op: mips.MFLO, Rd: d})
	case opDivU:
		cg.emit(mips.Inst{Op: mips.DIVU, Rs: rs, Rt: rt})
		cg.emit(mips.Inst{Op: mips.MFLO, Rd: d})
	case opRem:
		cg.emit(mips.Inst{Op: mips.DIV, Rs: rs, Rt: rt})
		cg.emit(mips.Inst{Op: mips.MFHI, Rd: d})
	case opRemU:
		cg.emit(mips.Inst{Op: mips.DIVU, Rs: rs, Rt: rt})
		cg.emit(mips.Inst{Op: mips.MFHI, Rd: d})
	default:
		return fmt.Errorf("unhandled binary operator %q", in.Op.String())
	}
	return nil
}

func (cg *codegen) genCBr(in *ins) error {
	branch := func(inst mips.Inst) {
		cg.branchFix = append(cg.branchFix, branchFix{int32(len(cg.insts)), in.Sym})
		cg.emit(inst)
	}
	// Comparisons against constant zero map to MIPS's dedicated branches.
	if in.B.IsConst() && in.B.Val == 0 && !in.A.IsConst() {
		ra := cg.tempReg(in.A.Temp, mips.K0)
		switch in.Op {
		case opEQ:
			branch(mips.Inst{Op: mips.BEQ, Rs: ra, Rt: mips.Zero})
			return nil
		case opNE:
			branch(mips.Inst{Op: mips.BNE, Rs: ra, Rt: mips.Zero})
			return nil
		case opLT:
			branch(mips.Inst{Op: mips.BLTZ, Rs: ra})
			return nil
		case opLE:
			branch(mips.Inst{Op: mips.BLEZ, Rs: ra})
			return nil
		case opGT:
			branch(mips.Inst{Op: mips.BGTZ, Rs: ra})
			return nil
		case opGE:
			branch(mips.Inst{Op: mips.BGEZ, Rs: ra})
			return nil
		case opLTU:
			return nil // x <u 0 is never true
		case opGEU:
			branch(mips.Inst{Op: mips.BEQ, Rs: mips.Zero, Rt: mips.Zero})
			return nil
		case opGTU:
			branch(mips.Inst{Op: mips.BNE, Rs: ra, Rt: mips.Zero})
			return nil
		case opLEU:
			branch(mips.Inst{Op: mips.BEQ, Rs: ra, Rt: mips.Zero})
			return nil
		}
	}

	if in.Op == opEQ || in.Op == opNE {
		ra := cg.operandReg(in.A, mips.K0)
		rb := cg.operandReg(in.B, mips.K1)
		op := mips.BEQ
		if in.Op == opNE {
			op = mips.BNE
		}
		branch(mips.Inst{Op: op, Rs: ra, Rt: rb})
		return nil
	}

	// General relational: slt into $at, then branch on $at.
	sltInto := func(x, y Operand, unsigned bool) {
		rx := cg.operandReg(x, mips.K0)
		if y.IsConst() && fitsSigned16(y.Val) {
			op := mips.SLTI
			if unsigned {
				op = mips.SLTIU
			}
			cg.emit(mips.Inst{Op: op, Rt: mips.AT, Rs: rx, Imm: y.Val})
			return
		}
		ry := cg.operandReg(y, mips.K1)
		op := mips.SLT
		if unsigned {
			op = mips.SLTU
		}
		cg.emit(mips.Inst{Op: op, Rd: mips.AT, Rs: rx, Rt: ry})
	}
	switch in.Op {
	case opLT:
		sltInto(in.A, in.B, false)
		branch(mips.Inst{Op: mips.BNE, Rs: mips.AT, Rt: mips.Zero})
	case opLTU:
		sltInto(in.A, in.B, true)
		branch(mips.Inst{Op: mips.BNE, Rs: mips.AT, Rt: mips.Zero})
	case opGE:
		sltInto(in.A, in.B, false)
		branch(mips.Inst{Op: mips.BEQ, Rs: mips.AT, Rt: mips.Zero})
	case opGEU:
		sltInto(in.A, in.B, true)
		branch(mips.Inst{Op: mips.BEQ, Rs: mips.AT, Rt: mips.Zero})
	case opGT:
		sltInto(in.B, in.A, false)
		branch(mips.Inst{Op: mips.BNE, Rs: mips.AT, Rt: mips.Zero})
	case opGTU:
		sltInto(in.B, in.A, true)
		branch(mips.Inst{Op: mips.BNE, Rs: mips.AT, Rt: mips.Zero})
	case opLE:
		sltInto(in.B, in.A, false)
		branch(mips.Inst{Op: mips.BEQ, Rs: mips.AT, Rt: mips.Zero})
	case opLEU:
		sltInto(in.B, in.A, true)
		branch(mips.Inst{Op: mips.BEQ, Rs: mips.AT, Rt: mips.Zero})
	default:
		return fmt.Errorf("unhandled branch condition %q", in.Op.String())
	}
	return nil
}

// fixBranches resolves local branch targets to PC-relative word offsets.
func (cg *codegen) fixBranches() error {
	for _, fx := range cg.branchFix {
		pos := cg.labelPos[fx.label]
		if pos < 0 {
			return fmt.Errorf("undefined label L%d", fx.label)
		}
		off := pos - (fx.instIdx + 1)
		if off < -32768 || off > 32767 {
			return fmt.Errorf("branch to L%d out of range (%d instructions)", fx.label, off)
		}
		cg.insts[fx.instIdx].Imm = int32(off)
	}
	return nil
}
