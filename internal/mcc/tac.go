package mcc

import (
	"fmt"
	"strings"
)

// Temp is a virtual register in the three-address code.
type Temp int32

// noTemp marks a constant operand.
const noTemp Temp = -1

// Operand is a TAC operand: a temp (Val 0) or an immediate constant
// (Temp noTemp). Two words, no flag byte and no pointer, so operands
// compare with == and instruction records stay small.
type Operand struct {
	Temp Temp
	Val  int32
}

func tmp(t Temp) Operand   { return Operand{Temp: t} }
func cnst(v int32) Operand { return Operand{Temp: noTemp, Val: v} }

// IsConst reports whether the operand is an immediate.
func (o Operand) IsConst() bool { return o.Temp < 0 }

func (o Operand) String() string {
	if o.IsConst() {
		return fmt.Sprintf("%d", o.Val)
	}
	return fmt.Sprintf("t%d", o.Temp)
}

// insKind enumerates TAC instruction kinds.
type insKind uint8

const (
	iNop   insKind = iota
	iMov           // Dst = A
	iBin           // Dst = A Op B
	iLoad          // Dst = mem[A + Off] (Width, SignExtend)
	iStore         // mem[B + Off] = A (Width)
	iAddrG         // Dst = address of data symbol Sym
	iAddrL         // Dst = address of frame slot Slot
	iLabel         // label Sym:
	iBr            // goto label Sym
	iCBr           // if (A Op B) goto label Sym
	iJT            // indirect jump to address in A (jump tables)
	iCall          // Dst = function Sym(Args...)  (Dst optional: HasDst)
	iRet           // return A (optional: HasA)
)

// tacOp is the operator of an iBin or iCBr. Signed and unsigned variants
// are distinct where MIPS distinguishes them; iCBr additionally uses the
// comparisons <=, >, >=, == and != (and their unsigned forms).
type tacOp uint8

const (
	opNone tacOp = iota
	opAdd
	opSub
	opMul
	opDiv
	opDivU
	opRem
	opRemU
	opAnd
	opOr
	opXor
	opShl
	opShrS
	opShrU
	opLT
	opLTU
	opLE
	opLEU
	opGT
	opGTU
	opGE
	opGEU
	opEQ
	opNE
)

// tacOps gives each operator its TAC spelling and the source operator and
// signedness foldBin evaluates it with.
var tacOps = [...]struct {
	name, src string
	signed    bool
}{
	opNone: {"?", "", true},
	opAdd:  {"+", "+", true},
	opSub:  {"-", "-", true},
	opMul:  {"*", "*", true},
	opDiv:  {"/", "/", true},
	opDivU: {"/u", "/", false},
	opRem:  {"%", "%", true},
	opRemU: {"%u", "%", false},
	opAnd:  {"&", "&", true},
	opOr:   {"|", "|", true},
	opXor:  {"^", "^", true},
	opShl:  {"<<", "<<", true},
	opShrS: {">>s", ">>", true},
	opShrU: {">>u", ">>", false},
	opLT:   {"<", "<", true},
	opLTU:  {"<u", "<", false},
	opLE:   {"<=", "<=", true},
	opLEU:  {"<=u", "<=", false},
	opGT:   {">", ">", true},
	opGTU:  {">u", ">", false},
	opGE:   {">=", ">=", true},
	opGEU:  {">=u", ">=", false},
	opEQ:   {"==", "==", true},
	opNE:   {"!=", "!=", true},
}

func (o tacOp) String() string { return tacOps[o].name }

// foldTac folds a TAC operator over two constants.
func foldTac(op tacOp, a, b int32) (int32, bool) {
	return foldBin(tacOps[op].src, a, b, tacOps[op].signed)
}

// ins is one TAC instruction: 44 bytes, no pointers. Call arguments live
// in the function's operand pool, and labels, data symbols and callees
// are numbered instead of named.
type ins struct {
	Kind insKind
	Op   tacOp
	// Width/SignExtend qualify loads and stores.
	Width      uint8
	SignExtend bool
	HasDst     bool
	HasA       bool
	NArgs      uint8 // iCall: argument count
	Dst        Temp
	A, B       Operand
	Off        int32
	// Sym is the label id of an iLabel, iBr or iCBr, the data symbol id
	// of an iAddrG and the function id of an iCall.
	Sym  int32
	Slot int32
	// Args indexes an iCall's first argument in tacFunc.Args.
	Args int32
}

// slotInfo describes one stack frame slot.
type slotInfo struct {
	Size  int
	Align int
	Name  string // for diagnostics
}

// jumpTable records a switch jump table to be emitted into the data
// section; Labels are label ids patched to addresses at link time.
type jumpTable struct {
	Sym    int32 // data symbol that will hold the table
	Labels []int32
}

// tacFunc is one function in TAC form.
type tacFunc struct {
	Name   string
	NTemp  int
	NLabel int32
	Params []Temp // temps holding incoming $a0..$a3
	Ins    []ins
	Args   []Operand // call argument pool, indexed by ins.Args
	Slots  []slotInfo
	Tables []jumpTable
	IsVoid bool
	sc     *scratch // the passes' working memory
}

func (f *tacFunc) newTemp() Temp {
	t := Temp(f.NTemp)
	f.NTemp++
	return t
}

func (f *tacFunc) newLabel() int32 {
	l := f.NLabel
	f.NLabel++
	return l
}

func (f *tacFunc) emit(in ins) { f.Ins = append(f.Ins, in) }

// args returns a call's arguments.
func (f *tacFunc) args(in *ins) []Operand { return f.Args[in.Args : in.Args+int32(in.NArgs)] }

func (f *tacFunc) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s (%d temps, %d slots)\n", f.Name, f.NTemp, len(f.Slots))
	for i := range f.Ins {
		if f.Ins[i].Kind == iLabel {
			fmt.Fprintf(&b, "%s\n", f.insString(&f.Ins[i]))
		} else {
			fmt.Fprintf(&b, "\t%s\n", f.insString(&f.Ins[i]))
		}
	}
	return b.String()
}

// insString renders one instruction; labels print as L<id>, data symbols
// as D<id> and callees as F<id>.
func (f *tacFunc) insString(in *ins) string {
	switch in.Kind {
	case iNop:
		return "nop"
	case iMov:
		return fmt.Sprintf("t%d = %s", in.Dst, in.A)
	case iBin:
		return fmt.Sprintf("t%d = %s %s %s", in.Dst, in.A, in.Op, in.B)
	case iLoad:
		sx := "z"
		if in.SignExtend {
			sx = "s"
		}
		return fmt.Sprintf("t%d = load%d%s [%s%+d]", in.Dst, in.Width, sx, in.A, in.Off)
	case iStore:
		return fmt.Sprintf("store%d [%s%+d] = %s", in.Width, in.B, in.Off, in.A)
	case iAddrG:
		return fmt.Sprintf("t%d = &D%d", in.Dst, in.Sym)
	case iAddrL:
		return fmt.Sprintf("t%d = &slot%d", in.Dst, in.Slot)
	case iLabel:
		return fmt.Sprintf("L%d:", in.Sym)
	case iBr:
		return fmt.Sprintf("goto L%d", in.Sym)
	case iCBr:
		return fmt.Sprintf("if %s %s %s goto L%d", in.A, in.Op, in.B, in.Sym)
	case iJT:
		return fmt.Sprintf("goto *%s", in.A)
	case iCall:
		var parts []string
		for _, a := range f.args(in) {
			parts = append(parts, a.String())
		}
		call := fmt.Sprintf("F%d(%s)", in.Sym, strings.Join(parts, ", "))
		if in.HasDst {
			return fmt.Sprintf("t%d = %s", in.Dst, call)
		}
		return call
	case iRet:
		if in.HasA {
			return "ret " + in.A.String()
		}
		return "ret"
	}
	return "?"
}

// appendUses appends the temps instruction in of f reads to dst and
// returns the extended slice; a caller-held buffer of capacity 4 (the
// argument register count bounds iCall) keeps the analysis loops
// allocation-free.
func (f *tacFunc) appendUses(dst []Temp, in *ins) []Temp {
	switch in.Kind {
	case iMov, iJT, iLoad:
		if !in.A.IsConst() {
			dst = append(dst, in.A.Temp)
		}
	case iBin, iCBr, iStore:
		if !in.A.IsConst() {
			dst = append(dst, in.A.Temp)
		}
		if !in.B.IsConst() {
			dst = append(dst, in.B.Temp)
		}
	case iCall:
		for _, a := range f.args(in) {
			if !a.IsConst() {
				dst = append(dst, a.Temp)
			}
		}
	case iRet:
		if in.HasA && !in.A.IsConst() {
			dst = append(dst, in.A.Temp)
		}
	}
	return dst
}

// def returns the temp written by the instruction, if any.
func (in *ins) def() (Temp, bool) {
	switch in.Kind {
	case iMov, iBin, iLoad, iAddrG, iAddrL:
		return in.Dst, true
	case iCall:
		if in.HasDst {
			return in.Dst, true
		}
	}
	return 0, false
}

// replaceUses substitutes every temp use of instruction in of f through
// sub. Only pure value uses are replaced; definitions are left alone.
func (f *tacFunc) replaceUses(in *ins, sub func(Operand) Operand) {
	switch in.Kind {
	case iMov, iJT, iLoad:
		in.A = sub(in.A)
	case iBin, iCBr, iStore:
		in.A = sub(in.A)
		in.B = sub(in.B)
	case iCall:
		args := f.args(in)
		for i := range args {
			args[i] = sub(args[i])
		}
	case iRet:
		if in.HasA {
			in.A = sub(in.A)
		}
	}
}
