package mcc

import "fmt"

// lval describes an assignable location: either a temp-resident scalar or a
// memory address with width and signedness.
type lval struct {
	isTemp bool
	loc    varLoc
	addr   Operand
	off    int32
	width  uint8
	signed bool
	typ    *Type
}

func (lo *lowerer) lvalue(e Expr) (lval, error) {
	switch e := e.(type) {
	case *Ident:
		if e.Sym == nil {
			return lval{}, lo.errf("internal: unresolved identifier %q", e.Name)
		}
		l := lo.loc(e.Sym)
		t := e.Sym.typ
		switch l.kind {
		case locTemp:
			return lval{isTemp: true, loc: l, typ: t}, nil
		case locSlot:
			addr := lo.f.newTemp()
			lo.f.emit(ins{Kind: iAddrL, Dst: addr, Slot: l.slot})
			return lval{addr: tmp(addr), width: scalarWidth(t), signed: t.Signed(), typ: t}, nil
		default:
			addr := lo.f.newTemp()
			lo.f.emit(ins{Kind: iAddrG, Dst: addr, Sym: l.sym})
			return lval{addr: tmp(addr), width: scalarWidth(t), signed: t.Signed(), typ: t}, nil
		}
	case *IndexExpr:
		base, elem, err := lo.baseAddress(e.Arr)
		if err != nil {
			return lval{}, err
		}
		addr, off, err := lo.indexAddress(base, e.Idx, elem)
		if err != nil {
			return lval{}, err
		}
		return lval{addr: addr, off: off, width: scalarWidth(elem), signed: elem.Signed(), typ: elem}, nil
	case *UnExpr:
		if e.Op != "*" {
			break
		}
		p, err := lo.expr(e.X)
		if err != nil {
			return lval{}, err
		}
		elem := e.T
		return lval{addr: p, width: scalarWidth(elem), signed: elem.Signed(), typ: elem}, nil
	}
	return lval{}, lo.errf("expression is not an lvalue")
}

// baseAddress returns the address operand a pointer-ish expression decays
// to, plus the element type.
func (lo *lowerer) baseAddress(e Expr) (Operand, *Type, error) {
	t := e.ExprType()
	pt := pointerish(t)
	if pt == nil {
		return Operand{}, nil, lo.errf("cannot index %s", t)
	}
	if id, ok := e.(*Ident); ok && id.Sym != nil && id.Sym.typ.Kind == TypeArray {
		l := lo.loc(id.Sym)
		addr := lo.f.newTemp()
		if l.kind == locGlobal {
			lo.f.emit(ins{Kind: iAddrG, Dst: addr, Sym: l.sym})
		} else {
			lo.f.emit(ins{Kind: iAddrL, Dst: addr, Slot: l.slot})
		}
		return tmp(addr), pt.Elem, nil
	}
	// Pointer value (or array decayed through earlier arithmetic).
	v, err := lo.expr(e)
	return v, pt.Elem, err
}

// indexAddress computes base + idx*sizeof(elem), folding constant indices
// into the load/store offset.
func (lo *lowerer) indexAddress(base Operand, idx Expr, elem *Type) (Operand, int32, error) {
	iv, err := lo.expr(idx)
	if err != nil {
		return Operand{}, 0, err
	}
	es := int32(elem.Size())
	if iv.IsConst() {
		return base, iv.Val * es, nil
	}
	scaled := lo.scale(iv, es)
	return lo.binOp(opAdd, base, scaled), 0, nil
}

// scale multiplies v by a constant element size using a shift when the
// size is a power of two, as real compilers do at all levels.
func (lo *lowerer) scale(v Operand, size int32) Operand {
	switch {
	case size == 1:
		return v
	case size&(size-1) == 0:
		sh := int32(0)
		for s := size; s > 1; s >>= 1 {
			sh++
		}
		return lo.binOp(opShl, v, cnst(sh))
	default:
		return lo.binOp(opMul, v, cnst(size))
	}
}

// read loads the current value of an lvalue.
func (lo *lowerer) read(l lval) Operand {
	if l.isTemp {
		return tmp(l.loc.temp)
	}
	d := lo.f.newTemp()
	lo.f.emit(ins{Kind: iLoad, Dst: d, A: l.addr, Off: l.off, Width: l.width, SignExtend: l.signed && l.width < 4})
	return tmp(d)
}

// write stores v into an lvalue, truncating for narrow temp-resident types.
func (lo *lowerer) write(l lval, v Operand) {
	if l.isTemp {
		v = lo.truncate(v, l.typ)
		lo.f.emit(ins{Kind: iMov, Dst: l.loc.temp, A: v})
		return
	}
	lo.f.emit(ins{Kind: iStore, A: v, B: l.addr, Off: l.off, Width: l.width})
}

// signedOf reports whether an operation on the given operand types uses
// signed semantics.
func signedOf(a, b *Type) bool {
	sa, sb := true, true
	if a != nil && a.IsScalar() {
		sa = a.Signed()
	}
	if b != nil && b.IsScalar() {
		sb = b.Signed()
	}
	return sa && sb
}

// tacBinOp maps a source operator plus signedness to the TAC operator.
func tacBinOp(op string, signed bool) tacOp {
	pick := func(s, u tacOp) tacOp {
		if signed {
			return s
		}
		return u
	}
	switch op {
	case "+":
		return opAdd
	case "-":
		return opSub
	case "*":
		return opMul
	case "/":
		return pick(opDiv, opDivU)
	case "%":
		return pick(opRem, opRemU)
	case "&":
		return opAnd
	case "|":
		return opOr
	case "^":
		return opXor
	case "<<":
		return opShl
	case ">>":
		return pick(opShrS, opShrU)
	case "<":
		return pick(opLT, opLTU)
	case "<=":
		return pick(opLE, opLEU)
	case ">":
		return pick(opGT, opGTU)
	case ">=":
		return pick(opGE, opGEU)
	case "==":
		return opEQ
	case "!=":
		return opNE
	}
	return opNone
}

func (lo *lowerer) expr(e Expr) (Operand, error) {
	switch e := e.(type) {
	case *NumLit:
		return cnst(e.Val), nil
	case *Ident:
		if e.Sym != nil && e.Sym.typ.Kind == TypeArray {
			addr, _, err := lo.baseAddress(e)
			return addr, err
		}
		l, err := lo.lvalue(e)
		if err != nil {
			return Operand{}, err
		}
		return lo.read(l), nil
	case *BinExpr:
		return lo.binExpr(e)
	case *UnExpr:
		return lo.unExpr(e)
	case *AssignExpr:
		return lo.assignExpr(e)
	case *IncDecExpr:
		return lo.incDecExpr(e)
	case *IndexExpr:
		l, err := lo.lvalue(e)
		if err != nil {
			return Operand{}, err
		}
		return lo.read(l), nil
	case *CallExpr:
		return lo.callExpr(e)
	case *CastExpr:
		v, err := lo.expr(e.X)
		if err != nil {
			return Operand{}, err
		}
		return lo.truncate(v, e.T), nil
	case *CondExpr:
		return lo.condExpr(e)
	}
	return Operand{}, lo.errf("unhandled expression %T", e)
}

func (lo *lowerer) binExpr(e *BinExpr) (Operand, error) {
	switch e.Op {
	case "&&", "||":
		return lo.boolValue(e)
	}
	a, err := lo.expr(e.L)
	if err != nil {
		return Operand{}, err
	}
	b, err := lo.expr(e.R)
	if err != nil {
		return Operand{}, err
	}
	lt, rt := e.L.ExprType(), e.R.ExprType()

	// Pointer arithmetic scales the integer operand by the element size.
	if pt := pointerish(lt); pt != nil && rt.IsScalar() && (e.Op == "+" || e.Op == "-") {
		sb := lo.scale(b, int32(pt.Elem.Size()))
		return lo.binOp(tacBinOp(e.Op, true), a, sb), nil
	}
	if pt := pointerish(rt); pt != nil && lt.IsScalar() && e.Op == "+" {
		sa := lo.scale(a, int32(pt.Elem.Size()))
		return lo.binOp(opAdd, sa, b), nil
	}

	signed := signedOf(lt, rt)
	switch e.Op {
	case "<":
		return lo.binOp(tacBinOp("<", signed), a, b), nil
	case ">":
		return lo.binOp(tacBinOp("<", signed), b, a), nil
	case "<=":
		t := lo.binOp(tacBinOp("<", signed), b, a)
		return lo.binOp(opXor, t, cnst(1)), nil
	case ">=":
		t := lo.binOp(tacBinOp("<", signed), a, b)
		return lo.binOp(opXor, t, cnst(1)), nil
	case "==":
		t := lo.binOp(opXor, a, b)
		return lo.binOp(opLTU, t, cnst(1)), nil
	case "!=":
		t := lo.binOp(opXor, a, b)
		return lo.binOp(opLTU, cnst(0), t), nil
	}
	return lo.binOp(tacBinOp(e.Op, signed), a, b), nil
}

func (lo *lowerer) unExpr(e *UnExpr) (Operand, error) {
	switch e.Op {
	case "-":
		v, err := lo.expr(e.X)
		if err != nil {
			return Operand{}, err
		}
		return lo.binOp(opSub, cnst(0), v), nil
	case "~":
		v, err := lo.expr(e.X)
		if err != nil {
			return Operand{}, err
		}
		return lo.binOp(opXor, v, cnst(-1)), nil
	case "!":
		v, err := lo.expr(e.X)
		if err != nil {
			return Operand{}, err
		}
		return lo.binOp(opLTU, v, cnst(1)), nil
	case "*":
		l, err := lo.lvalue(e)
		if err != nil {
			return Operand{}, err
		}
		return lo.read(l), nil
	case "&":
		return lo.addressOf(e.X)
	}
	return Operand{}, lo.errf("unhandled unary %q", e.Op)
}

func (lo *lowerer) addressOf(e Expr) (Operand, error) {
	switch e := e.(type) {
	case *Ident:
		l := lo.loc(e.Sym)
		addr := lo.f.newTemp()
		switch l.kind {
		case locGlobal:
			lo.f.emit(ins{Kind: iAddrG, Dst: addr, Sym: l.sym})
		case locSlot:
			lo.f.emit(ins{Kind: iAddrL, Dst: addr, Slot: l.slot})
		default:
			return Operand{}, lo.errf("internal: address of temp-resident %q", e.Name)
		}
		return tmp(addr), nil
	case *IndexExpr:
		base, elem, err := lo.baseAddress(e.Arr)
		if err != nil {
			return Operand{}, err
		}
		addr, off, err := lo.indexAddress(base, e.Idx, elem)
		if err != nil {
			return Operand{}, err
		}
		if off != 0 {
			return lo.binOp(opAdd, addr, cnst(off)), nil
		}
		return addr, nil
	case *UnExpr:
		if e.Op == "*" {
			return lo.expr(e.X)
		}
	}
	return Operand{}, lo.errf("cannot take address of expression")
}

func (lo *lowerer) assignExpr(e *AssignExpr) (Operand, error) {
	// Evaluate the right side first (MicroC fixes the C-unspecified order).
	rv, err := lo.expr(e.RV)
	if err != nil {
		return Operand{}, err
	}
	l, err := lo.lvalue(e.LV)
	if err != nil {
		return Operand{}, err
	}
	if e.Op != "=" {
		srcOp := e.Op[:len(e.Op)-1] // "+=" -> "+"
		old := lo.read(l)
		signed := signedOf(e.LV.ExprType(), e.RV.ExprType())
		if pt := pointerish(e.LV.ExprType()); pt != nil && (srcOp == "+" || srcOp == "-") {
			rv = lo.scale(rv, int32(pt.Elem.Size()))
		}
		rv = lo.binOp(tacBinOp(srcOp, signed), old, rv)
	}
	lo.write(l, rv)
	if l.isTemp {
		return tmp(l.loc.temp), nil
	}
	return rv, nil
}

func (lo *lowerer) incDecExpr(e *IncDecExpr) (Operand, error) {
	l, err := lo.lvalue(e.LV)
	if err != nil {
		return Operand{}, err
	}
	step := int32(1)
	if pt := pointerish(e.LV.ExprType()); pt != nil {
		step = int32(pt.Elem.Size())
	}
	op := opAdd
	if e.Op == "--" {
		op = opSub
	}
	old := lo.read(l)
	if e.Post && l.isTemp {
		// The read of a temp-resident variable aliases the variable
		// itself; copy it so the pre-update value survives the write.
		c := lo.f.newTemp()
		lo.f.emit(ins{Kind: iMov, Dst: c, A: old})
		old = tmp(c)
	}
	nw := lo.binOp(op, old, cnst(step))
	lo.write(l, nw)
	if e.Post {
		return old, nil
	}
	if l.isTemp {
		return tmp(l.loc.temp), nil
	}
	return nw, nil
}

func (lo *lowerer) callExpr(e *CallExpr) (Operand, error) {
	callee, ok := lo.u.funcID[e.Name]
	if !ok {
		return Operand{}, fmt.Errorf("mcc: call to undefined function %q", e.Name)
	}
	if len(e.Args) > len(argRegs) {
		return Operand{}, lo.errf("call to %q with %d args", e.Name, len(e.Args))
	}
	// Arguments are evaluated first (nested calls append their own) and
	// then copied into the pool together.
	var args [len(argRegs)]Operand
	for i, a := range e.Args {
		v, err := lo.expr(a)
		if err != nil {
			return Operand{}, err
		}
		args[i] = v
	}
	call := ins{Kind: iCall, Sym: callee, Args: int32(len(lo.f.Args)), NArgs: uint8(len(e.Args))}
	lo.f.Args = append(lo.f.Args, args[:len(e.Args)]...)
	if e.T.Kind != TypeVoid {
		call.HasDst = true
		call.Dst = lo.f.newTemp()
	}
	lo.f.emit(call)
	if call.HasDst {
		return tmp(call.Dst), nil
	}
	return cnst(0), nil
}

func (lo *lowerer) condExpr(e *CondExpr) (Operand, error) {
	r := lo.f.newTemp()
	thenL := lo.f.newLabel()
	elseL := lo.f.newLabel()
	endL := lo.f.newLabel()
	if err := lo.cond(e.Cond, thenL, elseL); err != nil {
		return Operand{}, err
	}
	lo.f.emit(ins{Kind: iLabel, Sym: thenL})
	v, err := lo.expr(e.Then)
	if err != nil {
		return Operand{}, err
	}
	lo.f.emit(ins{Kind: iMov, Dst: r, A: v})
	lo.f.emit(ins{Kind: iBr, Sym: endL})
	lo.f.emit(ins{Kind: iLabel, Sym: elseL})
	v, err = lo.expr(e.Else)
	if err != nil {
		return Operand{}, err
	}
	lo.f.emit(ins{Kind: iMov, Dst: r, A: v})
	lo.f.emit(ins{Kind: iLabel, Sym: endL})
	return tmp(r), nil
}

// boolValue materializes a short-circuit expression as 0/1.
func (lo *lowerer) boolValue(e Expr) (Operand, error) {
	r := lo.f.newTemp()
	tL := lo.f.newLabel()
	fL := lo.f.newLabel()
	endL := lo.f.newLabel()
	if err := lo.cond(e, tL, fL); err != nil {
		return Operand{}, err
	}
	lo.f.emit(ins{Kind: iLabel, Sym: tL})
	lo.f.emit(ins{Kind: iMov, Dst: r, A: cnst(1)})
	lo.f.emit(ins{Kind: iBr, Sym: endL})
	lo.f.emit(ins{Kind: iLabel, Sym: fL})
	lo.f.emit(ins{Kind: iMov, Dst: r, A: cnst(0)})
	lo.f.emit(ins{Kind: iLabel, Sym: endL})
	return tmp(r), nil
}

// cond lowers a boolean expression to branches: control reaches trueL when
// the expression is nonzero, falseL otherwise.
func (lo *lowerer) cond(e Expr, trueL, falseL int32) error {
	switch e := e.(type) {
	case *BinExpr:
		switch e.Op {
		case "&&":
			mid := lo.f.newLabel()
			if err := lo.cond(e.L, mid, falseL); err != nil {
				return err
			}
			lo.f.emit(ins{Kind: iLabel, Sym: mid})
			return lo.cond(e.R, trueL, falseL)
		case "||":
			mid := lo.f.newLabel()
			if err := lo.cond(e.L, trueL, mid); err != nil {
				return err
			}
			lo.f.emit(ins{Kind: iLabel, Sym: mid})
			return lo.cond(e.R, trueL, falseL)
		case "==", "!=", "<", "<=", ">", ">=":
			a, err := lo.expr(e.L)
			if err != nil {
				return err
			}
			b, err := lo.expr(e.R)
			if err != nil {
				return err
			}
			op := tacBinOp(e.Op, signedOf(e.L.ExprType(), e.R.ExprType()))
			lo.f.emit(ins{Kind: iCBr, Op: op, A: a, B: b, Sym: trueL})
			lo.f.emit(ins{Kind: iBr, Sym: falseL})
			return nil
		}
	case *UnExpr:
		if e.Op == "!" {
			return lo.cond(e.X, falseL, trueL)
		}
	case *NumLit:
		if e.Val != 0 {
			lo.f.emit(ins{Kind: iBr, Sym: trueL})
		} else {
			lo.f.emit(ins{Kind: iBr, Sym: falseL})
		}
		return nil
	}
	v, err := lo.expr(e)
	if err != nil {
		return err
	}
	lo.f.emit(ins{Kind: iCBr, Op: opNE, A: v, B: cnst(0), Sym: trueL})
	lo.f.emit(ins{Kind: iBr, Sym: falseL})
	return nil
}
