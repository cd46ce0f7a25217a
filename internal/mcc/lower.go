package mcc

import "fmt"

// varLoc says where a variable lives during lowering.
type varLoc struct {
	kind locKind
	temp Temp  // locTemp
	slot int32 // locSlot
	sym  int32 // locGlobal: data symbol id
	typ  *Type
}

type locKind int

const (
	locTemp locKind = iota
	locSlot
	locGlobal
)

// lowerer translates one function's AST to TAC.
type lowerer struct {
	u        *unit
	f        *tacFunc
	vars     map[*symbol]varLoc
	breakLs  []int32
	contLs   []int32
	memLocal bool // O0: every scalar local lives in a stack slot
	rotate   bool // O1+: bottom-test ("rotated") loops
}

// unit is the compile-wide context functions are lowered against: the
// numbering of data symbols (globals, then jump tables) and functions,
// plus the scratch buffers each function borrows in turn.
type unit struct {
	globalID map[string]int32
	funcID   map[string]int32
	nData    int32
	sc       *scratch
}

func newUnit(prog *Program, sc *scratch) *unit {
	u := &unit{
		globalID: make(map[string]int32, len(prog.Globals)),
		funcID:   make(map[string]int32, len(prog.Funcs)),
		sc:       sc,
	}
	for _, g := range prog.Globals {
		u.globalID[g.Name] = u.newData()
	}
	for i, fn := range prog.Funcs {
		u.funcID[fn.Name] = int32(i)
	}
	return u
}

// newData numbers a new data symbol.
func (u *unit) newData() int32 {
	u.nData++
	return u.nData - 1
}

// lowerFunc converts fn to TAC. memLocals selects O0-style slot-allocated
// locals; rotate selects bottom-test loop shape (both match what real
// compilers emit at the corresponding levels). The function takes over
// the unit's instruction and operand buffers until scratch.recycle.
func (u *unit) lowerFunc(fn *FuncDecl, memLocals, rotate bool) (*tacFunc, error) {
	f := &tacFunc{Name: fn.Name, IsVoid: fn.Ret.Kind == TypeVoid, sc: u.sc,
		Ins: u.sc.ins[:0], Args: u.sc.args[:0]}
	u.sc.ins, u.sc.args = nil, nil
	if u.sc.vars == nil {
		u.sc.vars = make(map[*symbol]varLoc)
	}
	clear(u.sc.vars)
	lo := &lowerer{
		u:        u,
		f:        f,
		vars:     u.sc.vars,
		memLocal: memLocals,
		rotate:   rotate,
	}
	// Bind parameters: incoming values land in fresh temps; O0 copies
	// them to slots like a naive compiler would.
	for _, pd := range fn.Params {
		t := lo.f.newTemp()
		lo.f.Params = append(lo.f.Params, t)
		sym := findSym(fn, pd)
		if sym == nil {
			return nil, fmt.Errorf("mcc: internal: unresolved parameter %q", pd.Name)
		}
		if lo.memQualifies(sym) {
			slot := lo.newSlot(4, 4, pd.Name)
			lo.vars[sym] = varLoc{kind: locSlot, slot: slot, typ: pd.Type}
			addr := lo.f.newTemp()
			lo.f.emit(ins{Kind: iAddrL, Dst: addr, Slot: slot})
			lo.f.emit(ins{Kind: iStore, A: tmp(t), B: tmp(addr), Width: 4})
		} else {
			lo.vars[sym] = varLoc{kind: locTemp, temp: t, typ: pd.Type}
		}
	}
	if err := lo.stmt(fn.Body); err != nil {
		return nil, err
	}
	// Implicit return. main falls back to returning 0.
	lo.f.emit(ins{Kind: iRet, HasA: !lo.f.IsVoid, A: cnst(0)})
	return lo.f, nil
}

// findSym digs the sema symbol for a parameter out of the first Ident that
// references it; parameters always have a symbol after Analyze. To avoid a
// traversal we stash symbols on first use, so instead record them eagerly:
// Analyze stores the symbol in the scope only, so we reconstruct it here by
// matching name/type through the body. Rather than traverse, we rely on the
// convention that sema stored paramIx in the scope symbol; the decl pointer
// is the link.
func findSym(fn *FuncDecl, pd *VarDecl) *symbol {
	if pd.sym == nil {
		// The body never referenced the parameter; synthesize a symbol.
		pd.sym = &symbol{name: pd.Name, typ: pd.Type, decl: pd, paramIx: -1}
	}
	return pd.sym
}

func (lo *lowerer) memQualifies(sym *symbol) bool {
	return lo.memLocal || sym.addrOf
}

func (lo *lowerer) newSlot(size, align int, name string) int32 {
	lo.f.Slots = append(lo.f.Slots, slotInfo{Size: size, Align: align, Name: name})
	return int32(len(lo.f.Slots) - 1)
}

func (lo *lowerer) errf(format string, args ...any) error {
	return fmt.Errorf("mcc: %s: %s", lo.f.Name, fmt.Sprintf(format, args...))
}

// loc returns (creating if needed) the storage binding of a symbol.
func (lo *lowerer) loc(sym *symbol) varLoc {
	if sym.global {
		return varLoc{kind: locGlobal, sym: lo.u.globalID[sym.name], typ: sym.typ}
	}
	if l, ok := lo.vars[sym]; ok {
		return l
	}
	var l varLoc
	if sym.typ.Kind == TypeArray {
		l = varLoc{kind: locSlot, slot: lo.newSlot(sym.typ.Size(), 4, sym.name), typ: sym.typ}
	} else if lo.memQualifies(sym) {
		l = varLoc{kind: locSlot, slot: lo.newSlot(4, 4, sym.name), typ: sym.typ}
	} else {
		l = varLoc{kind: locTemp, temp: lo.f.newTemp(), typ: sym.typ}
	}
	lo.vars[sym] = l
	return l
}

func (lo *lowerer) stmt(st Stmt) error {
	switch st := st.(type) {
	case *BlockStmt:
		for _, s := range st.Stmts {
			if err := lo.stmt(s); err != nil {
				return err
			}
		}
	case *DeclStmt:
		return lo.declStmt(st)
	case *ExprStmt:
		_, err := lo.expr(st.X)
		return err
	case *IfStmt:
		return lo.ifStmt(st)
	case *WhileStmt:
		return lo.whileStmt(st)
	case *DoWhileStmt:
		return lo.doWhileStmt(st)
	case *ForStmt:
		return lo.forStmt(st)
	case *SwitchStmt:
		return lo.switchStmt(st)
	case *BreakStmt: // sema rejects a break outside a loop or switch
		lo.f.emit(ins{Kind: iBr, Sym: lo.breakLs[len(lo.breakLs)-1]})
	case *ContinueStmt:
		lo.f.emit(ins{Kind: iBr, Sym: lo.contLs[len(lo.contLs)-1]})
	case *ReturnStmt:
		if st.X == nil {
			lo.f.emit(ins{Kind: iRet})
			return nil
		}
		v, err := lo.expr(st.X)
		if err != nil {
			return err
		}
		lo.f.emit(ins{Kind: iRet, HasA: true, A: v})
	default:
		return lo.errf("unhandled statement %T", st)
	}
	return nil
}

func (lo *lowerer) declStmt(st *DeclStmt) error {
	for _, d := range st.Decls {
		if err := lo.declOne(d); err != nil {
			return err
		}
	}
	return nil
}

func (lo *lowerer) declOne(d *VarDecl) error {
	if d.sym == nil {
		return lo.errf("internal: local %q has no symbol", d.Name)
	}
	l := lo.loc(d.sym)
	if d.Type.Kind == TypeArray {
		// Initialize elements that have initializers; MicroC zero-fills
		// nothing for locals (like C automatic storage, reads of
		// uninitialized elements are garbage).
		for i, v := range d.Vals {
			val, err := lo.expr(v)
			if err != nil {
				return err
			}
			addr := lo.f.newTemp()
			lo.f.emit(ins{Kind: iAddrL, Dst: addr, Slot: l.slot})
			es := d.Type.Elem.Size()
			lo.f.emit(ins{Kind: iStore, A: val, B: tmp(addr), Off: int32(i * es), Width: uint8(es)})
		}
		return nil
	}
	if d.Init == nil {
		return nil
	}
	v, err := lo.expr(d.Init)
	if err != nil {
		return err
	}
	return lo.storeTo(l, v, d.Type)
}

// storeTo writes v into the variable at l, truncating for narrow types.
func (lo *lowerer) storeTo(l varLoc, v Operand, t *Type) error {
	switch l.kind {
	case locTemp:
		v = lo.truncate(v, t)
		lo.f.emit(ins{Kind: iMov, Dst: l.temp, A: v})
	case locSlot:
		addr := lo.f.newTemp()
		lo.f.emit(ins{Kind: iAddrL, Dst: addr, Slot: l.slot})
		lo.f.emit(ins{Kind: iStore, A: v, B: tmp(addr), Width: scalarWidth(t)})
	case locGlobal:
		addr := lo.f.newTemp()
		lo.f.emit(ins{Kind: iAddrG, Dst: addr, Sym: l.sym})
		lo.f.emit(ins{Kind: iStore, A: v, B: tmp(addr), Width: scalarWidth(t)})
	}
	return nil
}

func scalarWidth(t *Type) uint8 {
	if t.Kind == TypePtr {
		return 4
	}
	return uint8(t.Size())
}

// truncate normalizes a value to a narrow type's range, as a real compiler
// must when the value lives in a full-width register.
func (lo *lowerer) truncate(v Operand, t *Type) Operand {
	switch t.Kind {
	case TypeChar:
		return lo.extend(v, 24, true)
	case TypeUChar:
		return lo.binOp(opAnd, v, cnst(0xff))
	case TypeShort:
		return lo.extend(v, 16, true)
	case TypeUShort:
		return lo.binOp(opAnd, v, cnst(0xffff))
	}
	return v
}

func (lo *lowerer) extend(v Operand, sh int32, arith bool) Operand {
	t1 := lo.binOp(opShl, v, cnst(sh))
	op := opShrU
	if arith {
		op = opShrS
	}
	return lo.binOp(op, t1, cnst(sh))
}

func (lo *lowerer) binOp(op tacOp, a, b Operand) Operand {
	d := lo.f.newTemp()
	lo.f.emit(ins{Kind: iBin, Op: op, Dst: d, A: a, B: b})
	return tmp(d)
}

func (lo *lowerer) ifStmt(st *IfStmt) error {
	thenL := lo.f.newLabel()
	endL := lo.f.newLabel()
	elseL := endL
	if st.Else != nil {
		elseL = lo.f.newLabel()
	}
	if err := lo.cond(st.Cond, thenL, elseL); err != nil {
		return err
	}
	lo.f.emit(ins{Kind: iLabel, Sym: thenL})
	if err := lo.stmt(st.Then); err != nil {
		return err
	}
	if st.Else != nil {
		lo.f.emit(ins{Kind: iBr, Sym: endL})
		lo.f.emit(ins{Kind: iLabel, Sym: elseL})
		if err := lo.stmt(st.Else); err != nil {
			return err
		}
	}
	lo.f.emit(ins{Kind: iLabel, Sym: endL})
	return nil
}

func (lo *lowerer) loopBody(body Stmt, breakL, contL int32) error {
	lo.breakLs = append(lo.breakLs, breakL)
	lo.contLs = append(lo.contLs, contL)
	err := lo.stmt(body)
	lo.breakLs = lo.breakLs[:len(lo.breakLs)-1]
	lo.contLs = lo.contLs[:len(lo.contLs)-1]
	return err
}

func (lo *lowerer) whileStmt(st *WhileStmt) error {
	if lo.rotate {
		// goto cond; body: ...; cond: if (c) goto body; end:
		bodyL := lo.f.newLabel()
		condL := lo.f.newLabel()
		endL := lo.f.newLabel()
		lo.f.emit(ins{Kind: iBr, Sym: condL})
		lo.f.emit(ins{Kind: iLabel, Sym: bodyL})
		if err := lo.loopBody(st.Body, endL, condL); err != nil {
			return err
		}
		lo.f.emit(ins{Kind: iLabel, Sym: condL})
		if err := lo.cond(st.Cond, bodyL, endL); err != nil {
			return err
		}
		lo.f.emit(ins{Kind: iLabel, Sym: endL})
		return nil
	}
	// Top-test shape: cond: if (!c) goto end; body; goto cond; end:
	condL := lo.f.newLabel()
	bodyL := lo.f.newLabel()
	endL := lo.f.newLabel()
	lo.f.emit(ins{Kind: iLabel, Sym: condL})
	if err := lo.cond(st.Cond, bodyL, endL); err != nil {
		return err
	}
	lo.f.emit(ins{Kind: iLabel, Sym: bodyL})
	if err := lo.loopBody(st.Body, endL, condL); err != nil {
		return err
	}
	lo.f.emit(ins{Kind: iBr, Sym: condL})
	lo.f.emit(ins{Kind: iLabel, Sym: endL})
	return nil
}

func (lo *lowerer) doWhileStmt(st *DoWhileStmt) error {
	bodyL := lo.f.newLabel()
	condL := lo.f.newLabel()
	endL := lo.f.newLabel()
	lo.f.emit(ins{Kind: iLabel, Sym: bodyL})
	if err := lo.loopBody(st.Body, endL, condL); err != nil {
		return err
	}
	lo.f.emit(ins{Kind: iLabel, Sym: condL})
	if err := lo.cond(st.Cond, bodyL, endL); err != nil {
		return err
	}
	lo.f.emit(ins{Kind: iLabel, Sym: endL})
	return nil
}

func (lo *lowerer) forStmt(st *ForStmt) error {
	if st.Init != nil {
		if err := lo.stmt(st.Init); err != nil {
			return err
		}
	}
	bodyL := lo.f.newLabel()
	condL := lo.f.newLabel()
	contL := lo.f.newLabel()
	endL := lo.f.newLabel()

	if lo.rotate {
		lo.f.emit(ins{Kind: iBr, Sym: condL})
		lo.f.emit(ins{Kind: iLabel, Sym: bodyL})
		if err := lo.loopBody(st.Body, endL, contL); err != nil {
			return err
		}
		lo.f.emit(ins{Kind: iLabel, Sym: contL})
		if st.Post != nil {
			if _, err := lo.expr(st.Post); err != nil {
				return err
			}
		}
		lo.f.emit(ins{Kind: iLabel, Sym: condL})
		if st.Cond == nil {
			lo.f.emit(ins{Kind: iBr, Sym: bodyL})
		} else if err := lo.cond(st.Cond, bodyL, endL); err != nil {
			return err
		}
		lo.f.emit(ins{Kind: iLabel, Sym: endL})
		return nil
	}
	lo.f.emit(ins{Kind: iLabel, Sym: condL})
	if st.Cond != nil {
		if err := lo.cond(st.Cond, bodyL, endL); err != nil {
			return err
		}
	}
	lo.f.emit(ins{Kind: iLabel, Sym: bodyL})
	if err := lo.loopBody(st.Body, endL, contL); err != nil {
		return err
	}
	lo.f.emit(ins{Kind: iLabel, Sym: contL})
	if st.Post != nil {
		if _, err := lo.expr(st.Post); err != nil {
			return err
		}
	}
	lo.f.emit(ins{Kind: iBr, Sym: condL})
	lo.f.emit(ins{Kind: iLabel, Sym: endL})
	return nil
}

func (lo *lowerer) switchStmt(st *SwitchStmt) error {
	tag, err := lo.expr(st.Tag)
	if err != nil {
		return err
	}
	endL := lo.f.newLabel()
	defL := endL
	if st.Default != nil {
		defL = lo.f.newLabel()
	}
	caseLs := make([]int32, len(st.Cases))
	for i := range st.Cases {
		caseLs[i] = lo.f.newLabel()
	}

	if useJumpTable(st) {
		lo.emitJumpTable(st, tag, caseLs, defL)
	} else {
		for i, c := range st.Cases {
			lo.f.emit(ins{Kind: iCBr, Op: opEQ, A: tag, B: cnst(c.Val), Sym: caseLs[i]})
		}
		lo.f.emit(ins{Kind: iBr, Sym: defL})
	}

	// Case bodies with C fallthrough semantics.
	lo.breakLs = append(lo.breakLs, endL)
	for i, c := range st.Cases {
		lo.f.emit(ins{Kind: iLabel, Sym: caseLs[i]})
		for _, s := range c.Body {
			if err := lo.stmt(s); err != nil {
				return err
			}
		}
	}
	if st.Default != nil {
		lo.f.emit(ins{Kind: iLabel, Sym: defL})
		for _, s := range st.Default {
			if err := lo.stmt(s); err != nil {
				return err
			}
		}
	}
	lo.breakLs = lo.breakLs[:len(lo.breakLs)-1]
	lo.f.emit(ins{Kind: iLabel, Sym: endL})
	return nil
}

// useJumpTable decides between a jump table and a compare chain using the
// same density rule real compilers apply: at least 4 cases spanning at most
// 3x their count.
func useJumpTable(st *SwitchStmt) bool {
	if len(st.Cases) < 4 {
		return false
	}
	min, max := st.Cases[0].Val, st.Cases[0].Val
	for _, c := range st.Cases {
		if c.Val < min {
			min = c.Val
		}
		if c.Val > max {
			max = c.Val
		}
	}
	span := int64(max) - int64(min) + 1
	return span <= int64(3*len(st.Cases))
}

func (lo *lowerer) emitJumpTable(st *SwitchStmt, tag Operand, caseLs []int32, defL int32) {
	min, max := st.Cases[0].Val, st.Cases[0].Val
	for _, c := range st.Cases {
		if c.Val < min {
			min = c.Val
		}
		if c.Val > max {
			max = c.Val
		}
	}
	span := max - min + 1
	table := jumpTable{Sym: lo.u.newData(), Labels: make([]int32, span)}
	for i := range table.Labels {
		table.Labels[i] = defL
	}
	for i, c := range st.Cases {
		table.Labels[c.Val-min] = caseLs[i]
	}
	lo.f.Tables = append(lo.f.Tables, table)

	idx := lo.binOp(opSub, tag, cnst(min))
	inRange := lo.binOp(opLTU, idx, cnst(span))
	lo.f.emit(ins{Kind: iCBr, Op: opEQ, A: inRange, B: cnst(0), Sym: defL})
	off := lo.binOp(opShl, idx, cnst(2))
	base := lo.f.newTemp()
	lo.f.emit(ins{Kind: iAddrG, Dst: base, Sym: table.Sym})
	slotAddr := lo.binOp(opAdd, tmp(base), off)
	target := lo.f.newTemp()
	lo.f.emit(ins{Kind: iLoad, Dst: target, A: slotAddr, Width: 4})
	lo.f.emit(ins{Kind: iJT, A: tmp(target)})
}
