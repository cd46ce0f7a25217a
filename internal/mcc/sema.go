package mcc

import "fmt"

// sema performs name resolution and type checking, annotating the AST in
// place: every Expr receives a type, every Ident a symbol, every CallExpr
// its callee. It also marks locals whose address is taken (they need stack
// slots even at -O1 and above).
type sema struct {
	prog   *Program
	funcs  map[string]*FuncDecl
	scopes []map[string]*symbol
	spare  []map[string]*symbol // emptied scopes for push to reuse
	syms   *slab[symbol]
	lits   *slab[NumLit]
	fn     *FuncDecl
	loops  int // nesting depth of breakable/continuable constructs
	sw     int // nesting depth of switches (break only)
}

// analyze type-checks the program; it must run before lowering. It
// carves symbols and folded literals from ast and reuses the emptied
// scope maps in *spare, which it updates when spare is not nil.
func analyze(prog *Program, ast *astSlabs, spare *[]map[string]*symbol) error {
	s := &sema{prog: prog, funcs: make(map[string]*FuncDecl, len(prog.Funcs)), syms: &ast.syms, lits: &ast.numLits}
	if spare != nil {
		s.spare = *spare
		defer func() { *spare = s.spare }()
	}
	for _, fn := range prog.Funcs {
		if _, dup := s.funcs[fn.Name]; dup {
			return fmt.Errorf("mcc: function %q redefined", fn.Name)
		}
		if len(fn.Params) > 4 {
			return fmt.Errorf("mcc: function %q has %d parameters; MicroC supports at most 4 (register-passed)", fn.Name, len(fn.Params))
		}
		s.funcs[fn.Name] = fn
	}
	if _, ok := s.funcs["main"]; !ok {
		return fmt.Errorf("mcc: no main function")
	}

	s.push()
	for _, g := range prog.Globals {
		if g.Type.Kind == TypeVoid {
			return fmt.Errorf("mcc: global %q has void type", g.Name)
		}
		if err := s.declare(g, true); err != nil {
			return err
		}
		var err error
		if g.Init != nil {
			g.Init, err = s.fold(g.Init)
		}
		for i := 0; i < len(g.Vals) && err == nil; i++ {
			g.Vals[i], err = s.fold(g.Vals[i])
		}
		if err != nil {
			return fmt.Errorf("mcc: global %q: initializer must be constant: %w", g.Name, err)
		}
		if err := initError(g); err != nil {
			return err
		}
	}
	for _, fn := range prog.Funcs {
		if err := s.checkFunc(fn); err != nil {
			return err
		}
	}
	s.pop()
	return nil
}

func (s *sema) push() {
	var m map[string]*symbol
	if n := len(s.spare); n > 0 {
		m, s.spare = s.spare[n-1], s.spare[:n-1]
	} else {
		m = make(map[string]*symbol)
	}
	s.scopes = append(s.scopes, m)
}

func (s *sema) pop() {
	m := s.scopes[len(s.scopes)-1]
	clear(m)
	s.spare = append(s.spare, m)
	s.scopes = s.scopes[:len(s.scopes)-1]
}

func (s *sema) declare(d *VarDecl, global bool) error {
	top := s.scopes[len(s.scopes)-1]
	if _, dup := top[d.Name]; dup {
		return fmt.Errorf("mcc: line %d: %q redeclared", d.Line, d.Name)
	}
	sym := s.syms.new()
	*sym = symbol{name: d.Name, typ: d.Type, global: global, decl: d, paramIx: -1}
	top[d.Name] = sym
	d.sym = sym
	return nil
}

func (s *sema) resolve(name string) *symbol {
	for i := len(s.scopes) - 1; i >= 0; i-- {
		if sym, ok := s.scopes[i][name]; ok {
			return sym
		}
	}
	return nil
}

func (s *sema) checkFunc(fn *FuncDecl) error {
	s.fn = fn
	s.push()
	defer s.pop()
	for i, pd := range fn.Params {
		if pd.Type.Kind == TypeVoid || pd.Type.Kind == TypeArray {
			return fmt.Errorf("mcc: %q: bad parameter type %s", fn.Name, pd.Type)
		}
		if err := s.declare(pd, false); err != nil {
			return err
		}
		s.scopes[len(s.scopes)-1][pd.Name].paramIx = i
	}
	return s.checkStmt(fn.Body)
}

func (s *sema) checkStmt(st Stmt) error {
	switch st := st.(type) {
	case *BlockStmt:
		s.push()
		defer s.pop()
		for _, inner := range st.Stmts {
			if err := s.checkStmt(inner); err != nil {
				return err
			}
		}
	case *DeclStmt:
		for _, d := range st.Decls {
			if d.Type.Kind == TypeVoid {
				return fmt.Errorf("mcc: line %d: local %q has void type", d.Line, d.Name)
			}
			if d.Init != nil {
				if err := s.checkExpr(d.Init); err != nil {
					return err
				}
				if err := initError(d); err != nil {
					return err
				}
			}
			for _, v := range d.Vals {
				if _, err := s.constEval(v); err != nil {
					return fmt.Errorf("mcc: line %d: local array initializer must be constant: %w", d.Line, err)
				}
			}
			if err := s.declare(d, false); err != nil {
				return err
			}
		}
		return nil
	case *ExprStmt:
		return s.checkExpr(st.X)
	case *IfStmt:
		if err := s.checkExpr(st.Cond); err != nil {
			return err
		}
		if err := s.checkStmt(st.Then); err != nil {
			return err
		}
		if st.Else != nil {
			return s.checkStmt(st.Else)
		}
	case *WhileStmt:
		if err := s.checkExpr(st.Cond); err != nil {
			return err
		}
		s.loops++
		defer func() { s.loops-- }()
		return s.checkStmt(st.Body)
	case *DoWhileStmt:
		s.loops++
		err := s.checkStmt(st.Body)
		s.loops--
		if err != nil {
			return err
		}
		return s.checkExpr(st.Cond)
	case *ForStmt:
		s.push()
		defer s.pop()
		if st.Init != nil {
			if err := s.checkStmt(st.Init); err != nil {
				return err
			}
		}
		if st.Cond != nil {
			if err := s.checkExpr(st.Cond); err != nil {
				return err
			}
		}
		if st.Post != nil {
			if err := s.checkExpr(st.Post); err != nil {
				return err
			}
		}
		s.loops++
		defer func() { s.loops-- }()
		return s.checkStmt(st.Body)
	case *SwitchStmt:
		if err := s.checkExpr(st.Tag); err != nil {
			return err
		}
		seen := make(map[int32]bool)
		s.sw++
		defer func() { s.sw-- }()
		for _, c := range st.Cases {
			if seen[c.Val] {
				return fmt.Errorf("mcc: duplicate case %d", c.Val)
			}
			seen[c.Val] = true
			for _, inner := range c.Body {
				if err := s.checkStmt(inner); err != nil {
					return err
				}
			}
		}
		for _, inner := range st.Default {
			if err := s.checkStmt(inner); err != nil {
				return err
			}
		}
	case *BreakStmt:
		if s.loops == 0 && s.sw == 0 {
			return fmt.Errorf("mcc: break outside loop or switch")
		}
	case *ContinueStmt:
		if s.loops == 0 {
			return fmt.Errorf("mcc: continue outside loop")
		}
	case *ReturnStmt:
		if st.X == nil {
			if s.fn.Ret.Kind != TypeVoid {
				return fmt.Errorf("mcc: %q: return without value in non-void function", s.fn.Name)
			}
			return nil
		}
		if s.fn.Ret.Kind == TypeVoid {
			return fmt.Errorf("mcc: %q: return with value in void function", s.fn.Name)
		}
		if err := s.checkExpr(st.X); err != nil {
			return err
		}
		if !assignable(s.fn.Ret, st.X.ExprType()) {
			return fmt.Errorf("mcc: %q: cannot return %s as %s", s.fn.Name, st.X.ExprType(), s.fn.Ret)
		}
	}
	return nil
}

// initError reports a scalar initializer of d whose type d cannot hold.
// The initializer must have been checked.
func initError(d *VarDecl) error {
	if d.Init == nil || assignable(d.Type, d.Init.ExprType()) {
		return nil
	}
	return fmt.Errorf("mcc: line %d: cannot initialize %s %q from %s", d.Line, d.Type, d.Name, d.Init.ExprType())
}

// assignable reports whether a value of type src may be stored into dst.
// MicroC allows any scalar-to-scalar conversion and same-type pointers;
// arrays decay to pointers to their element type.
func assignable(dst, src *Type) bool {
	if dst.IsScalar() && src.IsScalar() {
		return true
	}
	if dst.Kind == TypePtr {
		if src.Kind == TypePtr && dst.Elem.Kind == src.Elem.Kind {
			return true
		}
		if src.Kind == TypeArray && dst.Elem.Kind == src.Elem.Kind {
			return true
		}
	}
	return false
}

func (s *sema) checkExpr(e Expr) error {
	switch e := e.(type) {
	case *NumLit:
		e.T = tyInt
	case *Ident:
		sym := s.resolve(e.Name)
		if sym == nil {
			return fmt.Errorf("mcc: undefined identifier %q", e.Name)
		}
		e.Sym = sym
		e.T = sym.typ
	case *BinExpr:
		if err := s.checkExpr(e.L); err != nil {
			return err
		}
		if err := s.checkExpr(e.R); err != nil {
			return err
		}
		lt, rt := e.L.ExprType(), e.R.ExprType()
		switch e.Op {
		case "&&", "||", "==", "!=", "<", "<=", ">", ">=":
			e.T = tyInt
		case "+", "-":
			// Pointer arithmetic: ptr ± int and array ± int yield pointer.
			if pt := pointerish(lt); pt != nil && rt.IsScalar() {
				e.T = pt
				return nil
			}
			if pt := pointerish(rt); pt != nil && lt.IsScalar() && e.Op == "+" {
				e.T = pt
				return nil
			}
			if !lt.IsScalar() || !rt.IsScalar() {
				return fmt.Errorf("mcc: invalid operands to %q: %s and %s", e.Op, lt, rt)
			}
			e.T = usualArith(lt, rt)
		default:
			if !lt.IsScalar() || !rt.IsScalar() {
				return fmt.Errorf("mcc: invalid operands to %q: %s and %s", e.Op, lt, rt)
			}
			e.T = usualArith(lt, rt)
		}
	case *UnExpr:
		if err := s.checkExpr(e.X); err != nil {
			return err
		}
		xt := e.X.ExprType()
		switch e.Op {
		case "-", "~":
			if !xt.IsScalar() {
				return fmt.Errorf("mcc: invalid operand to unary %q: %s", e.Op, xt)
			}
			e.T = usualArith(xt, tyInt)
		case "!":
			e.T = tyInt
		case "*":
			pt := pointerish(xt)
			if pt == nil {
				return fmt.Errorf("mcc: cannot dereference %s", xt)
			}
			e.T = pt.Elem
		case "&":
			if !isLValue(e.X) {
				return fmt.Errorf("mcc: cannot take address of non-lvalue")
			}
			markAddrTaken(e.X)
			e.T = &Type{Kind: TypePtr, Elem: xt}
		}
	case *AssignExpr:
		if err := s.checkExpr(e.LV); err != nil {
			return err
		}
		if err := s.checkExpr(e.RV); err != nil {
			return err
		}
		if !isLValue(e.LV) {
			return fmt.Errorf("mcc: assignment target is not an lvalue")
		}
		lt := e.LV.ExprType() // never an array: isLValue rejects those
		if e.Op == "=" {
			if !assignable(lt, e.RV.ExprType()) {
				return fmt.Errorf("mcc: cannot assign %s to %s", e.RV.ExprType(), lt)
			}
		} else if !lt.IsScalar() || !e.RV.ExprType().IsScalar() {
			return fmt.Errorf("mcc: invalid compound assignment on %s", lt)
		}
		e.T = lt
	case *IncDecExpr:
		if err := s.checkExpr(e.LV); err != nil {
			return err
		}
		if !isLValue(e.LV) || !e.LV.ExprType().IsScalar() {
			return fmt.Errorf("mcc: %s requires a scalar lvalue", e.Op)
		}
		e.T = e.LV.ExprType()
	case *IndexExpr:
		if err := s.checkExpr(e.Arr); err != nil {
			return err
		}
		if err := s.checkExpr(e.Idx); err != nil {
			return err
		}
		pt := pointerish(e.Arr.ExprType())
		if pt == nil {
			return fmt.Errorf("mcc: cannot index %s", e.Arr.ExprType())
		}
		if !e.Idx.ExprType().IsScalar() {
			return fmt.Errorf("mcc: array index must be scalar, got %s", e.Idx.ExprType())
		}
		e.T = pt.Elem
	case *CallExpr:
		fn, ok := s.funcs[e.Name]
		if !ok {
			return fmt.Errorf("mcc: call to undefined function %q", e.Name)
		}
		if len(e.Args) != len(fn.Params) {
			return fmt.Errorf("mcc: %q expects %d arguments, got %d", e.Name, len(fn.Params), len(e.Args))
		}
		for i, a := range e.Args {
			if err := s.checkExpr(a); err != nil {
				return err
			}
			if !assignable(fn.Params[i].Type, a.ExprType()) {
				return fmt.Errorf("mcc: %q argument %d: cannot pass %s as %s", e.Name, i+1, a.ExprType(), fn.Params[i].Type)
			}
		}
		e.Fn = fn
		e.T = fn.Ret
	case *CastExpr:
		if err := s.checkExpr(e.X); err != nil {
			return err
		}
		// e.T was set by the parser.
	case *CondExpr:
		if err := s.checkExpr(e.Cond); err != nil {
			return err
		}
		if err := s.checkExpr(e.Then); err != nil {
			return err
		}
		if err := s.checkExpr(e.Else); err != nil {
			return err
		}
		if !e.Then.ExprType().IsScalar() || !e.Else.ExprType().IsScalar() {
			return fmt.Errorf("mcc: ?: arms must be scalar")
		}
		e.T = usualArith(e.Then.ExprType(), e.Else.ExprType())
	default:
		return fmt.Errorf("mcc: unhandled expression %T", e)
	}
	return nil
}

// pointerish returns the pointer type a value of type t behaves as, with
// arrays decaying to element pointers, or nil.
func pointerish(t *Type) *Type {
	switch t.Kind {
	case TypePtr:
		return t
	case TypeArray:
		return &Type{Kind: TypePtr, Elem: t.Elem}
	}
	return nil
}

// usualArith implements MicroC's simplified usual arithmetic conversions:
// everything widens to 32 bits; the result is unsigned if either operand
// is an unsigned type.
func usualArith(a, b *Type) *Type {
	if !a.Signed() || !b.Signed() {
		return tyUInt
	}
	return tyInt
}

func isLValue(e Expr) bool {
	switch e := e.(type) {
	case *Ident:
		return e.Sym != nil && e.Sym.typ.Kind != TypeArray
	case *IndexExpr:
		return true
	case *UnExpr:
		return e.Op == "*"
	}
	return false
}

func markAddrTaken(e Expr) {
	switch e := e.(type) {
	case *Ident:
		if e.Sym != nil {
			e.Sym.addrOf = true
		}
	case *IndexExpr:
		if id, ok := e.Arr.(*Ident); ok && id.Sym != nil {
			// &a[i] does not force a slot for arrays (they always have
			// storage) but mark it anyway for uniformity.
			id.Sym.addrOf = true
		}
	}
}

// fold replaces a global's constant initializer by the literal of its
// value, which is what the data section holds.
func (s *sema) fold(e Expr) (Expr, error) {
	v, err := s.constEval(e)
	if err != nil {
		return nil, err
	}
	if _, ok := e.(*NumLit); !ok {
		lit := s.lits.new()
		lit.Val, lit.T = v, tyInt
		e = lit
	}
	return e, nil
}

// constEval evaluates a constant expression for use in initializers.
func (s *sema) constEval(e Expr) (int32, error) {
	switch e := e.(type) {
	case *NumLit:
		e.T = tyInt
		return e.Val, nil
	case *UnExpr:
		v, err := s.constEval(e.X)
		if err != nil {
			return 0, err
		}
		e.T = tyInt
		switch e.Op {
		case "-":
			return -v, nil
		case "~":
			return ^v, nil
		case "!":
			if v == 0 {
				return 1, nil
			}
			return 0, nil
		}
		return 0, fmt.Errorf("non-constant unary %q", e.Op)
	case *BinExpr:
		l, err := s.constEval(e.L)
		if err != nil {
			return 0, err
		}
		r, err := s.constEval(e.R)
		if err != nil {
			return 0, err
		}
		e.T = tyInt
		v, ok := foldBin(e.Op, l, r, true)
		if !ok {
			return 0, fmt.Errorf("non-constant or invalid operator %q", e.Op)
		}
		return v, nil
	}
	return 0, fmt.Errorf("expression is not constant")
}

// foldBin evaluates a binary operator on 32-bit values. signed selects
// signed semantics for /, %, >>, and ordered comparisons. Division by zero
// returns !ok rather than folding.
func foldBin(op string, l, r int32, signed bool) (int32, bool) {
	b2i := func(b bool) int32 {
		if b {
			return 1
		}
		return 0
	}
	ul, ur := uint32(l), uint32(r)
	switch op {
	case "+":
		return l + r, true
	case "-":
		return l - r, true
	case "*":
		return l * r, true
	case "/":
		if r == 0 {
			return 0, false
		}
		if signed {
			if l == -1<<31 && r == -1 {
				return -1 << 31, true
			}
			return l / r, true
		}
		return int32(ul / ur), true
	case "%":
		if r == 0 {
			return 0, false
		}
		if signed {
			if l == -1<<31 && r == -1 {
				return 0, true
			}
			return l % r, true
		}
		return int32(ul % ur), true
	case "&":
		return l & r, true
	case "|":
		return l | r, true
	case "^":
		return l ^ r, true
	case "<<":
		return l << (ur & 31), true
	case ">>":
		if signed {
			return l >> (ur & 31), true
		}
		return int32(ul >> (ur & 31)), true
	case "==":
		return b2i(l == r), true
	case "!=":
		return b2i(l != r), true
	case "<":
		if signed {
			return b2i(l < r), true
		}
		return b2i(ul < ur), true
	case "<=":
		if signed {
			return b2i(l <= r), true
		}
		return b2i(ul <= ur), true
	case ">":
		if signed {
			return b2i(l > r), true
		}
		return b2i(ul > ur), true
	case ">=":
		if signed {
			return b2i(l >= r), true
		}
		return b2i(ul >= ur), true
	case "&&":
		return b2i(l != 0 && r != 0), true
	case "||":
		return b2i(l != 0 || r != 0), true
	}
	return 0, false
}
