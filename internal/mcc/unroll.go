package mcc

// Loop unrolling (−O3). Runs after semantic analysis, before lowering.
// Counted for-loops with constant bounds are unrolled by factor 4 (or 2)
// when the trip count divides evenly: each copy of the body sees the
// induction variable offset by its copy index, and a single combined
// increment follows the copies. This produces exactly the binary shape —
// repeated isomorphic statement groups with stepped offsets and a scaled
// induction increment — that the decompiler's loop rerolling pass detects
// and reverses.

const (
	maxUnrollBodyStmts = 12
	unrollFactorMax    = 4
)

// unrollProgram unrolls eligible loops in every function, in place.
func unrollProgram(prog *Program) {
	for _, fn := range prog.Funcs {
		unrollInStmt(fn.Body)
	}
}

func unrollInStmt(st Stmt) {
	switch st := st.(type) {
	case *BlockStmt:
		for _, s := range st.Stmts {
			unrollInStmt(s)
		}
	case *IfStmt:
		unrollInStmt(st.Then)
		if st.Else != nil {
			unrollInStmt(st.Else)
		}
	case *WhileStmt:
		unrollInStmt(st.Body)
	case *DoWhileStmt:
		unrollInStmt(st.Body)
	case *ForStmt:
		// Inner loops first: unrolling an outer loop would clone inner
		// loops and double the work.
		unrollInStmt(st.Body)
		tryUnrollFor(st)
	case *SwitchStmt:
		for _, c := range st.Cases {
			for _, s := range c.Body {
				unrollInStmt(s)
			}
		}
		for _, s := range st.Default {
			unrollInStmt(s)
		}
	}
}

// forShape captures an analyzable counted loop: for (i=c0; i<c1; i++).
type forShape struct {
	iv    *symbol
	c0    int32
	c1    int32
	incEq bool // condition is <= rather than <
}

func tryUnrollFor(st *ForStmt) {
	shape, ok := analyzeFor(st)
	if !ok {
		return
	}
	body, ok := st.Body.(*BlockStmt)
	if !ok {
		body = &BlockStmt{Stmts: []Stmt{st.Body}}
	}
	if len(body.Stmts) == 0 || len(body.Stmts) > maxUnrollBodyStmts {
		return
	}
	if !bodyUnrollable(body, shape.iv) {
		return
	}
	limit := int64(shape.c1)
	if shape.incEq {
		limit++
	}
	trip := limit - int64(shape.c0)
	factor := int64(0)
	for f := int64(unrollFactorMax); f >= 2; f-- {
		if trip%f == 0 && trip >= f {
			factor = f
			break
		}
	}
	if factor == 0 {
		return
	}

	var newBody []Stmt
	for m := int64(0); m < factor; m++ {
		for _, s := range body.Stmts {
			newBody = append(newBody, cloneStmtOffset(s, shape.iv, int32(m)))
		}
	}
	st.Body = &BlockStmt{Stmts: newBody}
	// Single combined increment: i += factor.
	ivRef := &Ident{Name: shape.iv.name, Sym: shape.iv}
	ivRef.T = shape.iv.typ
	inc := &AssignExpr{Op: "+=", LV: ivRef, RV: numLit(int32(factor))}
	inc.T = shape.iv.typ
	st.Post = inc
}

func numLit(v int32) *NumLit {
	n := &NumLit{Val: v}
	n.T = tyInt
	return n
}

// analyzeFor recognizes for (i = c0; i < c1; i++) with an int induction
// variable whose address is not taken; the condition may also be <=.
// Those are the only counted loops the suite and the program generator
// write.
func analyzeFor(st *ForStmt) (forShape, bool) {
	var sh forShape
	init, ok := st.Init.(*ExprStmt)
	if !ok {
		return sh, false
	}
	as, ok := init.X.(*AssignExpr)
	if !ok || as.Op != "=" {
		return sh, false
	}
	id, ok := as.LV.(*Ident)
	if !ok || id.Sym == nil {
		return sh, false
	}
	n, ok := as.RV.(*NumLit)
	if !ok {
		return sh, false
	}
	sh.iv, sh.c0 = id.Sym, n.Val
	if sh.iv.typ.Kind != TypeInt && sh.iv.typ.Kind != TypeUInt {
		return sh, false
	}
	if sh.iv.addrOf {
		return sh, false
	}

	// Cond: i < c1 or i <= c1.
	cmp, ok := st.Cond.(*BinExpr)
	if !ok || (cmp.Op != "<" && cmp.Op != "<=") {
		return sh, false
	}
	id, ok = cmp.L.(*Ident)
	if !ok || id.Sym != sh.iv {
		return sh, false
	}
	n, ok = cmp.R.(*NumLit)
	if !ok {
		return sh, false
	}
	sh.c1, sh.incEq = n.Val, cmp.Op == "<="

	post, ok := st.Post.(*IncDecExpr)
	if !ok || post.Op != "++" {
		return sh, false
	}
	id, ok = post.LV.(*Ident)
	return sh, ok && id.Sym == sh.iv
}

// bodyUnrollable rejects bodies with control transfers out of the loop or
// writes to the induction variable.
func bodyUnrollable(body *BlockStmt, iv *symbol) bool {
	ok := true
	var walkStmt func(Stmt)
	var walkExpr func(Expr)
	walkStmt = func(st Stmt) {
		switch st := st.(type) {
		case *BlockStmt:
			for _, s := range st.Stmts {
				walkStmt(s)
			}
		case *DeclStmt:
			for _, d := range st.Decls {
				if d.Init != nil {
					walkExpr(d.Init)
				}
			}
		case *ExprStmt:
			walkExpr(st.X)
		case *IfStmt:
			walkExpr(st.Cond)
			walkStmt(st.Then)
			if st.Else != nil {
				walkStmt(st.Else)
			}
		case *BreakStmt, *ContinueStmt, *ReturnStmt:
			ok = false
		case *WhileStmt, *DoWhileStmt, *ForStmt, *SwitchStmt:
			// Nested loops/switches are legal to clone but blow up size;
			// be conservative.
			ok = false
		}
	}
	walkExpr = func(e Expr) {
		switch e := e.(type) {
		case *BinExpr:
			walkExpr(e.L)
			walkExpr(e.R)
		case *UnExpr:
			walkExpr(e.X)
		case *AssignExpr:
			if id, isID := e.LV.(*Ident); isID && id.Sym == iv {
				ok = false
			}
			walkExpr(e.LV)
			walkExpr(e.RV)
		case *IncDecExpr:
			if id, isID := e.LV.(*Ident); isID && id.Sym == iv {
				ok = false
			}
			walkExpr(e.LV)
		case *IndexExpr:
			walkExpr(e.Arr)
			walkExpr(e.Idx)
		case *CallExpr:
			for _, a := range e.Args {
				walkExpr(a)
			}
		case *CastExpr:
			walkExpr(e.X)
		case *CondExpr:
			walkExpr(e.Cond)
			walkExpr(e.Then)
			walkExpr(e.Else)
		}
	}
	for _, s := range body.Stmts {
		walkStmt(s)
	}
	return ok
}

// cloneStmtOffset deep-copies a statement, replacing reads of iv with
// (iv + off). off = 0 still clones so each copy is a distinct tree.
func cloneStmtOffset(st Stmt, iv *symbol, off int32) Stmt {
	switch st := st.(type) {
	case *BlockStmt:
		out := &BlockStmt{}
		for _, s := range st.Stmts {
			out.Stmts = append(out.Stmts, cloneStmtOffset(s, iv, off))
		}
		return out
	case *DeclStmt:
		out := &DeclStmt{}
		for _, od := range st.Decls {
			d := *od
			if d.Init != nil {
				d.Init = cloneExprOffset(d.Init, iv, off)
			}
			out.Decls = append(out.Decls, &d)
		}
		return out
	case *ExprStmt:
		return &ExprStmt{X: cloneExprOffset(st.X, iv, off)}
	case *IfStmt:
		out := &IfStmt{
			Cond: cloneExprOffset(st.Cond, iv, off),
			Then: cloneStmtOffset(st.Then, iv, off),
		}
		if st.Else != nil {
			out.Else = cloneStmtOffset(st.Else, iv, off)
		}
		return out
	}
	// bodyUnrollable guarantees no other statement kinds appear.
	return st
}

func cloneExprOffset(e Expr, iv *symbol, off int32) Expr {
	switch e := e.(type) {
	case *NumLit:
		out := *e
		return &out
	case *Ident:
		out := *e
		if e.Sym == iv && off != 0 {
			add := &BinExpr{Op: "+", L: &out, R: numLit(off)}
			add.T = e.T
			return add
		}
		return &out
	case *BinExpr:
		out := *e
		out.L = cloneExprOffset(e.L, iv, off)
		out.R = cloneExprOffset(e.R, iv, off)
		return &out
	case *UnExpr:
		out := *e
		out.X = cloneExprOffset(e.X, iv, off)
		return &out
	case *AssignExpr:
		out := *e
		out.LV = cloneExprOffset(e.LV, iv, off)
		out.RV = cloneExprOffset(e.RV, iv, off)
		return &out
	case *IncDecExpr:
		out := *e
		out.LV = cloneExprOffset(e.LV, iv, off)
		return &out
	case *IndexExpr:
		out := *e
		out.Arr = cloneExprOffset(e.Arr, iv, off)
		out.Idx = cloneExprOffset(e.Idx, iv, off)
		return &out
	case *CallExpr:
		out := *e
		out.Args = make([]Expr, len(e.Args))
		for i, a := range e.Args {
			out.Args[i] = cloneExprOffset(a, iv, off)
		}
		return &out
	case *CastExpr:
		out := *e
		out.X = cloneExprOffset(e.X, iv, off)
		return &out
	case *CondExpr:
		out := *e
		out.Cond = cloneExprOffset(e.Cond, iv, off)
		out.Then = cloneExprOffset(e.Then, iv, off)
		out.Else = cloneExprOffset(e.Else, iv, off)
		return &out
	}
	return e
}
