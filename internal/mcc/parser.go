package mcc

import "fmt"

// parser is a recursive-descent parser for MicroC.
type parser struct {
	src  string
	toks []token
	pos  int
	ast  *astSlabs
}

// astSlabs holds the highest-volume AST nodes: expression-heavy sources
// create thousands of these tiny nodes, so they are carved out of
// chunked backing arrays instead of allocated one by one.
type astSlabs struct {
	numLits slab[NumLit]
	idents  slab[Ident]
	bins    slab[BinExpr]
	syms    slab[symbol] // sema's symbols
}

// reset zeroes every node handed out, so the slabs can carve them again
// and keep no pointers into the tree they built.
func (a *astSlabs) reset() {
	a.numLits.reset()
	a.idents.reset()
	a.bins.reset()
	a.syms.reset()
}

const slabChunk = 64

// slab hands out zeroed *T values carved from chunked backing arrays.
type slab[T any] struct {
	chunks [][]T
	n      int // values handed out since the last reset
}

func (s *slab[T]) new() *T {
	c := s.n / slabChunk
	if c == len(s.chunks) {
		s.chunks = append(s.chunks, make([]T, slabChunk))
	}
	p := &s.chunks[c][s.n%slabChunk]
	s.n++
	return p
}

func (s *slab[T]) reset() {
	for c := 0; s.n > 0; c++ {
		k := min(s.n, slabChunk)
		clear(s.chunks[c][:k])
		s.n -= k
	}
}

// parse builds the AST for a MicroC translation unit, lexing into *toks'
// array, which it updates, and carving nodes from ast. The AST
// references src, never the tokens.
func parse(src string, toks *[]token, ast *astSlabs) (*Program, error) {
	ts, err := lex(src, *toks)
	if err != nil {
		return nil, err
	}
	*toks = ts
	p := &parser{src: src, toks: ts, ast: ast}
	prog := &Program{}
	for !p.at(tokEOF) {
		if err := p.parseTopLevel(prog); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

func (p *parser) cur() token        { return p.toks[p.pos] }
func (p *parser) at(k tokKind) bool { return p.cur().kind == k }

func (p *parser) text(t token) string { return t.text(p.src) }

func (p *parser) atPunct(s string) bool {
	t := p.cur()
	return t.kind == tokPunct && p.text(t) == s
}

func (p *parser) atKeyword(s string) bool {
	t := p.cur()
	return t.kind == tokKeyword && p.text(t) == s
}

func (p *parser) advance() token {
	t := p.cur()
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	t := p.cur()
	return fmt.Errorf("mcc: %d:%d: %s", t.line, t.col, fmt.Sprintf(format, args...))
}

func (p *parser) expectPunct(s string) error {
	if !p.atPunct(s) {
		return p.errf("expected %q, found %s", s, p.cur().describe(p.src))
	}
	p.advance()
	return nil
}

var typeKeywords = map[string]*Type{
	"void": tyVoid, "char": tyChar, "uchar": tyUChar,
	"short": tyShort, "ushort": tyUShort, "int": tyInt, "uint": tyUInt,
}

func (p *parser) atType() bool {
	t := p.cur()
	if t.kind != tokKeyword {
		return false
	}
	_, ok := typeKeywords[p.text(t)]
	return ok
}

// parseBaseType consumes a type keyword plus any '*' suffixes.
func (p *parser) parseBaseType() (*Type, error) {
	t := p.cur()
	base, ok := typeKeywords[p.text(t)]
	if t.kind != tokKeyword || !ok {
		return nil, p.errf("expected type, found %s", t.describe(p.src))
	}
	p.advance()
	for p.atPunct("*") {
		p.advance()
		base = &Type{Kind: TypePtr, Elem: base}
	}
	return base, nil
}

func (p *parser) parseTopLevel(prog *Program) error {
	line := int(p.cur().line)
	base, err := p.parseBaseType()
	if err != nil {
		return err
	}
	if !p.at(tokIdent) {
		return p.errf("expected identifier, found %s", p.cur().describe(p.src))
	}
	name := p.text(p.advance())

	if p.atPunct("(") {
		fn, err := p.parseFuncRest(base, name, line)
		if err != nil {
			return err
		}
		prog.Funcs = append(prog.Funcs, fn)
		return nil
	}

	// Global variable declaration(s).
	for {
		decl, err := p.parseDeclarator(base, name, line)
		if err != nil {
			return err
		}
		prog.Globals = append(prog.Globals, decl)
		if p.atPunct(",") {
			p.advance()
			if !p.at(tokIdent) {
				return p.errf("expected identifier after ','")
			}
			name = p.text(p.advance())
			line = int(p.cur().line)
			continue
		}
		break
	}
	return p.expectPunct(";")
}

// parseDeclarator handles the part after `type name`: optional [N] and
// optional initializer.
func (p *parser) parseDeclarator(base *Type, name string, line int) (*VarDecl, error) {
	d := &VarDecl{Name: name, Type: base, Line: line}
	if p.atPunct("[") {
		p.advance()
		if !p.at(tokNumber) {
			return nil, p.errf("array length must be a number literal")
		}
		n := int64(p.advance().val)
		if n <= 0 || n > 1<<20 {
			return nil, p.errf("array length %d out of range", n)
		}
		if err := p.expectPunct("]"); err != nil {
			return nil, err
		}
		d.Type = &Type{Kind: TypeArray, Elem: base, Len: int(n)}
	}
	if p.atPunct("=") {
		p.advance()
		if p.atPunct("{") {
			if d.Type.Kind != TypeArray {
				return nil, p.errf("brace initializer on non-array %q", name)
			}
			p.advance()
			for !p.atPunct("}") {
				e, err := p.parseAssign()
				if err != nil {
					return nil, err
				}
				d.Vals = append(d.Vals, e)
				if p.atPunct(",") {
					p.advance()
					continue
				}
				break
			}
			if err := p.expectPunct("}"); err != nil {
				return nil, err
			}
			if len(d.Vals) > d.Type.Len {
				return nil, p.errf("too many initializers for %q (%d > %d)", name, len(d.Vals), d.Type.Len)
			}
		} else {
			e, err := p.parseAssign()
			if err != nil {
				return nil, err
			}
			d.Init = e
		}
	}
	return d, nil
}

func (p *parser) parseFuncRest(ret *Type, name string, line int) (*FuncDecl, error) {
	fn := &FuncDecl{Name: name, Ret: ret, Line: line}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	if p.atKeyword("void") && p.toks[p.pos+1].kind == tokPunct && p.text(p.toks[p.pos+1]) == ")" {
		p.advance()
	}
	for !p.atPunct(")") {
		base, err := p.parseBaseType()
		if err != nil {
			return nil, err
		}
		if !p.at(tokIdent) {
			return nil, p.errf("expected parameter name")
		}
		pname := p.text(p.advance())
		ptype := base
		if p.atPunct("[") {
			// `int a[]` decays to a pointer parameter, as in C.
			p.advance()
			if p.at(tokNumber) {
				p.advance()
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			ptype = &Type{Kind: TypePtr, Elem: base}
		}
		fn.Params = append(fn.Params, &VarDecl{Name: pname, Type: ptype, Line: line})
		if p.atPunct(",") {
			p.advance()
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

func (p *parser) parseBlock() (*BlockStmt, error) {
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	blk := &BlockStmt{}
	for !p.atPunct("}") {
		if p.at(tokEOF) {
			return nil, p.errf("unexpected end of file in block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		blk.Stmts = append(blk.Stmts, s)
	}
	p.advance()
	return blk, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	switch {
	case p.atPunct("{"):
		return p.parseBlock()
	case p.atType():
		return p.parseDeclStmt()
	case p.atKeyword("if"):
		return p.parseIf()
	case p.atKeyword("while"):
		p.advance()
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Cond: cond, Body: body}, nil
	case p.atKeyword("do"):
		p.advance()
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if !p.atKeyword("while") {
			return nil, p.errf("expected 'while' after do body")
		}
		p.advance()
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &DoWhileStmt{Body: body, Cond: cond}, nil
	case p.atKeyword("for"):
		return p.parseFor()
	case p.atKeyword("switch"):
		return p.parseSwitch()
	case p.atKeyword("break"):
		p.advance()
		return &BreakStmt{}, p.expectPunct(";")
	case p.atKeyword("continue"):
		p.advance()
		return &ContinueStmt{}, p.expectPunct(";")
	case p.atKeyword("return"):
		p.advance()
		if p.atPunct(";") {
			p.advance()
			return &ReturnStmt{}, nil
		}
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &ReturnStmt{X: x}, p.expectPunct(";")
	case p.atPunct(";"):
		p.advance()
		return &BlockStmt{}, nil
	}
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &ExprStmt{X: x}, p.expectPunct(";")
}

func (p *parser) parseDeclStmt() (Stmt, error) {
	line := int(p.cur().line)
	base, err := p.parseBaseType()
	if err != nil {
		return nil, err
	}
	if !p.at(tokIdent) {
		return nil, p.errf("expected identifier in declaration")
	}
	name := p.text(p.advance())
	ds := &DeclStmt{}
	for {
		d, err := p.parseDeclarator(base, name, line)
		if err != nil {
			return nil, err
		}
		ds.Decls = append(ds.Decls, d)
		if p.atPunct(",") {
			p.advance()
			if !p.at(tokIdent) {
				return nil, p.errf("expected identifier after ','")
			}
			name = p.text(p.advance())
			continue
		}
		break
	}
	return ds, p.expectPunct(";")
}

func (p *parser) parseIf() (Stmt, error) {
	p.advance()
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	then, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	st := &IfStmt{Cond: cond, Then: then}
	if p.atKeyword("else") {
		p.advance()
		els, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		st.Else = els
	}
	return st, nil
}

func (p *parser) parseFor() (Stmt, error) {
	p.advance()
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	st := &ForStmt{}
	if !p.atPunct(";") {
		if p.atType() {
			s, err := p.parseDeclStmt()
			if err != nil {
				return nil, err
			}
			st.Init = s
		} else {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.Init = &ExprStmt{X: x}
			if err := p.expectPunct(";"); err != nil {
				return nil, err
			}
		}
	} else {
		p.advance()
	}
	if !p.atPunct(";") {
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Cond = x
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	if !p.atPunct(")") {
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Post = x
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	st.Body = body
	return st, nil
}

func (p *parser) parseSwitch() (Stmt, error) {
	p.advance()
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	tag, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	st := &SwitchStmt{Tag: tag}
	for !p.atPunct("}") {
		switch {
		case p.atKeyword("case"):
			p.advance()
			neg := false
			if p.atPunct("-") {
				p.advance()
				neg = true
			}
			if !(p.at(tokNumber) || p.at(tokChar)) {
				return nil, p.errf("case label must be a literal")
			}
			v := int32(p.advance().val)
			if neg {
				v = -v
			}
			if err := p.expectPunct(":"); err != nil {
				return nil, err
			}
			sc := &SwitchCase{Val: v}
			for !p.atKeyword("case") && !p.atKeyword("default") && !p.atPunct("}") {
				s, err := p.parseStmt()
				if err != nil {
					return nil, err
				}
				sc.Body = append(sc.Body, s)
			}
			st.Cases = append(st.Cases, sc)
		case p.atKeyword("default"):
			p.advance()
			if err := p.expectPunct(":"); err != nil {
				return nil, err
			}
			for !p.atKeyword("case") && !p.atKeyword("default") && !p.atPunct("}") {
				s, err := p.parseStmt()
				if err != nil {
					return nil, err
				}
				st.Default = append(st.Default, s)
			}
		default:
			return nil, p.errf("expected 'case' or 'default' in switch, found %s", p.cur().describe(p.src))
		}
	}
	p.advance()
	return st, nil
}

// Expression parsing: precedence climbing.

func (p *parser) parseExpr() (Expr, error) { return p.parseAssign() }

var assignOps = map[string]bool{
	"=": true, "+=": true, "-=": true, "*=": true, "/=": true, "%=": true,
	"&=": true, "|=": true, "^=": true, "<<=": true, ">>=": true,
}

func (p *parser) parseAssign() (Expr, error) {
	lhs, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	if p.cur().kind == tokPunct && assignOps[p.text(p.cur())] {
		op := p.text(p.advance())
		rhs, err := p.parseAssign()
		if err != nil {
			return nil, err
		}
		return &AssignExpr{Op: op, LV: lhs, RV: rhs}, nil
	}
	return lhs, nil
}

func (p *parser) parseTernary() (Expr, error) {
	cond, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	if !p.atPunct("?") {
		return cond, nil
	}
	p.advance()
	then, err := p.parseAssign()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(":"); err != nil {
		return nil, err
	}
	els, err := p.parseTernary()
	if err != nil {
		return nil, err
	}
	return &CondExpr{Cond: cond, Then: then, Else: els}, nil
}

// binLevels lists binary operators from lowest to highest precedence.
var binLevels = [][]string{
	{"||"},
	{"&&"},
	{"|"},
	{"^"},
	{"&"},
	{"==", "!="},
	{"<", "<=", ">", ">="},
	{"<<", ">>"},
	{"+", "-"},
	{"*", "/", "%"},
}

func (p *parser) parseBinary(level int) (Expr, error) {
	if level >= len(binLevels) {
		return p.parseUnary()
	}
	lhs, err := p.parseBinary(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		matched := ""
		if p.cur().kind == tokPunct {
			for _, op := range binLevels[level] {
				if p.text(p.cur()) == op {
					matched = op
					break
				}
			}
		}
		if matched == "" {
			return lhs, nil
		}
		p.advance()
		rhs, err := p.parseBinary(level + 1)
		if err != nil {
			return nil, err
		}
		bin := p.ast.bins.new()
		bin.Op, bin.L, bin.R = matched, lhs, rhs
		lhs = bin
	}
}

func (p *parser) parseUnary() (Expr, error) {
	switch {
	case p.atPunct("-") || p.atPunct("~") || p.atPunct("!") || p.atPunct("*") || p.atPunct("&"):
		op := p.text(p.advance())
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnExpr{Op: op, X: x}, nil
	case p.atPunct("+"):
		p.advance()
		return p.parseUnary()
	case p.atPunct("++") || p.atPunct("--"):
		op := p.text(p.advance())
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &IncDecExpr{Op: op, LV: x}, nil
	case p.atPunct("("):
		// Either a cast or a parenthesized expression.
		if p.toks[p.pos+1].kind == tokKeyword {
			if _, ok := typeKeywords[p.text(p.toks[p.pos+1])]; ok {
				p.advance()
				t, err := p.parseBaseType()
				if err != nil {
					return nil, err
				}
				if err := p.expectPunct(")"); err != nil {
					return nil, err
				}
				x, err := p.parseUnary()
				if err != nil {
					return nil, err
				}
				c := &CastExpr{X: x}
				c.T = t
				return c, nil
			}
		}
	}
	return p.parsePostfix()
}

func (p *parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.atPunct("["):
			p.advance()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			x = &IndexExpr{Arr: x, Idx: idx}
		case p.atPunct("++") || p.atPunct("--"):
			op := p.text(p.advance())
			x = &IncDecExpr{Op: op, Post: true, LV: x}
		default:
			return x, nil
		}
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokNumber || t.kind == tokChar:
		p.advance()
		n := p.ast.numLits.new()
		n.Val = int32(t.val)
		return n, nil
	case t.kind == tokIdent:
		name := p.text(p.advance())
		if p.atPunct("(") {
			p.advance()
			call := &CallExpr{Name: name}
			for !p.atPunct(")") {
				a, err := p.parseAssign()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				if p.atPunct(",") {
					p.advance()
					continue
				}
				break
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return call, nil
		}
		id := p.ast.idents.new()
		id.Name = name
		return id, nil
	case p.atPunct("("):
		p.advance()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return x, p.expectPunct(")")
	}
	return nil, p.errf("expected expression, found %s", t.describe(p.src))
}
