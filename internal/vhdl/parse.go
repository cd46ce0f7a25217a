package vhdl

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode"
)

// This file is the package's one VHDL reader. It parses the subset Emit
// and EmitTestbench generate — context clauses, one entity with its
// ports, one architecture with enumeration types, signals, labelled
// processes and entity instances — and checks it the way a synthesis
// front end would: every construct is closed by the matching end, every
// identifier used resolves to a port, signal, variable, enumeration
// literal or a function the evaluator implements, enumeration values
// meet only values of their own type, and every case over an
// enumeration names each literal exactly once. The same parse tree is
// what SimulateDesign executes.

// Check parses VHDL text strictly and returns the first error. It is
// this repository's stand-in for feeding the RTL to a synthesis front
// end.
func Check(src string) error {
	_, err := parse(src)
	return err
}

// unit is one parsed design file: an entity and its architecture.
type unit struct {
	entity string
	names  map[string]sym      // ports, signals, types, literals, labels
	enums  map[string][]string // enumeration type -> literals in order
	procs  []*process
	insts  int // entity instances
}

type process struct {
	clock string // the one signal it is sensitive to, "" if none
	vars  []decl
	body  []vstmt
}

type decl struct{ name, typ string }

type symKind uint8

const (
	symIn  symKind = iota + 1 // input port
	symOut                    // output port
	symSignal
	symVariable
	symLiteral // enumeration literal; typ names its type
	symType
	symLabel
)

type sym struct {
	kind symKind
	typ  string
}

// ---------------------------------------------------------------------
// Tokens.

// tokenize splits VHDL text into tokens, folding identifiers to lower
// case and dropping whitespace and comments. lines holds each token's
// source line.
func tokenize(src string) (toks []string, lines []int, err error) {
	line := 1
	emit := func(t string) {
		toks = append(toks, t)
		lines = append(lines, line)
	}
	for i := 0; i < len(src); {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == '-' && i+1 < len(src) && src[i+1] == '-':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case unicode.IsSpace(rune(c)):
			i++
		case isIdentByte(c):
			j := i
			for j < len(src) && (isIdentByte(src[j]) || isDigit(src[j])) {
				j++
			}
			emit(strings.ToLower(src[i:j]))
			i = j
		case isDigit(c):
			// An integer, or a decimal literal such as the 5.00 of
			// "wait for 5.00 ns".
			j := digitsEnd(src, i)
			if j+1 < len(src) && src[j] == '.' && isDigit(src[j+1]) {
				j = digitsEnd(src, j+1)
			}
			emit(src[i:j])
			i = j
		case c == '\'':
			if i+2 >= len(src) || src[i+2] != '\'' {
				return nil, nil, fmt.Errorf("vhdl: line %d: bad character literal", line)
			}
			emit(src[i : i+3])
			i += 3
		case c == '"':
			j := i + 1
			for j < len(src) && src[j] != '"' && src[j] != '\n' {
				j++
			}
			if j == len(src) || src[j] != '"' {
				return nil, nil, fmt.Errorf("vhdl: line %d: unterminated string literal", line)
			}
			emit(src[i : j+1])
			i = j + 1
		default:
			n := 1
			if i+1 < len(src) {
				switch src[i : i+2] {
				case ":=", "<=", ">=", "/=", "=>":
					n = 2
				}
			}
			emit(src[i : i+n])
			i += n
		}
	}
	return toks, lines, nil
}

func isIdentByte(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func digitsEnd(s string, i int) int {
	for i < len(s) && isDigit(s[i]) {
		i++
	}
	return i
}

func isIdent(s string) bool { return s != "" && isIdentByte(s[0]) }

// ---------------------------------------------------------------------
// Parser.

type parser struct {
	toks   []string
	lines  []int
	pos    int
	u      *unit
	locals map[string]sym // the current process's variables
	proc   *process
}

// parseError carries a syntax or resolution error out of the recursive
// descent; parse turns it back into an error.
type parseError struct{ error }

func parse(src string) (u *unit, err error) {
	toks, lines, err := tokenize(src)
	if err != nil {
		return nil, err
	}
	if len(toks) == 0 {
		return nil, errors.New("vhdl: empty source")
	}
	p := &parser{toks: toks, lines: lines, u: &unit{names: map[string]sym{}, enums: map[string][]string{}}}
	defer func() {
		if e := recover(); e != nil {
			pe, ok := e.(parseError)
			if !ok {
				panic(e)
			}
			u, err = nil, pe.error
		}
	}()
	p.context()
	p.entity()
	p.architecture()
	if t := p.peek(); t == "end" {
		p.fail("'end' with no open construct")
	} else if t != "" {
		p.fail("unexpected %q after the architecture", t)
	}
	return p.u, nil
}

func (p *parser) fail(format string, args ...any) {
	line := p.lines[min(p.pos, len(p.lines)-1)]
	panic(parseError{fmt.Errorf("vhdl: line %d: %s", line, fmt.Sprintf(format, args...))})
}

func (p *parser) peek() string {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return ""
}

func (p *parser) next() string {
	t := p.peek()
	p.pos++
	return t
}

func (p *parser) accept(t string) bool {
	if p.peek() != t {
		return false
	}
	p.pos++
	return true
}

// expect consumes the tokens ts in order.
func (p *parser) expect(ts ...string) {
	for _, t := range ts {
		if !p.accept(t) {
			p.fail("expected %q, found %s", t, p.found())
		}
	}
}

func (p *parser) found() string {
	if p.peek() == "" {
		return "end of file"
	}
	return strconv.Quote(p.peek())
}

func (p *parser) ident() string {
	if !isIdent(p.peek()) {
		p.fail("expected an identifier, found %s", p.found())
	}
	return p.next()
}

// declare adds a name to scope, which must not declare it already.
func (p *parser) declare(scope map[string]sym, name string, s sym) {
	if _, dup := scope[name]; dup {
		p.fail("%q declared twice", name)
	}
	scope[name] = s
}

// lookup resolves a name against the current process's variables, then
// the unit's declarations.
func (p *parser) lookup(name string) sym {
	if s, ok := p.locals[name]; ok {
		return s
	}
	if s, ok := p.u.names[name]; ok {
		return s
	}
	p.fail("identifier %q used but never declared", name)
	return sym{}
}

// readable resolves a name whose value an expression reads.
func (p *parser) readable(name string) sym {
	switch s := p.lookup(name); s.kind {
	case symIn, symSignal, symVariable, symLiteral:
		return s
	case symOut:
		p.fail("output port %q is read", name)
	}
	p.fail("%q is not a value", name)
	return sym{}
}

// end reads the "end if;", "end case;", "end process L;" or "end N;"
// that closes the construct kw named name.
func (p *parser) end(kw, name string) {
	if !p.accept("end") {
		p.fail("expected \"end\" closing %s, found %s", kw, p.found())
	}
	if kw == "if" || kw == "case" || kw == "process" {
		if t := p.next(); t != kw {
			p.fail("'end %s' closes open %s", t, kw)
		}
	}
	if name != "" {
		if t := p.next(); t != name {
			p.fail("'end %s' closes %s %q", t, kw, name)
		}
	}
	p.expect(";")
}

// ---------------------------------------------------------------------
// Design units.

// context reads "library ieee;" and the use clauses after it. The
// reader knows ieee's std_logic_1164 and numeric_std only.
func (p *parser) context() {
	lib := false
	for {
		switch {
		case p.accept("library"):
			p.expect("ieee", ";")
			lib = true
		case p.accept("use"):
			if !lib {
				p.fail("use clause before \"library ieee;\"")
			}
			p.expect("ieee", ".")
			if pkg := p.ident(); pkg != "std_logic_1164" && pkg != "numeric_std" {
				p.fail("unknown package ieee.%s", pkg)
			}
			p.expect(".", "all", ";")
		default:
			return
		}
	}
}

// entity reads "entity N is [port (...);] end N;".
func (p *parser) entity() {
	p.expect("entity")
	p.u.entity = p.ident()
	p.expect("is")
	if p.accept("port") {
		p.expect("(")
		for {
			name := p.ident()
			p.expect(":")
			kind := symIn
			if !p.accept("in") {
				p.expect("out")
				kind = symOut
			}
			p.declare(p.u.names, name, sym{kind, p.subtype()})
			if !p.accept(";") {
				break
			}
		}
		p.expect(")", ";")
	}
	p.end("entity", p.u.entity)
}

// architecture reads the architecture of the entity: its type and signal
// declarations, then processes and entity instances.
func (p *parser) architecture() {
	p.expect("architecture")
	arch := p.ident()
	p.expect("of")
	if of := p.ident(); of != p.u.entity {
		p.fail("architecture of %q but entity is %q", of, p.u.entity)
	}
	p.expect("is")
	for {
		switch {
		case p.accept("type"):
			p.enumType()
		case p.accept("signal"):
			p.object(p.u.names, symSignal)
		default:
			p.expect("begin")
			for p.peek() != "end" {
				p.concurrent()
			}
			p.end("architecture", arch)
			return
		}
	}
}

// enumType reads "N is (a, b, ...);" after "type".
func (p *parser) enumType() {
	name := p.ident()
	p.declare(p.u.names, name, sym{kind: symType})
	p.expect("is", "(")
	var lits []string
	for {
		l := p.ident()
		p.declare(p.u.names, l, sym{symLiteral, name})
		lits = append(lits, l)
		if !p.accept(",") {
			break
		}
	}
	p.expect(")", ";")
	p.u.enums[name] = lits
}

// object reads "name : subtype;" after "signal" or "variable" and
// declares the name in scope.
func (p *parser) object(scope map[string]sym, kind symKind) decl {
	d := decl{name: p.ident()}
	p.expect(":")
	d.typ = p.subtype()
	p.expect(";")
	p.declare(scope, d.name, sym{kind, d.typ})
	return d
}

// subtype reads a type mark, constrained "(hi downto lo)" when it names an
// array type.
func (p *parser) subtype() string {
	t := p.ident()
	if p.u.enums[t] != nil {
		return t
	}
	switch f := predefined[t]; {
	case f.array:
		p.expect("(")
		p.bounds()
	case !f.scalar:
		p.fail("type %q used but never declared", t)
	}
	return t
}

// bounds reads "hi downto lo)" after the opening parenthesis.
func (p *parser) bounds() (hi, lo int) {
	hi, errHi := strconv.Atoi(p.next())
	p.expect("downto")
	lo, errLo := strconv.Atoi(p.next())
	if errHi != nil || errLo != nil || lo > hi {
		p.fail("bad range in (hi downto lo)")
	}
	p.expect(")")
	return hi, lo
}

// concurrent reads one labelled architecture statement: "L : process
// ..." or "L : entity work.N port map (...);".
func (p *parser) concurrent() {
	label := p.ident()
	p.declare(p.u.names, label, sym{kind: symLabel})
	p.expect(":")
	switch p.peek() {
	case "process":
		p.process(label)
	case "entity":
		p.instance()
	default:
		p.fail("expected a process or an entity instance, found %s", p.found())
	}
}

func (p *parser) process(label string) {
	p.expect("process")
	pr := &process{}
	p.proc, p.locals = pr, map[string]sym{}
	if p.accept("(") {
		pr.clock = p.ident()
		p.readable(pr.clock)
		p.expect(")")
	}
	for p.accept("variable") {
		pr.vars = append(pr.vars, p.object(p.locals, symVariable))
	}
	p.expect("begin")
	pr.body = p.stmts()
	p.end("process", label)
	p.proc, p.locals = nil, nil
	p.u.procs = append(p.u.procs, pr)
}

// instance reads "entity work.N port map (formal => actual, ...);". The
// formals are the instantiated entity's ports, declared in another file;
// each actual must be a local signal or port.
func (p *parser) instance() {
	p.expect("entity", "work", ".")
	p.ident()
	p.expect("port", "map", "(")
	formals := map[string]bool{}
	for {
		f := p.ident()
		if formals[f] {
			p.fail("port %q associated twice", f)
		}
		formals[f] = true
		p.expect("=>")
		if s := p.lookup(p.ident()); s.kind != symSignal && s.kind != symIn && s.kind != symOut {
			p.fail("port map actual for %q is not a signal", f)
		}
		if !p.accept(",") {
			break
		}
	}
	p.expect(")", ";")
	p.u.insts++
}

// ---------------------------------------------------------------------
// Statements.

type vstmt interface{}

type (
	vAssign struct {
		dst    string
		signal bool // "<=" vs ":="
		rhs    vexpr
	}
	vIf struct {
		conds []vexpr   // if + elsif conditions
		arms  [][]vstmt // matching bodies
		els   []vstmt
	}
	vCase struct {
		sel  vexpr
		arms map[string][]vstmt
	}
)

// stmts reads sequential statements up to the end, elsif, else or when
// that closes them; the caller checks which one it expects. wait and
// report are checked but not kept: SimulateDesign runs only a clocked
// process, which may not wait.
func (p *parser) stmts() []vstmt {
	var out []vstmt
	for {
		switch p.peek() {
		case "end", "elsif", "else", "when", "":
			return out
		case "if":
			out = append(out, p.ifStmt())
		case "case":
			out = append(out, p.caseStmt())
		case "wait":
			p.waitStmt()
		case "report":
			p.next()
			if !strings.HasPrefix(p.peek(), `"`) {
				p.fail("expected a string after report, found %s", p.found())
			}
			p.next()
			p.expect(";")
		default:
			out = append(out, p.assign())
		}
	}
}

// assign reads "signal <= expr;" or "variable := expr;". The value must
// be of the target's enumeration type, or a number or bit for any other
// target.
func (p *parser) assign() vstmt {
	dst := p.ident()
	s := p.lookup(dst)
	op := p.peek()
	if !(op == "<=" && (s.kind == symSignal || s.kind == symOut) || op == ":=" && s.kind == symVariable) {
		p.fail("%q cannot be assigned with %s", dst, p.found())
	}
	p.next()
	rhs := p.expr()
	want := s.typ
	if p.u.enums[want] == nil {
		want = ""
	}
	if p.enumOf(rhs) != want {
		p.fail("value of the wrong type assigned to %q", dst)
	}
	p.expect(";")
	return &vAssign{dst: dst, signal: op == "<=", rhs: rhs}
}

// waitStmt reads "wait for T ns;", "wait until cond;" or "wait;".
func (p *parser) waitStmt() {
	if p.proc.clock != "" {
		p.fail("wait in a process with a sensitivity list")
	}
	p.expect("wait")
	switch {
	case p.accept("for"):
		if t := p.peek(); t == "" || !isDigit(t[0]) {
			p.fail("expected a time, found %s", p.found())
		}
		p.next()
		p.expect("ns")
	case p.accept("until"):
		p.scalar(p.expr())
	}
	p.expect(";")
}

func (p *parser) ifStmt() vstmt {
	s := &vIf{}
	p.expect("if")
	for {
		s.conds = append(s.conds, p.scalar(p.expr()))
		p.expect("then")
		s.arms = append(s.arms, p.stmts())
		if !p.accept("elsif") {
			break
		}
	}
	if p.accept("else") {
		s.els = p.stmts()
	}
	p.end("if", "")
	return s
}

// caseStmt reads a case over an enumeration value. Every literal of the
// type must be a choice exactly once.
func (p *parser) caseStmt() vstmt {
	p.expect("case")
	s := &vCase{sel: p.name(p.ident()), arms: map[string][]vstmt{}}
	typ := p.enumOf(s.sel)
	if typ == "" {
		p.fail("case over a value not of an enumeration type")
	}
	p.expect("is")
	for p.accept("when") {
		c := p.ident()
		if l := p.lookup(c); l.kind != symLiteral || l.typ != typ {
			p.fail("case choice %q is not a literal of %s", c, typ)
		}
		if _, dup := s.arms[c]; dup {
			p.fail("case choice %q appears twice", c)
		}
		p.expect("=>")
		s.arms[c] = p.stmts()
	}
	for _, l := range p.u.enums[typ] {
		if _, ok := s.arms[l]; !ok {
			p.fail("case over %s has no choice %q", typ, l)
		}
	}
	p.end("case", "")
	return s
}

// ---------------------------------------------------------------------
// Expressions.

type vexpr interface{}

type (
	vIdent struct{ name string } // a port, signal or variable
	vLit   struct{ v vval }
	vCall  struct {
		f    predef
		args []vexpr
	}
	vSlice struct {
		x      vexpr
		hi, lo int
	}
	vNeg struct{ x vexpr }
	vBin struct {
		op   string
		l, r vexpr
	}
)

// enumOf returns the enumeration type of an expression, "" for a number
// or bit.
func (p *parser) enumOf(e vexpr) string {
	switch e := e.(type) {
	case *vIdent:
		if t := p.lookup(e.name).typ; p.u.enums[t] != nil {
			return t
		}
	case *vLit:
		if e.v.kind == vEnum {
			return p.u.names[e.v.s].typ
		}
	}
	return ""
}

// scalar returns e, which must be a number or bit.
func (p *parser) scalar(e vexpr) vexpr {
	if t := p.enumOf(e); t != "" {
		p.fail("%s value where a number or bit is required", t)
	}
	return e
}

// binaryOps lists the binary operators by rising precedence.
var binaryOps = [][]string{
	{"=", "/=", "<", "<=", ">", ">="},
	{"+", "-", "and", "or", "xor"},
	{"*", "/", "rem"},
}

func (p *parser) expr() vexpr { return p.binary(0) }

// binary reads operands joined by the operators of binaryOps[level] or
// tighter. Relations do not chain, and only = and /= take enumeration
// values, both of one type.
func (p *parser) binary(level int) vexpr {
	if level == len(binaryOps) {
		return p.unary()
	}
	l := p.binary(level + 1)
	for slices.Contains(binaryOps[level], p.peek()) {
		op := p.next()
		r := p.binary(level + 1)
		if op != "=" && op != "/=" {
			p.scalar(l)
			p.scalar(r)
		} else if p.enumOf(l) != p.enumOf(r) {
			p.fail("%q between values of different types", op)
		}
		l = &vBin{op: op, l: l, r: r}
		if level == 0 {
			break
		}
	}
	return l
}

func (p *parser) unary() vexpr {
	if p.accept("-") {
		return &vNeg{x: p.scalar(p.unary())}
	}
	x := p.primary()
	for p.accept("(") { // a slice: x(hi downto lo)
		hi, lo := p.bounds()
		x = &vSlice{x: p.scalar(x), hi: hi, lo: lo}
	}
	return x
}

func (p *parser) primary() vexpr {
	t := p.next()
	switch {
	case t == "(":
		x := p.expr()
		p.expect(")")
		return x
	case len(t) == 3 && t[0] == '\'' && (t[1] == '0' || t[1] == '1'):
		return &vLit{vval{kind: vBit, n: int64(t[1] - '0')}}
	case t != "" && t[0] == '"':
		bits := t[1 : len(t)-1]
		if n, err := strconv.ParseInt(bits, 2, 64); err == nil && strings.Trim(bits, "01") == "" {
			return &vLit{vval{kind: vNum, n: n, uns: true}}
		}
	case t != "" && isDigit(t[0]):
		if n, err := strconv.ParseInt(t, 10, 64); err == nil {
			return &vLit{vval{kind: vNum, n: n}}
		}
	case isIdent(t):
		return p.name(t)
	}
	p.pos--
	p.fail("unexpected %s in expression", p.found())
	return nil
}

// name resolves an identifier read by an expression: a port, signal,
// variable or enumeration literal, or a call of a predefined function.
func (p *parser) name(t string) vexpr {
	if _, local := p.locals[t]; !local && p.u.names[t].kind == 0 && p.peek() == "(" {
		f := predefined[t]
		if f.call == nil {
			p.fail("identifier %q used but never declared", t)
		}
		p.next()
		call := &vCall{f: f}
		for i := 0; i < f.arity; i++ {
			if i > 0 {
				p.expect(",")
			}
			call.args = append(call.args, p.scalar(p.expr()))
		}
		p.expect(")")
		return call
	}
	if p.readable(t).kind == symLiteral {
		return &vLit{vval{kind: vEnum, s: t}}
	}
	return &vIdent{name: t}
}
