package mcc

import (
	"strings"
	"testing"
	"unsafe"
)

// Front-end unit tests: lexer, parser, and semantic analysis in
// isolation (compile_test.go covers the full pipeline end to end).

// parseSrc parses src into slabs of its own.
func parseSrc(src string) (*Program, error) {
	return parse(src, new([]token), new(astSlabs))
}

func TestLexerTokens(t *testing.T) {
	src := `int x = 0x1f + 'A' - '\n'; // comment
		/* block */ x <<= 2;`
	toks, err := lex(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokKind
	var texts []string
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
		texts = append(texts, tk.text(src))
	}
	// int x = 0x1f + 'A' - '\n' ; x <<= 2 ; EOF
	wantTexts := []string{"int", "x", "=", "0x1f", "+", "'", "-", "'", ";", "x", "<<=", "2", ";", ""}
	if len(texts) != len(wantTexts) {
		t.Fatalf("got %d tokens %v, want %d", len(texts), texts, len(wantTexts))
	}
	for i, w := range wantTexts {
		if texts[i] != w {
			t.Errorf("token %d = %q, want %q", i, texts[i], w)
		}
	}
	if kinds[0] != tokKeyword || kinds[1] != tokIdent || kinds[3] != tokNumber {
		t.Errorf("token kinds wrong: %v", kinds[:4])
	}
	if toks[3].val != 0x1f {
		t.Errorf("hex literal = %d", toks[3].val)
	}
	if toks[5].val != 'A' || toks[7].val != '\n' {
		t.Errorf("char literals = %d, %d", toks[5].val, toks[7].val)
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{
		"int a = 0x; ",
		"int a = 99999999999999999999;",
		"int a = 'ab';",
		"int a = '\\q';",
		"int a = @;",
	} {
		if _, err := lex(src, nil); err == nil {
			t.Errorf("lex(%q) succeeded, want error", src)
		}
	}
}

func TestLexerLineNumbers(t *testing.T) {
	toks, err := lex("int a;\nint b;\nint @", nil)
	if err == nil {
		_ = toks
		t.Fatal("expected error on line 3")
	}
	if !strings.Contains(err.Error(), "3:") {
		t.Errorf("error %q does not name line 3", err)
	}
}

func TestParserPrecedence(t *testing.T) {
	prog, err := parseSrc(`int main() { return 1 + 2 * 3 == 7 && 4 < 5; }`)
	if err != nil {
		t.Fatal(err)
	}
	ret := prog.Funcs[0].Body.Stmts[0].(*ReturnStmt)
	// Top node must be &&.
	and, ok := ret.X.(*BinExpr)
	if !ok || and.Op != "&&" {
		t.Fatalf("top operator = %T %v, want &&", ret.X, ret.X)
	}
	eq, ok := and.L.(*BinExpr)
	if !ok || eq.Op != "==" {
		t.Fatalf("left of && = %v, want ==", and.L)
	}
	add, ok := eq.L.(*BinExpr)
	if !ok || add.Op != "+" {
		t.Fatalf("left of == = %v, want +", eq.L)
	}
	mul, ok := add.R.(*BinExpr)
	if !ok || mul.Op != "*" {
		t.Fatalf("right of + = %v, want *", add.R)
	}
}

func TestParserPointersAndArrays(t *testing.T) {
	prog, err := parseSrc(`
		int buf[4];
		int f(int *p, char c) { return p[0] + (int)c; }
		int main() { return f(buf, 'x'); }
	`)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Globals[0].Type.Kind != TypeArray || prog.Globals[0].Type.Len != 4 {
		t.Errorf("global type = %v", prog.Globals[0].Type)
	}
	f := prog.Funcs[0]
	if f.Params[0].Type.Kind != TypePtr || f.Params[0].Type.Elem.Kind != TypeInt {
		t.Errorf("param type = %v", f.Params[0].Type)
	}
	if err := analyze(prog, new(astSlabs), nil); err != nil {
		t.Fatal(err)
	}
}

func TestParserArrayParamDecays(t *testing.T) {
	prog, err := parseSrc(`int f(int a[], int n) { return a[n]; } int main() { int b[3]; return f(b, 0); }`)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Funcs[0].Params[0].Type.Kind != TypePtr {
		t.Errorf("array parameter did not decay: %v", prog.Funcs[0].Params[0].Type)
	}
	if err := analyze(prog, new(astSlabs), nil); err != nil {
		t.Fatal(err)
	}
}

func TestTypeProperties(t *testing.T) {
	cases := []struct {
		ty     *Type
		size   int
		signed bool
	}{
		{tyChar, 1, true},
		{tyUChar, 1, false},
		{tyShort, 2, true},
		{tyUShort, 2, false},
		{tyInt, 4, true},
		{tyUInt, 4, false},
		{&Type{Kind: TypePtr, Elem: tyChar}, 4, false},
		{&Type{Kind: TypeArray, Elem: tyShort, Len: 10}, 20, false},
	}
	for _, c := range cases {
		if c.ty.Size() != c.size {
			t.Errorf("%v.Size() = %d, want %d", c.ty, c.ty.Size(), c.size)
		}
		if c.ty.Signed() != c.signed {
			t.Errorf("%v.Signed() = %v", c.ty, c.ty.Signed())
		}
	}
	if tyVoid.IsScalar() || !tyUInt.IsScalar() {
		t.Error("IsScalar wrong")
	}
	if s := (&Type{Kind: TypePtr, Elem: tyInt}).String(); s != "int*" {
		t.Errorf("pointer String = %q", s)
	}
	if s := (&Type{Kind: TypeArray, Elem: tyInt, Len: 3}).String(); s != "int[3]" {
		t.Errorf("array String = %q", s)
	}
}

func TestFoldBinProperties(t *testing.T) {
	// Signed/unsigned divisions disagree where they should.
	if v, ok := foldBin("/", -8, 2, true); !ok || v != -4 {
		t.Errorf("signed -8/2 = %d, %v", v, ok)
	}
	if v, ok := foldBin("/", -8, 2, false); !ok || v == -4 {
		t.Errorf("unsigned -8/2 must differ from signed, got %d", v)
	}
	// Division by zero refuses to fold.
	if _, ok := foldBin("/", 1, 0, true); ok {
		t.Error("folded division by zero")
	}
	if _, ok := foldBin("%", 1, 0, false); ok {
		t.Error("folded remainder by zero")
	}
	// INT_MIN edge cases are defined.
	if v, ok := foldBin("/", -1<<31, -1, true); !ok || v != -1<<31 {
		t.Errorf("INT_MIN/-1 = %d, %v", v, ok)
	}
	if v, ok := foldBin("%", -1<<31, -1, true); !ok || v != 0 {
		t.Errorf("INT_MIN%%-1 = %d, %v", v, ok)
	}
	// Shifts mask the count.
	if v, _ := foldBin("<<", 1, 33, true); v != 2 {
		t.Errorf("1<<33 = %d, want 2 (masked)", v)
	}
}

func TestCSDRecoding(t *testing.T) {
	// CSD of every small constant must reconstruct the constant.
	for c := int64(1); c < 4096; c++ {
		terms := csdRecode(nil, c)
		var sum int64
		for _, tm := range terms {
			v := int64(1) << uint(tm.shift)
			if tm.neg {
				sum -= v
			} else {
				sum += v
			}
		}
		if sum != c {
			t.Fatalf("csdRecode(%d) sums to %d (terms %+v)", c, sum, terms)
		}
		// CSD guarantees no two adjacent nonzero digits, so the count is
		// at most ceil(bits/2)+1.
		if len(terms) > 8 {
			t.Fatalf("csdRecode(%d) has %d terms", c, len(terms))
		}
	}
}

func TestUseJumpTableHeuristic(t *testing.T) {
	mk := func(vals ...int32) *SwitchStmt {
		st := &SwitchStmt{}
		for _, v := range vals {
			st.Cases = append(st.Cases, &SwitchCase{Val: v})
		}
		return st
	}
	if useJumpTable(mk(1, 2, 3)) {
		t.Error("3 cases should not use a table")
	}
	if !useJumpTable(mk(0, 1, 2, 3)) {
		t.Error("4 dense cases should use a table")
	}
	if useJumpTable(mk(0, 100, 200, 300)) {
		t.Error("sparse cases should not use a table")
	}
	if !useJumpTable(mk(0, 2, 4, 6, 8, 10)) {
		t.Error("span 11 over 6 cases is dense enough (<= 3x)")
	}
}

func TestSemaErrorsDetailed(t *testing.T) {
	cases := map[string]string{
		"void local":    `int main() { void v; return 0; }`,
		"void param":    `int f(void v) { return 0; } int main() { return f(0); }`,
		"array assign":  `int a[2]; int main() { int *p = a; a = p; return 0; }`,
		"ptr mismatch":  `char c; int main() { int *p = &c; return *p; }`,
		"call arity":    `int f(int a, int b) { return a; } int main() { return f(1); }`,
		"not lvalue ++": `int main() { return (1+2)++; }`,
		"deref scalar":  `int main() { int x = 1; return *x; }`,
		"index int":     `int main() { int x = 1; return x[2]; }`,
	}
	for name, src := range cases {
		prog, err := parseSrc(src)
		if err != nil {
			continue // parse-time rejection also counts
		}
		if err := analyze(prog, new(astSlabs), nil); err == nil {
			t.Errorf("%s: analysis succeeded, want error", name)
		}
	}
}

func TestUnrollEligibility(t *testing.T) {
	compileSize := func(src string, lvl int) int {
		img, err := Compile(src, Options{OptLevel: lvl})
		if err != nil {
			t.Fatal(err)
		}
		return len(img.Text)
	}
	// Divisible trip count: O3 unrolls (bigger text).
	divisible := `
		int a[16];
		int main() {
			int i; int s = 0;
			for (i = 0; i < 16; i++) { s += a[i]; }
			return s;
		}
	`
	if compileSize(divisible, 3) <= compileSize(divisible, 2) {
		t.Error("divisible loop not unrolled at O3")
	}
	// Loop with break: not unrolled.
	withBreak := `
		int a[16];
		int main() {
			int i; int s = 0;
			for (i = 0; i < 16; i++) { if (a[i] < 0) { break; } s += a[i]; }
			return s;
		}
	`
	if compileSize(withBreak, 3) > compileSize(withBreak, 2)+4 {
		t.Error("loop with break was unrolled")
	}
	// Non-constant bound: not unrolled.
	dynBound := `
		int a[16];
		int f(int n) {
			int i; int s = 0;
			for (i = 0; i < n; i++) { s += a[i]; }
			return s;
		}
		int main() { return f(16); }
	`
	if compileSize(dynBound, 3) > compileSize(dynBound, 2)+4 {
		t.Error("dynamic-bound loop was unrolled")
	}
	// Every other loop shape is left alone: the unroller takes only
	// i = c0; i < c1 (or <=); i++ over an int or uint whose address is
	// not taken, with a body that does not write i.
	for name, loop := range map[string]string{
		"no init":         "i = 0; for (; i < 16; i++) { s += a[i]; }",
		"compound init":   "i = 0; for (i += 0; i < 16; i++) { s += a[i]; }",
		"variable init":   "int z = 0; for (i = z; i < 16; i++) { s += a[i]; }",
		"declared iv":     "for (int j = 0; j < 16; j++) { s += a[j]; }",
		"char iv":         "char c; for (c = 0; c < 16; c++) { s += a[c]; }",
		"address taken":   "int *pi = &i; for (i = 0; i < 16; i++) { s += a[i]; }",
		"greater than":    "for (i = 16; i > 0; i--) { s += a[i - 1]; }",
		"literal left":    "for (i = 0; 16 > i; i++) { s += a[i]; }",
		"other cond var":  "int j = 0; for (i = 0; j < 16; i++) { s += a[i & 15]; j++; }",
		"step two":        "for (i = 0; i < 16; i += 2) { s += a[i]; }",
		"decrement":       "for (i = 0; i < 16; i--) { s += a[i & 15]; }",
		"other post var":  "int j = 0; for (i = 0; i < 16; j++) { s += a[i]; i++; }",
		"body assigns iv": "for (i = 0; i < 16; i++) { s += a[i]; i = i + 1; }",
		"body bumps iv":   "for (i = 0; i < 16; i++) { s += a[i]; i++; }",
	} {
		src := "int a[16]; int main() { int i; int s = 0; " + loop + " return s; }"
		if compileSize(src, 3) > compileSize(src, 2)+4 {
			t.Errorf("%s: unrolled %s", name, loop)
		}
	}
}

func TestBlockRangesAndTACString(t *testing.T) {
	f := &tacFunc{Name: "t", sc: new(scratch)}
	d := f.newTemp()
	f.emit(ins{Kind: iMov, Dst: d, A: cnst(1)})
	f.newLabel()
	l1 := f.newLabel()
	f.emit(ins{Kind: iLabel, Sym: l1})
	f.emit(ins{Kind: iBin, Op: opAdd, Dst: f.newTemp(), A: tmp(d), B: cnst(2)})
	f.emit(ins{Kind: iCBr, Op: opLT, A: tmp(d), B: cnst(10), Sym: l1})
	f.emit(ins{Kind: iRet, HasA: true, A: tmp(d)})
	rs := blockRanges(f)
	if len(rs) != 3 {
		t.Fatalf("blockRanges = %v, want 3 blocks", rs)
	}
	s := f.String()
	for _, want := range []string{"t0 = 1", "L1:", "t1 = t0 + 2", "if t0 < 10 goto L1", "ret t0"} {
		if !strings.Contains(s, want) {
			t.Errorf("TAC dump missing %q:\n%s", want, s)
		}
	}
}

// TestRecordSizes pins the compact, pointer-free layouts of the records
// the compiler allocates per token and per TAC instruction.
func TestRecordSizes(t *testing.T) {
	if s := unsafe.Sizeof(token{}); s > 24 {
		t.Errorf("token is %d bytes, want <= 24", s)
	}
	if s := unsafe.Sizeof(ins{}); s > 48 {
		t.Errorf("ins is %d bytes, want <= 48", s)
	}
	if s := unsafe.Sizeof(Operand{}); s != 8 {
		t.Errorf("Operand is %d bytes, want 8", s)
	}
}

// TestUnterminatedBlockComment pins the lexer's rejection of a block
// comment that reaches end of file, reported at its opening "/*",
// whether it trails a complete program or swallows the rest of one.
func TestUnterminatedBlockComment(t *testing.T) {
	for _, c := range []struct{ src, want string }{
		{"int main() { return 7; }\n/* never closed", "mcc: 2:1: unterminated block comment"},
		{"int main() { return 7; } /* never closed\n", "mcc: 1:26: unterminated block comment"},
		{"int main() {\n  /* open\n  return 7;\n}\n", "mcc: 2:3: unterminated block comment"},
		{"int x; /*", "mcc: 1:8: unterminated block comment"},
	} {
		_, err := Compile(c.src, Options{OptLevel: 1})
		if err == nil || err.Error() != c.want {
			t.Errorf("Compile(%q) error = %v, want %q", c.src, err, c.want)
		}
	}
	// A comment closed at the very end of the input is fine.
	if _, err := Compile("int main() { return 7; } /* closed */", Options{}); err != nil {
		t.Errorf("closed trailing comment: %v", err)
	}
}
