package mcc

import (
	"fmt"
	"strings"
	"testing"

	"binpart/internal/sim"
)

// runAll compiles src at every optimization level, runs each binary, and
// checks they all return want. It returns the per-level results so callers
// can make additional assertions (e.g. O1 executes fewer cycles than O0).
func runAll(t *testing.T, src string, want int32) [4]sim.Result {
	t.Helper()
	var out [4]sim.Result
	for lvl := 0; lvl <= 3; lvl++ {
		img, err := Compile(src, Options{OptLevel: lvl})
		if err != nil {
			t.Fatalf("O%d: compile: %v", lvl, err)
		}
		res, err := sim.Execute(img, sim.DefaultConfig())
		if err != nil {
			t.Fatalf("O%d: run: %v", lvl, err)
		}
		if res.ExitCode != want {
			t.Errorf("O%d: result = %d, want %d", lvl, res.ExitCode, want)
		}
		out[lvl] = res
	}
	return out
}

func TestReturnConstant(t *testing.T) {
	runAll(t, `int main() { return 42; }`, 42)
}

func TestArithmetic(t *testing.T) {
	runAll(t, `
		int main() {
			int a = 15;
			int b = 4;
			return a + b*3 - (a/b) - (a%b) + (a<<2) - (a>>1) + (a&b) + (a|b) + (a^b);
		}
	`, 15+12-3-3+60-7+4+15+11)
}

func TestUnsignedSemantics(t *testing.T) {
	runAll(t, `
		int main() {
			uint a = 0;
			a = a - 1;          /* 0xffffffff */
			uint b = a / 2;     /* 0x7fffffff */
			int c = (int)(a >> 24); /* logical shift: 255 */
			if (a < 1) { return 1; }  /* unsigned compare: false */
			return c + (int)(b >> 24); /* 255 + 127 */
		}
	`, 382)
}

func TestSignedSemantics(t *testing.T) {
	runAll(t, `
		int main() {
			int a = -17;
			int q = a / 5;      /* -3 */
			int r = a % 5;      /* -2 */
			int s = a >> 2;     /* arithmetic: -5 */
			if (a < 0) { return q*100 + r*10 + s; }
			return 0;
		}
	`, -3*100+-2*10+-5)
}

func TestNarrowTypes(t *testing.T) {
	runAll(t, `
		char gc;
		uchar guc;
		short gs;
		ushort gus;
		int main() {
			gc = 200;       /* wraps to -56 */
			guc = 200;
			gs = 70000;     /* wraps to 4464 */
			gus = 70000;
			char c = 130;   /* -126 */
			uchar uc = 130;
			return (int)gc + (int)guc + (int)gs + (int)gus + c + (int)uc;
		}
	`, -56+200+4464+4464-126+130)
}

func TestControlFlow(t *testing.T) {
	runAll(t, `
		int main() {
			int n = 0;
			int i;
			for (i = 0; i < 10; i++) {
				if (i % 2 == 0) { n += i; } else { n -= 1; }
			}
			while (n > 17) { n--; }
			do { n += 2; } while (n < 21);
			return n;
		}
	`, 21)
}

func TestBreakContinue(t *testing.T) {
	runAll(t, `
		int main() {
			int n = 0;
			int i;
			for (i = 0; i < 100; i++) {
				if (i == 5) { continue; }
				if (i == 9) { break; }
				n += i;
			}
			return n;  /* 0+1+2+3+4+6+7+8 = 31 */
		}
	`, 31)
}

func TestShortCircuit(t *testing.T) {
	runAll(t, `
		int g;
		int bump() { g++; return 0; }
		int main() {
			g = 0;
			int a = (1 || bump());  /* bump not called */
			int b = (0 && bump());  /* bump not called */
			int c = (0 || bump());  /* called */
			int d = (1 && bump());  /* called */
			return g*100 + a*10 + b + c + d;
		}
	`, 210)
}

func TestGlobalArrays(t *testing.T) {
	runAll(t, `
		int tab[8] = {1, 2, 3, 4, 5, 6, 7, 8};
		short stab[4] = {-1, -2, -3, -4};
		uchar btab[4] = {250, 251, 252, 253};
		int main() {
			int s = 0;
			int i;
			for (i = 0; i < 8; i++) { s += tab[i]; }
			for (i = 0; i < 4; i++) { s += stab[i]; }
			for (i = 0; i < 4; i++) { s += (int)btab[i]; }
			return s;  /* 36 - 10 + 1006 */
		}
	`, 36-10+1006)
}

func TestLocalArrays(t *testing.T) {
	runAll(t, `
		int main() {
			int a[5];
			int i;
			for (i = 0; i < 5; i++) { a[i] = i*i; }
			int s = 0;
			for (i = 0; i < 5; i++) { s += a[i]; }
			return s;  /* 0+1+4+9+16 */
		}
	`, 30)
}

func TestPointers(t *testing.T) {
	runAll(t, `
		int buf[4] = {10, 20, 30, 40};
		int sumthrough(int *p, int n) {
			int s = 0;
			int i;
			for (i = 0; i < n; i++) { s += p[i]; }
			return s;
		}
		int main() {
			int x = 5;
			int *px = &x;
			*px = *px + 2;
			int *p = buf;
			p = p + 1;
			return sumthrough(buf, 4) + *p + x;  /* 100 + 20 + 7 */
		}
	`, 127)
}

func TestFunctionCalls(t *testing.T) {
	runAll(t, `
		int fib(int n) {
			if (n < 2) { return n; }
			return fib(n-1) + fib(n-2);
		}
		int max4(int a, int b, int c, int d) {
			int m = a;
			if (b > m) { m = b; }
			if (c > m) { m = c; }
			if (d > m) { m = d; }
			return m;
		}
		int main() {
			return fib(10) + max4(3, 99, -5, 12);  /* 55 + 99 */
		}
	`, 154)
}

func TestVoidFunction(t *testing.T) {
	runAll(t, `
		int acc;
		void add(int v) { acc += v; }
		int main() {
			acc = 0;
			add(3); add(4); add(5);
			return acc;
		}
	`, 12)
}

func TestSwitchCompareChain(t *testing.T) {
	// 3 sparse cases: compiles to a compare chain, no jump table.
	runAll(t, `
		int classify(int v) {
			switch (v) {
			case 1: return 10;
			case 100: return 20;
			case -7: return 30;
			default: return 0;
			}
		}
		int main() {
			return classify(1) + classify(100) + classify(-7) + classify(8);
		}
	`, 60)
}

func TestSwitchJumpTable(t *testing.T) {
	// 6 dense cases: compiles to a jump table (indirect jump).
	runAll(t, `
		int dispatch(int v) {
			int r = 0;
			switch (v) {
			case 0: r = 1; break;
			case 1: r = 2; break;
			case 2: r = 4; break;
			case 3: r = 8; break;
			case 4: r = 16; break;
			case 5: r = 32; break;
			default: r = 100; break;
			}
			return r;
		}
		int main() {
			int s = 0;
			int i;
			for (i = -1; i < 7; i++) { s += dispatch(i); }
			return s;  /* 100 + 63 + 100 */
		}
	`, 263)
}

func TestSwitchFallthrough(t *testing.T) {
	runAll(t, `
		int main() {
			int v = 2;
			int r = 0;
			switch (v) {
			case 1: r += 1;
			case 2: r += 2;
			case 3: r += 4;  /* falls through from 2 */
			case 4: r += 8;
			default: r += 16;
			}
			return r;  /* 2+4+8+16 */
		}
	`, 30)
}

func TestTernaryAndIncDec(t *testing.T) {
	runAll(t, `
		int main() {
			int a = 5;
			int b = a++;        /* b=5 a=6 */
			int c = ++a;        /* c=7 a=7 */
			int d = a-- + --a;  /* 7 + 5; a=5 */
			int e = a > 3 ? 100 : 200;
			return b + c + d + e;  /* 5+7+12+100 */
		}
	`, 124)
}

func TestCompoundAssign(t *testing.T) {
	runAll(t, `
		int main() {
			int a = 100;
			a += 5; a -= 3; a *= 2; a /= 4; a %= 13;  /* 204/4=51 %13=12 */
			a <<= 3; a >>= 1; a |= 0x40; a &= 0x7f; a ^= 0x0f;  /* 48|64=112 &0x7f=112 ^15=127 */
			return a;
		}
	`, 127)
}

// TestRelationalCodegen checks the relational operators as values and as
// branch conditions, signed and unsigned, register against register and
// against zero, at every level: each program's exit code must be the
// bit set Go computes for the same comparisons.
func TestRelationalCodegen(t *testing.T) {
	bits := func(cs ...bool) int32 {
		var r int32
		for i, c := range cs {
			if c {
				r |= 1 << i
			}
		}
		return r
	}
	// rel is a's relation to b as the six bits the programs set, compared
	// signed or unsigned.
	rel := func(a, b int32, unsigned bool) int32 {
		if unsigned {
			x, y := uint32(a), uint32(b)
			return bits(x < y, x > y, x <= y, x >= y, x == y, x != y)
		}
		return bits(a < b, a > b, a <= b, a >= b, a == b, a != b)
	}
	const (
		values = `int f(%[1]s a, %[1]s b) {
			return (a < b) + 2*(a > b) + 4*(a <= b) + 8*(a >= b) + 16*(a == b) + 32*(a != b);
		}`
		branches = `int f(%[1]s a, %[1]s b) {
			int r = 0;
			if (a < b) { r += 1; }
			if (a > b) { r += 2; }
			if (a <= b) { r += 4; }
			if (a >= b) { r += 8; }
			if (a == b) { r += 16; }
			if (a != b) { r += 32; }
			return r;
		}`
		// zero compares against the literal 0, which has branches of
		// its own; b is unused.
		zero = `int f(%[1]s a, %[1]s b) {
			int r = 0;
			if (a < 0) { r += 1; }
			if (a > 0) { r += 2; }
			if (a <= 0) { r += 4; }
			if (a >= 0) { r += 8; }
			if (a == 0) { r += 16; }
			if (a != 0) { r += 32; }
			return r;
		}`
		// literal compares a against b written as a literal, which
		// selects the immediate forms (slti, sltiu).
		literal = `int f(%[1]s a, %[1]s b) {
			return (a < %[3]d) + 2*(a > %[3]d) + 4*(a <= %[3]d) + 8*(a >= %[3]d) + 16*(a == %[3]d) + 32*(a != %[3]d);
		}`
		// consts compares literals, which the optimizer folds from -O1.
		consts = `int f(%[1]s a, %[1]s b) {
			%[1]s x = %[2]d;
			%[1]s y = %[3]d;
			int r = 0;
			if (x < y) { r += 1; }
			if (x > y) { r += 2; }
			if (x <= y) { r += 4; }
			if (x >= y) { r += 8; }
			if (x == y) { r += 16; }
			if (x != y) { r += 32; }
			return r;
		}`
	)
	for _, ty := range []string{"int", "uint"} {
		for _, shape := range []struct{ name, src string }{
			{"values", values}, {"literal", literal}, {"branches", branches}, {"zero", zero}, {"consts", consts},
		} {
			for _, p := range [][2]int32{{-3, 5}, {5, -3}, {7, 7}, {0, 9}, {-1, 0}} {
				a, b := p[0], p[1]
				want := rel(a, b, ty == "uint")
				if shape.name == "zero" {
					want = rel(a, 0, ty == "uint")
				}
				src := fmt.Sprintf(shape.src, ty, a, b) + fmt.Sprintf("\nint main() { return f(%d, %d); }", a, b)
				t.Run(fmt.Sprintf("%s/%s/%d,%d", ty, shape.name, a, b), func(t *testing.T) {
					runAll(t, src, want)
				})
			}
		}
	}
}

// TestLanguageCorners runs one program through the constructs no suite
// program or generator configuration writes: a multi-declarator global,
// constant folding of !, ~, &&, || and unary minus, for with a
// declaration and for without a condition, f(void), a sized array
// parameter, a local array initializer, &a[i], &*p, &global, integer +
// pointer, the empty statement, ! as a value and as a
// condition, a ushort store, unary +, and return in a void function.
func TestLanguageCorners(t *testing.T) {
	runAll(t, `
		int g1 = !0 + ~5 + (3 && 0) + (0 || 7) + -(2);
		int ga, gb = 4;
		int arr[4] = {1, 2, 3, 4};
		ushort us;
		int sum4(int a[4]) { int s = 0; for (int i = 0; i < 4; i++) { s += a[i]; } return s; }
		int one(void) { return 1; }
		void setg(int v) { ga = v; return; }
		int main() {
			int loc[3] = {5, 6, 7};
			int *p = &arr[1];
			int *q = 1 + p;
			int *r = &*q;
			int *pg = &gb;
			;
			int n = 0;
			for (;;) { n++; if (n == 3) { break; } }
			int z = 0;
			int nz = !z;
			if (!nz) { n += 100; }
			us = 70000;
			setg(+3);
			return g1 + gb + sum4(arr) + one() + loc[0] + loc[2] + *p + *q + *r + *pg + n + nz + us + ga;
		}
	`, (1-6+0+1-2)+4+10+1+5+7+2+3+3+4+3+1+(70000&0xffff)+3)
}

func TestStrengthReducedMultiply(t *testing.T) {
	// x*10 = (x<<3)+(x<<1): O2+ strength-reduces this.
	results := runAll(t, `
		int main() {
			int s = 0;
			int i;
			for (i = 1; i <= 8; i++) { s += i * 10; }
			return s;
		}
	`, 360)
	// O2 should avoid multiply instructions, making it no slower than O1.
	if results[2].Cycles > results[1].Cycles {
		t.Errorf("O2 (%d cycles) slower than O1 (%d): strength reduction regressed",
			results[2].Cycles, results[1].Cycles)
	}
}

func TestDivModByPowerOfTwo(t *testing.T) {
	runAll(t, `
		int main() {
			uint a = 1000;
			return (int)(a / 8) + (int)(a % 8);  /* 125 + 0 */
		}
	`, 125)
}

func TestOptLevelsSpeedOrdering(t *testing.T) {
	// A loop-heavy kernel must get faster (in cycles) from O0 to O1.
	results := runAll(t, `
		int data[64];
		int main() {
			int i;
			int acc = 0;
			for (i = 0; i < 64; i++) { data[i] = i ^ (i << 1); }
			for (i = 0; i < 64; i++) { acc += data[i] * 3; }
			return acc & 0xffff;
		}
	`, func() int32 {
		var acc int32
		for i := int32(0); i < 64; i++ {
			acc += (i ^ (i << 1)) * 3
		}
		return acc & 0xffff
	}())
	if results[1].Cycles >= results[0].Cycles {
		t.Errorf("O1 (%d cycles) not faster than O0 (%d)", results[1].Cycles, results[0].Cycles)
	}
}

func TestLoopUnrollingPreservesResult(t *testing.T) {
	// Trip count 16 divisible by 4: O3 unrolls. Result must not change,
	// and the O3 binary must be larger (the unrolling artifact the
	// decompiler later detects).
	src := `
		int a[16];
		int main() {
			int i;
			for (i = 0; i < 16; i++) { a[i] = i*i + 1; }
			int s = 0;
			for (i = 0; i < 16; i++) { s += a[i]; }
			return s;
		}
	`
	var want int32
	for i := int32(0); i < 16; i++ {
		want += i*i + 1
	}
	runAll(t, src, want)

	img2, err := Compile(src, Options{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	img3, err := Compile(src, Options{OptLevel: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(img3.Text) <= len(img2.Text) {
		t.Errorf("O3 text (%d words) not larger than O2 (%d): unrolling did not fire",
			len(img3.Text), len(img2.Text))
	}
}

func TestDeepExpressionSpills(t *testing.T) {
	// Force register pressure beyond the allocatable pools.
	runAll(t, `
		int main() {
			int a = 1, b = 2, c = 3, d = 4, e = 5, f = 6, g = 7, h = 8;
			int i = 9, j = 10, k = 11, l = 12, m = 13, n = 14, o = 15, p = 16;
			int q = 17, r = 18, s = 19, u = 20, v = 21, w = 22;
			int x = a+b+c+d+e+f+g+h+i+j+k+l+m+n+o+p+q+r+s+u+v+w;
			return x + (a*b) + (v*w);  /* 253 + 2 + 462 */
		}
	`, 717)
}

func TestComments(t *testing.T) {
	runAll(t, `
		/* block comment
		   over lines */
		int main() {
			// line comment
			return 7; /* trailing */
		}
	`, 7)
}

func TestCharLiterals(t *testing.T) {
	runAll(t, `
		int main() {
			char nl = '\n';
			char z = '\0';
			char a = 'A';
			return a + nl + z;  /* 65 + 10 */
		}
	`, 75)
}

// TestCompileErrors pins the message of every lexer, parser and sema
// error a user of cmd/mcc can reach: each bad program must fail to
// compile with an error containing its phrase.
func TestCompileErrors(t *testing.T) {
	cases := []struct{ src, msg string }{
		// Lexer.
		{"int main() { return 1 @ 2; }", `unexpected character '@'`},
		{`int main() { return 99999999999; }`, `number "99999999999" out of 32-bit range`},
		{`int main() { return 'a; }`, `unterminated character literal`},
		// Parser.
		{`int main() { return 1;`, `unexpected end of file in block`},
		{`int main() { return 1 + ; }`, `expected expression, found ";"`},
		{`x main() { return 0; }`, `expected type, found "x"`},
		{`int 5;`, `expected identifier, found number 5`},
		{`int a, ; int main() { return 0; }`, `expected identifier after ','`},
		{`int main() { int a, ; return 0; }`, `expected identifier after ','`},
		{`int n; int a[n]; int main() { return 0; }`, `array length must be a number literal`},
		{`int a[0]; int main() { return 0; }`, `array length 0 out of range`},
		{`int a = {1}; int main() { return 0; }`, `brace initializer on non-array "a"`},
		{`int a[2] = {1, 2, 3}; int main() { return 0; }`, `too many initializers for "a" (3 > 2)`},
		{`int f(int) { return 0; } int main() { return 0; }`, `expected parameter name`},
		{`int main() { do { } ; return 0; }`, `expected 'while' after do body`},
		{`int main() { int ; return 0; }`, `expected identifier in declaration`},
		{`int main() { int x = 1; switch (x) { case x: return 1; } return 0; }`, `case label must be a literal`},
		{`int main() { switch (1) { return 0; } return 0; }`, `expected 'case' or 'default' in switch, found "return"`},
		// Sema.
		{`int main() { int a = 1; return a[0]; }`, `cannot index int`},
		{`int main() { int a = 1; return *a; }`, `cannot dereference int`},
		{`int main() { switch (1) { case 1: return 1; case 1: return 2; } return 0; }`, `duplicate case 1`},
		{`void f() { return 3; } int main() { f(); return 0; }`, `"f": return with value in void function`},
		{`void f() { } int main() { return f() + 1; }`, `invalid operands to "+": void and int`},
		{`int f(int a, int b, int c, int d, int e) { return a; } int main() { return f(1,2,3,4,5); }`, `function "f" has 5 parameters; MicroC supports at most 4`},
		{`int f(int a) { return a; } int main() { return f(1, 2); }`, `"f" expects 1 arguments, got 2`},
		{`int main() { int a = 1; int a = 2; return a; }`, `"a" redeclared`},
		{`int main() { return x; }`, `undefined identifier "x"`},
		{`int f() { return 1; }`, `no main function`},
		{`int f() { return 1; } int f() { return 2; } int main() { return 0; }`, `function "f" redefined`},
		{`void g; int main() { return 0; }`, `global "g" has void type`},
		{`int g; int h = g + 1; int main() { return h; }`, `global "h": initializer must be constant: expression is not constant`},
		{`int h = *5; int main() { return h; }`, `non-constant unary "*"`},
		{`int h = 1 / 0; int main() { return h; }`, `non-constant or invalid operator "/"`},
		{`int main() { int x = 1; int a[2] = {x, 2}; return a[0]; }`, `local array initializer must be constant`},
		{`int main() { int a[2] = 5; return a[0]; }`, `line 1: cannot initialize int[2] "a" from int`},
		{`int a[2] = 5; int main() { return a[0]; }`, `line 1: cannot initialize int[2] "a" from int`},
		{`int f() { return; } int main() { return f(); }`, `"f": return without value in non-void function`},
		{`int *p; int f() { return p; } int main() { return f(); }`, `"f": cannot return int* as int`},
		{`int a[2]; int main() { return a * 2; }`, `invalid operands to "*": int[2] and int`},
		{`int a[2]; int main() { return -a; }`, `invalid operand to unary "-": int[2]`},
		{`int a[2]; int b[2]; int main() { a = b; return 0; }`, `assignment target is not an lvalue`},
		{`int main() { 1 = 2; return 0; }`, `assignment target is not an lvalue`},
		{`int *p; int main() { int x = 0; x = p; return x; }`, `cannot assign int* to int`},
		{`int *p; int main() { p *= 2; return 0; }`, `invalid compound assignment on int*`},
		{`int a[4]; int main() { int *p = a; p += 1; return *p; }`, `invalid compound assignment on int*`},
		{`int a[2]; int b[2]; int main() { return a[b]; }`, `array index must be scalar, got int[2]`},
		{`int f(int *p) { return *p; } int main() { return f(5); }`, `"f" argument 1: cannot pass int as int*`},
		{`int a[2]; int b[2]; int main() { return (1 ? a : b)[0]; }`, `?: arms must be scalar`},
		{`int main() { break; return 0; }`, `break outside loop or switch`},
		{`int main() { continue; return 0; }`, `continue outside loop`},
		{`int f(int a, int b) { return a; } int main() { return f(1); }`, `"f" expects 2 arguments, got 1`},
		{`int main() { return g(); }`, `call to undefined function "g"`},
		{`int main() { int *p = &(1+2); return *p; }`, `cannot take address of non-lvalue`},
	}
	for _, c := range cases {
		_, err := Compile(c.src, Options{OptLevel: 1})
		if err == nil || !strings.Contains(err.Error(), c.msg) {
			t.Errorf("%s\n\terror %v, want one containing %q", c.src, err, c.msg)
		}
	}
	if _, err := Compile(`int main() { return 0; }`, Options{OptLevel: MaxOptLevel + 1}); err == nil ||
		!strings.Contains(err.Error(), "bad optimization level 4") {
		t.Errorf("-O4: error %v, want bad optimization level", err)
	}
}

// TestMutatedProgramsFailCleanly deletes each token of a program that
// uses every statement and declaration form, one at a time, and renames
// each identifier to an undefined one. Each mutant must either compile
// or fail with an "mcc:" error, never panic: the parser's missing-token
// paths and sema's error paths from every position are what a user's
// typo reaches.
func TestMutatedProgramsFailCleanly(t *testing.T) {
	src := `
		int g = 1, h[3] = {1, 2, 3};
		uchar c;
		int f(int a, int *p, int b[4]) {
			int s = 0;
			int i;
			for (i = 0; i < 4; i++) { s += b[i]; }
			while (a > 0) { a--; if (a == 2) { continue; } else { s++; } }
			do { s = s - 1; } while (s > 100);
			switch (a) { case 0: s++; break; case -1: s--; default: s = s ^ 1; }
			*p = s ? s : 1;
			return (s << 1) + (int)c + !a + ~a + -a + h[a & 1] + (a && s) + (a || s);
		}
		int main() { int x = 3; return f(x, &x, h) + g + x; }
	`
	if _, err := Compile(src, Options{OptLevel: 1}); err != nil {
		t.Fatal(err)
	}
	toks, err := lex(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range toks {
		if tk.kind == tokEOF {
			continue
		}
		mutants := []string{src[:tk.off] + " " + src[tk.end:]}
		if tk.kind == tokIdent {
			mutants = append(mutants, src[:tk.off]+"undefined_zz"+src[tk.end:])
		}
		for _, mutant := range mutants {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("mutating %q at %d:%d panics: %v", tk.text(src), tk.line, tk.col, r)
					}
				}()
				if _, err := Compile(mutant, Options{OptLevel: 1}); err != nil && !strings.HasPrefix(err.Error(), "mcc:") {
					t.Errorf("mutating %q at %d:%d: error %q lacks the mcc: prefix", tk.text(src), tk.line, tk.col, err)
				}
			}()
		}
	}
}

func TestSymbolsEmitted(t *testing.T) {
	img, err := Compile(`
		int g = 5;
		int tab[4] = {1,2,3,4};
		int helper(int x) { return x + g; }
		int main() { return helper(tab[0]); }
	`, Options{OptLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"_start", "main", "helper", "g", "tab"} {
		if _, ok := img.Lookup(name); !ok {
			t.Errorf("symbol %q missing", name)
		}
	}
	s, _ := img.Lookup("main")
	if !img.InText(s.Addr) {
		t.Errorf("main at 0x%x not in text", s.Addr)
	}
	g, _ := img.Lookup("g")
	if img.InText(g.Addr) {
		t.Errorf("global g at 0x%x is in text", g.Addr)
	}
}

func TestGlobalScalarInit(t *testing.T) {
	runAll(t, `
		int a = 5;
		int b = -(3 + 4);
		uint c = 1 << 20;
		short s = -12;
		uchar u = 200;
		int main() { return a + b + (int)(c >> 18) + s + (int)u; }
	`, 5-7+4-12+200)
}

func TestMixedSignedUnsignedCompare(t *testing.T) {
	runAll(t, `
		int main() {
			int si = -1;
			uint ui = 1;
			/* mixed comparison is unsigned, like C: (uint)-1 > 1 */
			if (si > (int)0 || (uint)si > ui) { return 1; }
			return 0;
		}
	`, 1)
}
