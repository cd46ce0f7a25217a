package mcc

import (
	"testing"

	"binpart/internal/mips"
	"binpart/internal/sim"
)

// Back-end unit tests: register allocation and code generation details
// that the end-to-end tests exercise only incidentally.

func TestLargeImmediates(t *testing.T) {
	// Constants beyond 16 bits need lui/ori materialization.
	runAll(t, `
		int main() {
			int big = 0x12345678;
			uint ubig = 0xdeadbeef;
			return (big >> 16) + (int)(ubig & 0xff);  /* 0x1234 + 0xef */
		}
	`, 0x1234+0xef)
}

func TestLargeFrameOffsets(t *testing.T) {
	// A local array bigger than the 16-bit immediate range forces the
	// large-offset path through $at.
	runAll(t, `
		int main() {
			int a[9000];
			a[0] = 7;
			a[8999] = 35;
			return a[0] + a[8999];
		}
	`, 42)
}

func TestManySimultaneousLives(t *testing.T) {
	// More live values than registers: spills must round-trip through
	// the frame correctly, including across calls.
	runAll(t, `
		int id(int x) { return x; }
		int main() {
			int a0 = id(1), a1 = id(2), a2 = id(3), a3 = id(4);
			int a4 = id(5), a5 = id(6), a6 = id(7), a7 = id(8);
			int a8 = id(9), a9 = id(10), aa = id(11), ab = id(12);
			int ac = id(13), ad = id(14), ae = id(15), af = id(16);
			int b0 = id(17), b1 = id(18), b2 = id(19), b3 = id(20);
			return a0+a1+a2+a3+a4+a5+a6+a7+a8+a9+aa+ab+ac+ad+ae+af+b0+b1+b2+b3;
		}
	`, 210)
}

func TestCalleeSavedPreservedAcrossCalls(t *testing.T) {
	// Values live across calls land in $s registers; the callee must
	// save/restore any it uses.
	runAll(t, `
		int clobber(int x) {
			int p = x * 2, q = x * 3, r = x * 4, s2 = x * 5;
			int u = x * 6, v = x * 7, w = x * 8, y = x * 9;
			return p + q + r + s2 + u + v + w + y;
		}
		int main() {
			int keep1 = 100;
			int keep2 = 200;
			int sum = 0;
			int i;
			for (i = 0; i < 3; i++) {
				sum += clobber(i);
			}
			return keep1 + keep2 + sum;  /* 300 + (0 + 44 + 88) */
		}
	`, 300+44*3)
}

func TestRecursionDepth(t *testing.T) {
	runAll(t, `
		int sumto(int n) {
			if (n <= 0) { return 0; }
			return n + sumto(n - 1);
		}
		int main() { return sumto(100); }
	`, 5050)
}

func TestRegisterPools(t *testing.T) {
	// Allocator must never hand out reserved registers.
	reserved := map[mips.Reg]bool{
		mips.Zero: true, mips.AT: true, mips.K0: true, mips.K1: true,
		mips.GP: true, mips.SP: true, mips.FP: true, mips.RA: true,
		mips.V0: true, mips.A0: true, mips.A1: true, mips.A2: true, mips.A3: true,
	}
	for _, r := range callerPool {
		if reserved[r] {
			t.Errorf("caller pool contains reserved register %v", r)
		}
	}
	for _, r := range calleePool {
		if reserved[r] {
			t.Errorf("callee pool contains reserved register %v", r)
		}
		if r < mips.S0 || r > mips.S7 {
			t.Errorf("callee pool register %v is not an $s register", r)
		}
	}
}

func TestLivenessAcrossCallClassification(t *testing.T) {
	// A temp live across a call must be assigned to a callee-saved
	// register or spilled — never a $t register.
	src := `
		int f(int x) { return x + 1; }
		int main() {
			int keep = 42;
			int r = f(1);
			return keep + r;
		}
	`
	prog, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := Analyze(prog); err != nil {
		t.Fatal(err)
	}
	var mainTF *tacFunc
	u := newUnit(prog, new(scratch))
	for _, fn := range prog.Funcs {
		tf, err := u.lowerFunc(fn, false, true)
		if err != nil {
			t.Fatal(err)
		}
		optimize(tf, 1)
		if fn.Name == "main" {
			mainTF = tf
		}
	}
	a := allocate(mainTF)
	blocks := buildBlocks(mainTF)
	liveness(mainTF, blocks)
	for _, iv := range computeIntervals(mainTF, blocks) {
		if !iv.acrossCall {
			continue
		}
		if r := a.reg[iv.t]; r != 0 {
			isCalleeSaved := r >= mips.S0 && r <= mips.S7
			if !isCalleeSaved {
				t.Errorf("temp t%d live across call allocated to caller-saved %v", iv.t, r)
			}
		}
	}
}

func TestGlobalAddressMaterialization(t *testing.T) {
	// Global addresses are full 32-bit constants (0x10000000 base).
	img, err := Compile(`
		int g = 5;
		int main() { return g; }
	`, Options{OptLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Find a lui with the data-section high half.
	foundLui := false
	for _, w := range img.Text {
		in, err := mips.Decode(w)
		if err == nil && in.Op == mips.LUI && in.Imm == 0x1000 {
			foundLui = true
		}
	}
	if !foundLui {
		t.Error("no lui materializing the data base address")
	}
}

func TestEmptyFunctionBodies(t *testing.T) {
	runAll(t, `
		void nothing() { }
		int zero() { return 0; }
		int main() {
			nothing();
			return zero() + 9;
		}
	`, 9)
}

func TestNestedCallsArgumentOrder(t *testing.T) {
	runAll(t, `
		int sub2(int a, int b) { return a - b; }
		int main() {
			/* nested calls must not clobber outer argument staging */
			return sub2(sub2(10, 3), sub2(4, 2));  /* 7 - 2 */
		}
	`, 5)
}

func TestDoWhileAtAllLevels(t *testing.T) {
	results := runAll(t, `
		int main() {
			int n = 0;
			int i = 0;
			do {
				n += i;
				i++;
			} while (i < 10);
			return n;
		}
	`, 45)
	// O0 uses more memory traffic; its cycle count must exceed O1's.
	if results[0].Cycles <= results[1].Cycles {
		t.Errorf("O0 (%d cycles) not slower than O1 (%d)", results[0].Cycles, results[1].Cycles)
	}
}

func TestStressManyFunctions(t *testing.T) {
	// Call-graph with several functions checks jal patching across the
	// whole text section.
	src := `
		int f1(int x) { return x + 1; }
		int f2(int x) { return f1(x) * 2; }
		int f3(int x) { return f2(x) + f1(x); }
		int f4(int x) { return f3(x) - f2(x); }
		int f5(int x) { return f4(x) + f3(x) + f2(x) + f1(x); }
		int main() { return f5(3); }
	`
	runAll(t, src, func() int32 {
		f1 := func(x int32) int32 { return x + 1 }
		f2 := func(x int32) int32 { return f1(x) * 2 }
		f3 := func(x int32) int32 { return f2(x) + f1(x) }
		f4 := func(x int32) int32 { return f3(x) - f2(x) }
		f5 := func(x int32) int32 { return f4(x) + f3(x) + f2(x) + f1(x) }
		return f5(3)
	}())
}

func TestBinaryDeterminism(t *testing.T) {
	// The same source at the same level must produce identical binaries
	// (no map-iteration nondeterminism in the compiler).
	src := `
		int a[8] = {1,2,3,4,5,6,7,8};
		int f(int x) { return a[x & 7] * 3; }
		int main() { int i; int s = 0; for (i = 0; i < 20; i++) { s += f(i); } return s; }
	`
	for lvl := 0; lvl <= 3; lvl++ {
		img1, err := Compile(src, Options{OptLevel: lvl})
		if err != nil {
			t.Fatal(err)
		}
		img2, err := Compile(src, Options{OptLevel: lvl})
		if err != nil {
			t.Fatal(err)
		}
		if len(img1.Text) != len(img2.Text) {
			t.Fatalf("O%d: nondeterministic text length", lvl)
		}
		for i := range img1.Text {
			if img1.Text[i] != img2.Text[i] {
				t.Fatalf("O%d: nondeterministic word %d: %08x vs %08x", lvl, i, img1.Text[i], img2.Text[i])
			}
		}
	}
}

func TestStackDiscipline(t *testing.T) {
	// After any call tree, $sp must return to its starting value; the
	// simulator would fault on a misaligned or underflowed stack, but
	// check the register value explicitly too.
	img, err := Compile(`
		int f(int n) { if (n <= 0) { return 1; } return f(n-1) + n; }
		int main() { return f(5); }
	`, Options{OptLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.New(img, sim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	spBefore := m.Regs[mips.SP]
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.Regs[mips.SP] != spBefore {
		t.Errorf("stack pointer leaked: 0x%x -> 0x%x", spBefore, m.Regs[mips.SP])
	}
}
