package mcc

import (
	"testing"
)

// TAC-level optimizer unit tests (the end-to-end differential tests in
// internal/progen cover whole-pipeline semantics; these pin down the
// individual transformations).

func tacOf(t *testing.T, src string, level int, fn string) *tacFunc {
	t.Helper()
	prog, err := parseSrc(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := analyze(prog, new(astSlabs), nil); err != nil {
		t.Fatal(err)
	}
	if level >= 3 {
		unrollProgram(prog)
	}
	for _, f := range prog.Funcs {
		if f.Name != fn {
			continue
		}
		tf, err := newUnit(prog, new(scratch)).lowerFunc(f, level == 0, level >= 1)
		if err != nil {
			t.Fatal(err)
		}
		optimize(tf, level)
		return tf
	}
	t.Fatalf("function %q not found", fn)
	return nil
}

func countKind(tf *tacFunc, k insKind) int {
	n := 0
	for i := range tf.Ins {
		if tf.Ins[i].Kind == k {
			n++
		}
	}
	return n
}

func countBinOp(tf *tacFunc, op string) int {
	n := 0
	for i := range tf.Ins {
		if tf.Ins[i].Kind == iBin && tf.Ins[i].Op.String() == op {
			n++
		}
	}
	return n
}

func TestConstantFoldingCollapses(t *testing.T) {
	tf := tacOf(t, `int f() { return (3 + 4) * (10 - 2); } int main() { return f(); }`, 1, "f")
	if got := countKind(tf, iBin); got != 0 {
		t.Errorf("constant expression left %d binary ops:\n%s", got, tf)
	}
	// The return value must be the folded constant 56.
	found := false
	for i := range tf.Ins {
		if tf.Ins[i].Kind == iRet && tf.Ins[i].A.IsConst() && tf.Ins[i].A.Val == 56 {
			found = true
		}
	}
	if !found {
		t.Errorf("folded return constant missing:\n%s", tf)
	}
}

func TestAlgebraicIdentities(t *testing.T) {
	tf := tacOf(t, `
		int f(int x) {
			int a = x + 0;
			int b = x * 1;
			int c = x & -1;
			int d = x | 0;
			int e = x << 0;
			return a + b + c + d + e;
		}
		int main() { return f(3); }
	`, 1, "f")
	// Only the four adds of the return expression should survive.
	if got := countBinOp(tf, "+"); got > 4 {
		t.Errorf("identity ops not simplified (%d adds):\n%s", got, tf)
	}
	for _, op := range []string{"*", "&", "|", "<<"} {
		if got := countBinOp(tf, op); got != 0 {
			t.Errorf("%q identity not simplified:\n%s", op, tf)
		}
	}
}

func TestLocalCSEAtO2(t *testing.T) {
	src := `
		int g;
		int f(int x, int y) {
			int a = (x * y) + 1;
			int b = (x * y) + 2;
			return a + b;
		}
		int main() { return f(3, 4); }
	`
	o1 := tacOf(t, src, 1, "f")
	o2 := tacOf(t, src, 2, "f")
	if countBinOp(o1, "*") != 2 {
		t.Errorf("O1 should keep both multiplies:\n%s", o1)
	}
	if countBinOp(o2, "*") != 1 {
		t.Errorf("O2 CSE should leave one multiply:\n%s", o2)
	}
}

func TestStrengthReductionAtO2(t *testing.T) {
	src := `int f(int x) { return x * 10; } int main() { return f(7); }`
	o1 := tacOf(t, src, 1, "f")
	o2 := tacOf(t, src, 2, "f")
	if countBinOp(o1, "*") != 1 {
		t.Errorf("O1 should keep the multiply:\n%s", o1)
	}
	if countBinOp(o2, "*") != 0 {
		t.Errorf("O2 should strength-reduce *10:\n%s", o2)
	}
	if countBinOp(o2, "<<") < 1 {
		t.Errorf("O2 reduction should introduce shifts:\n%s", o2)
	}
	// An expensive constant (many CSD terms) stays a multiply.
	hairy := tacOf(t, `int f(int x) { return x * 1431655765; } int main() { return f(1); }`, 2, "f")
	if countBinOp(hairy, "*") != 1 {
		t.Errorf("expensive constant should stay a multiply:\n%s", hairy)
	}
}

func TestUnsignedDivModReduction(t *testing.T) {
	tf := tacOf(t, `
		uint f(uint x) { return x / 16 + x % 8; }
		int main() { return (int)f(100); }
	`, 2, "f")
	if countBinOp(tf, "/u") != 0 || countBinOp(tf, "%u") != 0 {
		t.Errorf("unsigned div/mod by power of two not reduced:\n%s", tf)
	}
}

func TestDeadCodeEliminated(t *testing.T) {
	tf := tacOf(t, `
		int f(int x) {
			int unused = x * 99;
			int chain = unused + 5;
			return x;
		}
		int main() { return f(1); }
	`, 1, "f")
	if got := countBinOp(tf, "*"); got != 0 {
		t.Errorf("dead multiply survived:\n%s", tf)
	}
}

func TestBranchFoldingRemovesDeadArm(t *testing.T) {
	tf := tacOf(t, `
		int f(int x) {
			if (1 < 0) { x = x * 12345; }
			return x;
		}
		int main() { return f(2); }
	`, 1, "f")
	if got := countBinOp(tf, "*"); got != 0 {
		t.Errorf("statically dead branch arm survived:\n%s", tf)
	}
	if got := countKind(tf, iCBr); got != 0 {
		t.Errorf("constant branch not folded:\n%s", tf)
	}
}

func TestO0IsNaive(t *testing.T) {
	// O0 keeps every local in memory: loads/stores dominate.
	o0 := tacOf(t, `
		int f(int x) { int a = x + 1; int b = a + 2; return a + b; }
		int main() { return f(1); }
	`, 0, "f")
	if countKind(o0, iStore) < 2 || countKind(o0, iLoad) < 2 {
		t.Errorf("O0 not slot-based:\n%s", o0)
	}
	o1 := tacOf(t, `
		int f(int x) { int a = x + 1; int b = a + 2; return a + b; }
		int main() { return f(1); }
	`, 1, "f")
	if countKind(o1, iStore) != 0 {
		t.Errorf("O1 should keep scalars in registers:\n%s", o1)
	}
}

func TestUnrollingScalesBody(t *testing.T) {
	src := `
		int a[8];
		int f(int n) {
			int s = 0;
			int i;
			for (i = 0; i < 8; i++) { s += a[i]; }
			return s;
		}
		int main() { return f(0); }
	`
	o2 := tacOf(t, src, 2, "f")
	o3 := tacOf(t, src, 3, "f")
	l2, l3 := countKind(o2, iLoad), countKind(o3, iLoad)
	if l3 != 4*l2 {
		t.Errorf("O3 loads = %d, want 4x O2's %d", l3, l2)
	}
}
