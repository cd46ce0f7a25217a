package decompile

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"binpart/internal/bench"
	"binpart/internal/binimg"
	"binpart/internal/ir"
	"binpart/internal/mcc"
	"binpart/internal/mips"
)

func compile(t *testing.T, src string, lvl int) *binimg.Image {
	t.Helper()
	img, err := mcc.Compile(src, mcc.Options{OptLevel: lvl})
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestDecompileSimpleLoop(t *testing.T) {
	img := compile(t, `
		int a[16];
		int main() {
			int s = 0;
			int i;
			for (i = 0; i < 16; i++) { s += a[i]; }
			return s;
		}
	`, 1)
	res, err := Decompile(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failed) != 0 {
		t.Fatalf("unexpected failures: %v", res.Failed)
	}
	f := res.Func("main")
	if f == nil {
		t.Fatal("main not recovered")
	}
	loops := ir.FindLoops(f)
	if len(loops) != 1 {
		t.Fatalf("recovered %d loops in main, want 1:\n%s", len(loops), f)
	}
	// Note: induction variables are NOT yet recoverable here — the raw
	// lifted code hides the increment behind instruction-set overhead
	// ("add rX, r0" moves), which is exactly what the paper's constant
	// propagation pass removes. internal/dopt's tests cover IV recovery
	// post-cleanup.
	l := loops[0]
	if l.Header == nil || l.NumInstrs() == 0 {
		t.Errorf("degenerate loop: %+v", l)
	}
}

// TestLiftedBlocksAreReachable lifts the suite at every level, with and
// without jump-table recovery, and requires every block but the entry to
// have a predecessor: the lifter builds only what the entry reaches. At
// -O0 that drops mcc's fall-through return ("add; jmp" after the return's
// own jump) from 71 functions.
func TestLiftedBlocksAreReachable(t *testing.T) {
	for _, b := range bench.All() {
		for lvl := 0; lvl <= mcc.MaxOptLevel; lvl++ {
			img, err := b.Compile(lvl)
			if err != nil {
				t.Fatal(err)
			}
			for _, jt := range []bool{false, true} {
				res, err := DecompileWith(img, Options{RecoverJumpTables: jt})
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range res.Funcs {
					for _, blk := range f.Blocks[1:] {
						if len(blk.Preds) == 0 {
							t.Fatalf("%s -O%d %s: block at 0x%x is unreachable\n%s", b.Name, lvl, f.Name, blk.Start, f)
						}
					}
				}
			}
		}
	}
}

func TestDecompileAllOptLevels(t *testing.T) {
	src := `
		int data[32];
		int sum(int *p, int n) {
			int s = 0;
			int i;
			for (i = 0; i < n; i++) { s += p[i]; }
			return s;
		}
		int main() {
			int i;
			for (i = 0; i < 32; i++) { data[i] = i; }
			return sum(data, 32);
		}
	`
	for lvl := 0; lvl <= 3; lvl++ {
		img := compile(t, src, lvl)
		res, err := Decompile(img)
		if err != nil {
			t.Fatalf("O%d: %v", lvl, err)
		}
		if len(res.Failed) != 0 {
			t.Errorf("O%d: failures: %v", lvl, res.Failed)
		}
		for _, name := range []string{"_start", "main", "sum"} {
			if res.Func(name) == nil {
				t.Errorf("O%d: %s not recovered", lvl, name)
			}
		}
		if main, sum := res.Func("main"), res.Func("sum"); main != nil && sum != nil && !callsTo(main, sum.Entry) {
			t.Errorf("O%d: main's lifted calls do not target sum's entry 0x%x", lvl, sum.Entry)
		}
	}
}

// callsTo reports whether f holds a lifted call to entry.
func callsTo(f *ir.Func, entry uint32) bool {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.Call && in.Target == entry {
				return true
			}
		}
	}
	return false
}

func TestIndirectJumpFails(t *testing.T) {
	// A dense switch compiles to a jump table; its function must fail
	// CDFG recovery with ErrIndirectJump while others still succeed.
	img := compile(t, `
		int dispatch(int v) {
			switch (v) {
			case 0: return 1;
			case 1: return 2;
			case 2: return 4;
			case 3: return 8;
			case 4: return 16;
			case 5: return 32;
			}
			return 0;
		}
		int main() {
			int s = 0;
			int i;
			for (i = 0; i < 6; i++) { s += dispatch(i); }
			return s;
		}
	`, 1)
	res, err := Decompile(img)
	if err != nil {
		t.Fatal(err)
	}
	ferr, failed := res.Failed["dispatch"]
	if !failed {
		t.Fatal("dispatch recovery succeeded despite jump table")
	}
	if !errors.Is(ferr, ErrIndirectJump) {
		t.Errorf("failure reason = %v, want ErrIndirectJump", ferr)
	}
	// The error is typed: it names the faulting PC and the enclosing
	// function so failure rows are self-explanatory.
	var ije *IndirectJumpError
	if !errors.As(ferr, &ije) {
		t.Fatalf("failure reason %T is not *IndirectJumpError", ferr)
	}
	if ije.Func != "dispatch" {
		t.Errorf("error names function %q, want dispatch", ije.Func)
	}
	if !img.InText(ije.PC) {
		t.Errorf("faulting PC 0x%x outside text", ije.PC)
	}
	if want := fmt.Sprintf("at 0x%x in dispatch", ije.PC); !strings.Contains(ferr.Error(), want) {
		t.Errorf("error %q does not spell out the site %q", ferr, want)
	}
	if res.Func("main") == nil {
		t.Error("main should still be recovered")
	}
}

func TestStructureRecoveryOnRealBinary(t *testing.T) {
	img := compile(t, `
		int main() {
			int n = 0;
			int i;
			for (i = 0; i < 20; i++) {
				if (i & 1) { n += i; } else { n -= 1; }
			}
			return n;
		}
	`, 1)
	res, err := Decompile(img)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Func("main")
	st := ir.Recover(f)
	if len(st.Loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(st.Loops))
	}
	// O1 lowering produces rotated loops; the natural-loop header is the
	// bottom test block, which entry reaches first, so recovery correctly
	// classifies the construct as a guarded (pre-test) loop.
	if st.Loops[0].Shape == ir.LoopOther {
		t.Errorf("loop shape = %v, want a structured shape", st.Loops[0].Shape)
	}
	hasIf := false
	for _, i := range st.Ifs {
		if i.Shape != ir.IfUnstructured {
			hasIf = true
		}
	}
	if !hasIf {
		t.Errorf("no structured if recovered; ifs = %+v", st.Ifs)
	}
	if got := st.RecoveredFraction(); got < 0.99 {
		t.Errorf("recovered fraction = %v, want 1.0\n%s", got, f)
	}
}

func TestLiftingSemantics(t *testing.T) {
	// Hand-assemble a fragment and check key lifted forms.
	src := `
	f:
		addiu $t0, $zero, 5
		lui   $t1, 0x1000
		sll   $t2, $t0, 2
		mult  $t0, $t2
		mflo  $t3
		lw    $t4, 8($t1)
		sw    $t3, 12($t1)
		nor   $t5, $t0, $t2
		jr    $ra
	`
	words, err := mips.AssembleWords(src, binimg.DefaultTextBase)
	if err != nil {
		t.Fatal(err)
	}
	img := &binimg.Image{
		Entry:    binimg.DefaultTextBase,
		TextBase: binimg.DefaultTextBase,
		Text:     words,
		DataBase: binimg.DefaultDataBase,
		Symbols:  []binimg.Symbol{{Name: "f", Addr: binimg.DefaultTextBase, Size: uint32(4 * len(words))}},
	}
	res, err := Decompile(img)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Func("f")
	if f == nil || len(f.Blocks) != 1 {
		t.Fatalf("bad CFG: %+v", f)
	}
	ins := f.Blocks[0].Instrs
	// addiu -> Add rt, r0, 5
	if ins[0].Op != ir.Add || ins[0].Dst != ir.Loc(mips.T0) || !ins[0].B.IsConst || ins[0].B.Val != 5 {
		t.Errorf("addiu lifted to %v", &ins[0])
	}
	// lui -> Move const<<16
	if ins[1].Op != ir.Move || ins[1].A.Val != 0x10000000 {
		t.Errorf("lui lifted to %v", &ins[1])
	}
	// sll -> Shl
	if ins[2].Op != ir.Shl || ins[2].B.Val != 2 {
		t.Errorf("sll lifted to %v", &ins[2])
	}
	// mult -> Mul lo + MulH hi
	if ins[3].Op != ir.Mul || ins[3].Dst != ir.LocLO || ins[4].Op != ir.MulH || ins[4].Dst != ir.LocHI {
		t.Errorf("mult lifted to %v / %v", &ins[3], &ins[4])
	}
	// mflo -> Move from lo
	if ins[5].Op != ir.Move || ins[5].A.Loc != ir.LocLO {
		t.Errorf("mflo lifted to %v", &ins[5])
	}
	// lw / sw
	if ins[6].Op != ir.Load || ins[6].Off != 8 || ins[6].Width != 4 {
		t.Errorf("lw lifted to %v", &ins[6])
	}
	if ins[7].Op != ir.Store || ins[7].Off != 12 {
		t.Errorf("sw lifted to %v", &ins[7])
	}
	// nor -> or + xor -1 (two instructions)
	if ins[8].Op != ir.Or || ins[9].Op != ir.Xor || ins[9].B.Val != -1 {
		t.Errorf("nor lifted to %v / %v", &ins[8], &ins[9])
	}
	// jr $ra -> Ret
	if ins[10].Op != ir.Ret {
		t.Errorf("jr lifted to %v", &ins[10])
	}
}

func TestStrippedBinaryDiscovery(t *testing.T) {
	img := compile(t, `
		int helper(int x) { return x * 3; }
		int main() { return helper(4); }
	`, 1)
	img.Symbols = nil // strip
	res, err := Decompile(img)
	if err != nil {
		t.Fatal(err)
	}
	// _start, main, helper discovered from entry + jal targets.
	if len(res.Funcs) < 3 {
		t.Errorf("discovered %d functions in stripped binary, want >= 3", len(res.Funcs))
	}
}

func TestBranchIdiomBecomesJump(t *testing.T) {
	src := `
	f:
		beq $zero, $zero, skip
		addiu $t0, $t0, 1
	skip:
		jr $ra
	`
	words, err := mips.AssembleWords(src, binimg.DefaultTextBase)
	if err != nil {
		t.Fatal(err)
	}
	img := &binimg.Image{
		Entry: binimg.DefaultTextBase, TextBase: binimg.DefaultTextBase,
		Text: words, DataBase: binimg.DefaultDataBase,
		Symbols: []binimg.Symbol{{Name: "f", Addr: binimg.DefaultTextBase, Size: uint32(4 * len(words))}},
	}
	res, err := Decompile(img)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Func("f")
	t0 := f.Blocks[0].Terminator()
	if t0.Op != ir.Jump {
		t.Errorf("beq $zero,$zero lifted to %v, want jmp", t0)
	}
	if len(f.Blocks[0].Succs) != 1 {
		t.Errorf("unconditional idiom has %d successors", len(f.Blocks[0].Succs))
	}
}
