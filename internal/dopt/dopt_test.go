package dopt

import (
	"testing"

	"binpart/internal/binimg"
	"binpart/internal/decompile"
	"binpart/internal/ir"
	"binpart/internal/mcc"
)

// runPass runs one pass on f in a workspace of its own.
func runPass[R any](f *ir.Func, pass func(*workspace, *ir.Func) R) R {
	ws := newWorkspace(f)
	defer ws.release()
	return pass(ws, f)
}

// afterLiveness is pass run on f's block liveness, which foldMoves and
// deadCode read and OptimizeWith computes before them.
func afterLiveness(pass func(*workspace, *ir.Func) int) func(*workspace, *ir.Func) int {
	return func(ws *workspace, f *ir.Func) int {
		ws.liveness(f)
		return pass(ws, f)
	}
}

// decompileFunc compiles src at the given level and returns the named
// recovered function plus the image (for data initialization).
func decompileFunc(t *testing.T, src string, lvl int, name string) (*ir.Func, *binimg.Image) {
	t.Helper()
	img, err := mcc.Compile(src, mcc.Options{OptLevel: lvl})
	if err != nil {
		t.Fatal(err)
	}
	res, err := decompile.Decompile(img)
	if err != nil {
		t.Fatal(err)
	}
	if ferr, ok := res.Failed[name]; ok {
		t.Fatalf("recovery of %s failed: %v", name, ferr)
	}
	f := res.Func(name)
	if f == nil {
		t.Fatalf("function %s not recovered", name)
	}
	return f, img
}

// evalKernel runs a call-free function under the IR interpreter with the
// image's initialized data and the given integer arguments, returning the
// result register and the final data-section bytes.
func evalKernel(t *testing.T, f *ir.Func, img *binimg.Image, args ...int32) (int32, []byte) {
	t.Helper()
	st := ir.NewEvalState()
	st.Regs[ir.RegSP] = 0x7fff0000
	for i, a := range args {
		st.Regs[ir.RegA0+ir.Loc(i)] = a
	}
	for i, bv := range img.Data {
		st.Mem[img.DataBase+uint32(i)] = bv
	}
	if err := ir.Eval(f, st); err != nil {
		t.Fatalf("eval %s: %v", f.Name, err)
	}
	data := make([]byte, len(img.Data))
	for i := range data {
		data[i] = st.Mem[img.DataBase+uint32(i)]
	}
	return st.Regs[ir.RegV0], data
}

const sumKernel = `
	int a[16];
	int seed;
	int kernel(int n) {
		int s = 0;
		int i;
		for (i = 0; i < 16; i++) { s += a[i] * n; }
		return s;
	}
	int main() {
		int i;
		for (i = 0; i < 16; i++) { a[i] = i - 5; }
		return kernel(3);
	}
`

// TestOptimizePreservesSemantics is the central property: for a corpus of
// kernels and every optimization level, the full dopt pipeline must leave
// the observable behaviour (result + data section) unchanged.
func TestOptimizePreservesSemantics(t *testing.T) {
	kernels := []struct {
		name string
		fn   string
		src  string
		args []int32
	}{
		{"sum-mul", "kernel", sumKernel, []int32{7}},
		{"crc-ish", "kernel", `
			uint table[16] = {0, 79764919, 159529838, 222504540,
				319059676, 398814059, 445009080, 507990021,
				638119352, 583659535, 797628118, 726387553,
				890018160, 835552979, 1015980042, 944750013};
			uint kernel(uint seedv) {
				uint crc = seedv;
				int i;
				for (i = 0; i < 64; i++) {
					crc = (crc << 4) ^ table[(crc >> 28) & 15];
				}
				return (uint)crc;
			}
			int main() { return (int)kernel(12345); }
		`, []int32{12345}},
		{"narrow-bytes", "kernel", `
			uchar img[32];
			int kernel(int n) {
				int s = 0;
				int i;
				for (i = 0; i < n; i++) {
					img[i] = (uchar)(img[i] + 3);
					s += (int)img[i];
				}
				return s;
			}
			int main() { return kernel(32); }
		`, []int32{32}},
		{"store-heavy", "kernel", `
			short out[24];
			int kernel(int bias) {
				int i;
				int acc = bias;
				for (i = 0; i < 24; i++) {
					acc = acc * 5 + i;
					out[i] = (short)acc;
				}
				return acc;
			}
			int main() { return kernel(1); }
		`, []int32{1}},
	}
	for _, k := range kernels {
		for lvl := 0; lvl <= 3; lvl++ {
			name := k.name
			t.Run(name, func(t *testing.T) {
				fBefore, img := decompileFunc(t, k.src, lvl, k.fn)
				wantV, wantMem := evalKernel(t, fBefore, img, k.args...)

				fAfter, img2 := decompileFunc(t, k.src, lvl, k.fn)
				Optimize(fAfter)
				gotV, gotMem := evalKernel(t, fAfter, img2, k.args...)

				if gotV != wantV {
					t.Errorf("O%d: result changed: %d -> %d\nafter:\n%s", lvl, wantV, gotV, fAfter)
				}
				for i := range wantMem {
					if wantMem[i] != gotMem[i] {
						t.Errorf("O%d: data[%d] changed: %d -> %d", lvl, i, wantMem[i], gotMem[i])
						break
					}
				}
			})
		}
	}
}

func TestConstPropRemovesISAOverhead(t *testing.T) {
	f, _ := decompileFunc(t, sumKernel, 1, "kernel")
	// Raw lifted code models moves as "add rd, rs, r0".
	rawAdds := countOp(f, ir.Add)
	runPass(f, (*workspace).cleanup)
	if got := countOp(f, ir.Add); got >= rawAdds {
		t.Errorf("adds before %d, after cleanup %d; expected reduction", rawAdds, got)
	}
	// Induction variable must now be recoverable with trip count 16.
	loops := ir.FindLoops(f)
	if len(loops) != 1 {
		t.Fatalf("loops = %d, want 1\n%s", len(loops), f)
	}
	found := false
	for _, iv := range loops[0].IndVars {
		if n, ok := iv.TripCount(); ok && n == 16 {
			found = true
		}
	}
	if !found {
		t.Errorf("no induction variable with trip count 16 after cleanup: %+v\n%s", loops[0].IndVars, f)
	}
}

func TestStackOperationRemoval(t *testing.T) {
	// A function with calls saves $ra and callee-saved registers; a
	// spilling function adds spill slots. All of that traffic must go.
	src := `
		int g;
		int leaf(int x) { return x * x; }
		int kernel(int n) {
			int a = 1, b = 2, c = 3, d = 4, e = 5, f2 = 6, h = 7, i2 = 8;
			int j = 9, k = 10, l = 11, m = 12, o = 13, p = 14, q = 15;
			int r = 16, s = 17, u = 18, v = 19, w = 20, x = 21, y = 22;
			int sum = 0;
			int i;
			for (i = 0; i < n; i++) {
				sum += leaf(i) + a+b+c+d+e+f2+h+i2+j+k+l+m+o+p+q+r+s+u+v+w+x+y;
			}
			return sum;
		}
		int main() { return kernel(4); }
	`
	f, _ := decompileFunc(t, src, 1, "kernel")
	before := countStackAccesses(f)
	if before == 0 {
		t.Fatalf("expected sp-relative traffic in kernel:\n%s", f)
	}
	runPass(f, (*workspace).cleanup)
	rep := RemoveStackOps(f)
	runPass(f, (*workspace).cleanup)
	if rep.SlotsPromoted == 0 {
		t.Errorf("no slots promoted: %+v\n%s", rep, f)
	}
	after := countStackAccesses(f)
	if after >= before {
		t.Errorf("stack accesses before %d, after %d", before, after)
	}
}

func countStackAccesses(f *ir.Func) int {
	n := 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.Load && !in.A.IsConst && in.A.Loc == ir.RegSP {
				n++
			}
			if in.Op == ir.Store && !in.B.IsConst && in.B.Loc == ir.RegSP {
				n++
			}
		}
	}
	return n
}

func TestStrengthPromotionRecoversMultiply(t *testing.T) {
	// x*11 strength-reduces to shifts/adds at O2; promotion must bring
	// the multiply back.
	src := `
		int a[8];
		int kernel(int n) {
			int s = 0;
			int i;
			for (i = 0; i < 8; i++) { s += a[i] * 11; }
			return s;
		}
		int main() { return kernel(8); }
	`
	f, img := decompileFunc(t, src, 2, "kernel")
	if countOp(f, ir.Mul) != 0 {
		t.Fatalf("O2 binary still contains a multiply; strength reduction did not fire:\n%s", f)
	}
	want, _ := evalKernel(t, f, img)

	f2, img2 := decompileFunc(t, src, 2, "kernel")
	runPass(f2, (*workspace).cleanup)
	rep := runPass(f2, (*workspace).promoteStrength)
	if rep.Multiplies == 0 {
		t.Fatalf("no multiply promoted: %+v\n%s", rep, f2)
	}
	runPass(f2, (*workspace).cleanup)
	muls := countOp(f2, ir.Mul)
	if muls == 0 {
		t.Errorf("promoted multiply disappeared:\n%s", f2)
	}
	got, _ := evalKernel(t, f2, img2)
	if got != want {
		t.Errorf("promotion changed result: %d -> %d", want, got)
	}
	// The recovered constant must be 11.
	found := false
	for _, b := range f2.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.Mul && ((in.A.IsConst && in.A.Val == 11) || (in.B.IsConst && in.B.Val == 11)) {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("no multiply by 11 recovered:\n%s", f2)
	}
}

func TestStrengthReduce(t *testing.T) {
	f := &ir.Func{Blocks: []*ir.Block{{Instrs: []ir.Instr{
		{Op: ir.Mul, Dst: 40, A: ir.L(8), B: ir.C(8)},
		{Op: ir.DivU, Dst: 41, A: ir.L(8), B: ir.C(16)},
		{Op: ir.RemU, Dst: 42, A: ir.L(8), B: ir.C(4)},
		{Op: ir.Mul, Dst: 43, A: ir.L(8), B: ir.C(10)}, // not a power of two
		{Op: ir.Ret},
	}}}}
	f.Reindex()
	n := StrengthReduce(f)
	if n != 3 {
		t.Errorf("reduced %d ops, want 3", n)
	}
	ins := f.Blocks[0].Instrs
	if ins[0].Op != ir.Shl || ins[0].B.Val != 3 {
		t.Errorf("mul by 8 -> %v", &ins[0])
	}
	if ins[1].Op != ir.ShrL || ins[1].B.Val != 4 {
		t.Errorf("divu by 16 -> %v", &ins[1])
	}
	if ins[2].Op != ir.And || ins[2].B.Val != 3 {
		t.Errorf("remu by 4 -> %v", &ins[2])
	}
	if ins[3].Op != ir.Mul {
		t.Errorf("mul by 10 -> %v (should stay)", &ins[3])
	}
}

func TestRerollUndoesUnrolling(t *testing.T) {
	src := `
		int a[16];
		int b[16];
		int kernel(int n) {
			int i;
			for (i = 0; i < 16; i++) { b[i] = a[i] * n + i; }
			int s = 0;
			for (i = 0; i < 16; i++) { s += b[i]; }
			return s;
		}
		int main() { return kernel(3); }
	`
	// O3 unrolls both loops by 4.
	f3, img3 := decompileFunc(t, src, 3, "kernel")
	want, wantMem := evalKernel(t, f3, img3, 3)

	f, img := decompileFunc(t, src, 3, "kernel")
	runPass(f, (*workspace).cleanup)
	sizeBefore := f.NumInstrs()
	rep := runPass(f, (*workspace).reroll)
	if len(rep.Rerolled) == 0 {
		t.Fatalf("no loops rerolled:\n%s", f)
	}
	for _, k := range rep.Rerolled {
		if k != 4 {
			t.Errorf("reroll factor = %d, want 4", k)
		}
	}
	runPass(f, (*workspace).cleanup)
	if got := f.NumInstrs(); got >= sizeBefore {
		t.Errorf("size before %d, after %d; rerolling should shrink the CDFG", sizeBefore, got)
	}
	// Trip counts must now be 16 with step 1 (or equivalent byte step 4).
	loops := ir.FindLoops(f)
	for _, l := range loops {
		okTrip := false
		for _, iv := range l.IndVars {
			if n, ok := iv.TripCount(); ok && n == 16 {
				okTrip = true
			}
		}
		if !okTrip {
			t.Errorf("rerolled loop lost trip count 16: %+v", l.IndVars)
		}
	}
	got, gotMem := evalKernel(t, f, img, 3)
	if got != want {
		t.Errorf("reroll changed result: %d -> %d\n%s", want, got, f)
	}
	for i := range wantMem {
		if wantMem[i] != gotMem[i] {
			t.Errorf("reroll changed data[%d]: %d -> %d", i, wantMem[i], gotMem[i])
			break
		}
	}
}

func TestRerollRejectsNaturalRepetition(t *testing.T) {
	// A body with repeated groups whose progression does not match the
	// induction step must NOT be rerolled.
	src := `
		int a[32];
		int kernel(int n) {
			int s = 0;
			int i;
			for (i = 0; i < 16; i++) {
				s += a[i];
				s += a[i + 16];
			}
			return s;
		}
		int main() { return kernel(0); }
	`
	f, img := decompileFunc(t, src, 1, "kernel")
	want, _ := evalKernel(t, f, img, 0)
	runPass(f, (*workspace).cleanup)
	runPass(f, (*workspace).reroll)
	got, _ := evalKernel(t, f, img, 0)
	if got != want {
		t.Errorf("reroll broke semantics: %d -> %d\n%s", want, got, f)
	}
}

func TestWidthReductionOnBytes(t *testing.T) {
	src := `
		uchar pix[16];
		int kernel(int n) {
			int s = 0;
			int i;
			for (i = 0; i < 16; i++) { s += (int)((uchar)(pix[i] & 15)); }
			return s;
		}
		int main() { return kernel(0); }
	`
	f, _ := decompileFunc(t, src, 1, "kernel")
	runPass(f, (*workspace).cleanup)
	rep := runPass(f, (*workspace).reduceWidths)
	if rep.TotalOps == 0 || rep.OpsNarrowed == 0 {
		t.Errorf("no operators narrowed: %+v\n%s", rep, f)
	}
	// The &15 mask must make some operator 4 bits wide.
	has4 := false
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if w := b.Instrs[i].WidthBits; w > 0 && w <= 8 {
				has4 = true
			}
		}
	}
	if !has4 {
		t.Errorf("no narrow (<=8 bit) operator found:\n%s", f)
	}
}

func TestOptimizeShrinksCode(t *testing.T) {
	for lvl := 0; lvl <= 3; lvl++ {
		f, _ := decompileFunc(t, sumKernel, lvl, "kernel")
		before := f.NumInstrs()
		rep := Optimize(f)
		after := f.NumInstrs()
		if after >= before {
			t.Errorf("O%d: %d instrs before, %d after; pipeline should shrink code\n%+v", lvl, before, after, rep)
		}
	}
}

func countOp(f *ir.Func, op ir.Op) int {
	n := 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].Op == op {
				n++
			}
		}
	}
	return n
}

func TestSignatureInference(t *testing.T) {
	src := `
		int two(int a, int b) { return a + b; }
		int zero() { return 7; }
		void sink(int a) { }
		int pass(int a, int b, int c, int d) { return two(a, d) + c + b; }
		int main() { sink(1); return pass(1, 2, 3, 4) + zero(); }
	`
	img, err := mcc.Compile(src, mcc.Options{OptLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := decompile.Decompile(img)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]struct {
		args int
		ret  bool
	}{
		"two":  {2, true},
		"zero": {0, true},
		// sink never reads its parameter, so the binary carries no
		// evidence of it; 0 is the correct inference from a binary.
		"sink": {0, false},
		"pass": {4, true},
	}
	for name, w := range want {
		f := res.Func(name)
		if f == nil {
			t.Fatalf("%s not recovered", name)
		}
		runPass(f, (*workspace).cleanup)
		if got := InferParams(f); got != w.args {
			t.Errorf("%s: inferred %d args, want %d", name, got, w.args)
		}
		if got := InferReturns(f); got != w.ret {
			t.Errorf("%s: inferred returns=%v, want %v", name, got, w.ret)
		}
	}
}
