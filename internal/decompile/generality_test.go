package decompile

import (
	"testing"

	"binpart/internal/binimg"
	"binpart/internal/dopt"
	"binpart/internal/ir"
	"binpart/internal/mips"
)

// The tool's claim is compiler independence: it must handle binaries in
// idioms our own compiler never emits. These fixtures are written the way
// other compilers (or hand assembly) would write them: j-based loops,
// pointer-walking instead of index arithmetic, software pipelined
// prologues, and frame pointer usage.

// overheadOnly is dopt's instruction-set overhead removal alone: the
// passes that undo compiler optimizations are off.
var overheadOnly = dopt.Config{NoStackRemoval: true, NoReroll: true, NoPromote: true, NoWidthReduce: true}

func asmFunc(t *testing.T, src string, data []byte) *binimg.Image {
	t.Helper()
	words, err := mips.AssembleWords(src, binimg.DefaultTextBase)
	if err != nil {
		t.Fatal(err)
	}
	return &binimg.Image{
		Entry: binimg.DefaultTextBase, TextBase: binimg.DefaultTextBase,
		Text: words, DataBase: binimg.DefaultDataBase, Data: data,
		Symbols: []binimg.Symbol{
			{Name: "f", Addr: binimg.DefaultTextBase, Size: uint32(4 * len(words))},
			{Name: "arr", Addr: binimg.DefaultDataBase, Size: 64},
		},
	}
}

func TestPointerWalkingLoop(t *testing.T) {
	// while (p < end) { sum += *p; p++; } — gcc's favourite shape, using
	// a pointer induction variable and a j-based loop.
	img := asmFunc(t, `
	f:
		lui  $t0, 0x1000      # p = arr
		addiu $t1, $t0, 64    # end
		addu $v0, $zero, $zero
		j    test
	body:
		lw   $t2, 0($t0)
		addu $v0, $v0, $t2
		addiu $t0, $t0, 4
	test:
		sltu $t3, $t0, $t1
		bne  $t3, $zero, body
		jr   $ra
	`, make([]byte, 64))
	res, err := Decompile(img)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Func("f")
	dopt.OptimizeWith(f, overheadOnly)
	loops := ir.FindLoops(f)
	if len(loops) != 1 {
		t.Fatalf("loops = %d, want 1\n%s", len(loops), f)
	}
	// The pointer is an induction variable with byte stride 4 and a
	// recoverable trip count of 16.
	found := false
	for _, iv := range loops[0].IndVars {
		if iv.Step == 4 {
			if n, ok := iv.TripCount(); ok && n == 16 {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("pointer induction variable not recovered: %+v", loops[0].IndVars)
	}
}

func TestFramePointerIdiom(t *testing.T) {
	// Some compilers address locals off $fp rather than $sp.
	img := asmFunc(t, `
	f:
		addiu $sp, $sp, -16
		sw    $fp, 12($sp)
		addu  $fp, $sp, $zero
		addiu $t0, $zero, 21
		sw    $t0, 4($fp)
		lw    $t1, 4($fp)
		addu  $v0, $t1, $t1
		lw    $fp, 12($sp)
		addiu $sp, $sp, 16
		jr    $ra
	`, nil)
	res, err := Decompile(img)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Func("f")
	st := ir.NewEvalState()
	st.Regs[ir.RegSP] = 0x7fff0000
	if err := ir.Eval(f, st); err != nil {
		t.Fatal(err)
	}
	if st.Regs[ir.RegV0] != 42 {
		t.Errorf("fp-idiom function = %d, want 42", st.Regs[ir.RegV0])
	}
	// Cleanup + optimization must preserve it.
	dopt.Optimize(f)
	st2 := ir.NewEvalState()
	st2.Regs[ir.RegSP] = 0x7fff0000
	if err := ir.Eval(f, st2); err != nil {
		t.Fatalf("after optimize: %v\n%s", err, f)
	}
	if st2.Regs[ir.RegV0] != 42 {
		t.Errorf("after optimize = %d, want 42\n%s", st2.Regs[ir.RegV0], f)
	}
}

func TestCountdownLoopIdiom(t *testing.T) {
	// Counting down to zero with bgtz — a common hand-optimization.
	img := asmFunc(t, `
	f:
		addiu $t0, $zero, 10
		addu  $v0, $zero, $zero
	loop:
		addu  $v0, $v0, $t0
		addiu $t0, $t0, -1
		bgtz  $t0, loop
		jr    $ra
	`, nil)
	res, err := Decompile(img)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Func("f")
	dopt.OptimizeWith(f, overheadOnly)
	loops := ir.FindLoops(f)
	if len(loops) != 1 {
		t.Fatalf("loops = %d\n%s", len(loops), f)
	}
	found := false
	for _, iv := range loops[0].IndVars {
		if iv.Step == -1 {
			if n, ok := iv.TripCount(); ok && n == 10 {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("countdown induction variable not recovered: %+v", loops[0].IndVars)
	}
	st := ir.NewEvalState()
	st.Regs[ir.RegSP] = 0x7fff0000
	if err := ir.Eval(f, st); err != nil {
		t.Fatal(err)
	}
	if st.Regs[ir.RegV0] != 55 {
		t.Errorf("sum = %d, want 55", st.Regs[ir.RegV0])
	}
}

func TestHandUnrolledAsmRerolls(t *testing.T) {
	// Hand-unrolled accumulation: sum words pairwise, bumping the
	// pointer by 8. The reroller must recognize and undo it even though
	// no compiler of ours produced it.
	img := asmFunc(t, `
	f:
		lui   $t0, 0x1000
		addu  $v0, $zero, $zero
		addu  $t3, $zero, $zero
		j     test
	body:
		lw    $t1, 0($t0)
		addu  $v0, $v0, $t1
		lw    $t2, 4($t0)
		addu  $v0, $v0, $t2
		addiu $t0, $t0, 8
		addiu $t3, $t3, 2
	test:
		slti  $t4, $t3, 16
		bne   $t4, $zero, body
		jr    $ra
	`, func() []byte {
		d := make([]byte, 64)
		for i := 0; i < 16; i++ {
			d[4*i] = byte(i + 1)
		}
		return d
	}())
	res, err := Decompile(img)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Func("f")

	// Reference result before optimizing.
	run := func() int32 {
		st := ir.NewEvalState()
		st.Regs[ir.RegSP] = 0x7fff0000
		for i, b := range img.Data {
			st.Mem[img.DataBase+uint32(i)] = b
		}
		if err := ir.Eval(f, st); err != nil {
			t.Fatalf("%v\n%s", err, f)
		}
		return st.Regs[ir.RegV0]
	}
	want := run()
	rep := dopt.OptimizeWith(f, dopt.Config{NoStackRemoval: true, NoPromote: true, NoWidthReduce: true}).Reroll
	if len(rep.Rerolled) != 1 || rep.Rerolled[0] != 2 {
		t.Fatalf("reroll report %+v, want one factor-2 reroll\n%s", rep, f)
	}
	if got := run(); got != want {
		t.Errorf("reroll changed result: %d -> %d\n%s", want, got, f)
	}
}

func TestMixedWidthAccessIdiom(t *testing.T) {
	// Byte scanning with lbu and an address compare.
	img := asmFunc(t, `
	f:
		lui   $t0, 0x1000
		addiu $t1, $t0, 16
		addu  $v0, $zero, $zero
	loop:
		lbu   $t2, 0($t0)
		addu  $v0, $v0, $t2
		addiu $t0, $t0, 1
		sltu  $t3, $t0, $t1
		bne   $t3, $zero, loop
		jr    $ra
	`, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	res, err := Decompile(img)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Func("f")
	dopt.Optimize(f)
	st := ir.NewEvalState()
	st.Regs[ir.RegSP] = 0x7fff0000
	for i, b := range img.Data {
		st.Mem[img.DataBase+uint32(i)] = b
	}
	if err := ir.Eval(f, st); err != nil {
		t.Fatal(err)
	}
	if st.Regs[ir.RegV0] != 136 {
		t.Errorf("byte sum = %d, want 136", st.Regs[ir.RegV0])
	}
}

// TestLimitOnEitherSide: a loop test may name the limit first ("slt t,
// limit, i") as readily as the induction variable first. Both spellings
// of one loop must recover the same trip count.
func TestLimitOnEitherSide(t *testing.T) {
	trip := func(test string) int64 {
		img := asmFunc(t, `
	f:
		addu  $v0, $zero, $zero
		addu  $t0, $zero, $zero
		addiu $t1, $zero, 16
	loop:
		addu  $v0, $v0, $t0
		addiu $t0, $t0, 1
		`+test+`
		jr    $ra
	`, nil)
		res, err := Decompile(img)
		if err != nil {
			t.Fatal(err)
		}
		f := res.Func("f")
		dopt.OptimizeWith(f, overheadOnly)
		loops := ir.FindLoops(f)
		if len(loops) != 1 {
			t.Fatalf("loops = %d\n%s", len(loops), f)
		}
		for _, iv := range loops[0].IndVars {
			if n, ok := iv.TripCount(); ok && iv.Step == 1 {
				return n
			}
		}
		t.Fatalf("%s: no trip count recovered\n%s", test, f)
		return 0
	}
	ivFirst := trip("slti $t3, $t0, 17\n bne $t3, $zero, loop")    // stay while i < 17
	limitFirst := trip("slt $t3, $t1, $t0\n beq $t3, $zero, loop") // stay while !(16 < i)
	if ivFirst != 17 || limitFirst != 17 {
		t.Errorf("trip counts %d (iv first) and %d (limit first), want 17", ivFirst, limitFirst)
	}
}
