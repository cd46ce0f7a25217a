package sim

import (
	"strings"
	"testing"

	"binpart/internal/binimg"
	"binpart/internal/mips"
)

// asmImage assembles src at the default text base into a runnable image.
func asmImage(t *testing.T, src string) *binimg.Image {
	t.Helper()
	words, err := mips.AssembleWords(src, binimg.DefaultTextBase)
	if err != nil {
		t.Fatal(err)
	}
	return &binimg.Image{
		Entry:    binimg.DefaultTextBase,
		TextBase: binimg.DefaultTextBase,
		Text:     words,
		DataBase: binimg.DefaultDataBase,
	}
}

func run(t *testing.T, src string) Result {
	t.Helper()
	res, err := Execute(asmImage(t, src), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSumLoop(t *testing.T) {
	res := run(t, `
		li $v0, 0
		li $t1, 10
	loop:
		addu $v0, $v0, $t1
		addiu $t1, $t1, -1
		bgtz $t1, loop
		break
	`)
	if res.ExitCode != 55 {
		t.Errorf("sum 1..10 = %d, want 55", res.ExitCode)
	}
	if res.Steps == 0 || res.Cycles < res.Steps {
		t.Errorf("implausible counts: steps=%d cycles=%d", res.Steps, res.Cycles)
	}
}

func TestArithmeticOps(t *testing.T) {
	cases := []struct {
		name string
		body string
		want int32
	}{
		{"addu", "li $t0, 7\n li $t1, 5\n addu $v0, $t0, $t1", 12},
		{"subu", "li $t0, 7\n li $t1, 5\n subu $v0, $t0, $t1", 2},
		{"and", "li $t0, 12\n li $t1, 10\n and $v0, $t0, $t1", 8},
		{"or", "li $t0, 12\n li $t1, 10\n or $v0, $t0, $t1", 14},
		{"xor", "li $t0, 12\n li $t1, 10\n xor $v0, $t0, $t1", 6},
		{"nor", "li $t0, -1\n li $t1, 0\n nor $v0, $t0, $t1", 0},
		{"slt true", "li $t0, -3\n li $t1, 2\n slt $v0, $t0, $t1", 1},
		{"sltu false", "li $t0, -3\n li $t1, 2\n sltu $v0, $t0, $t1", 0},
		{"sll", "li $t0, 3\n sll $v0, $t0, 4", 48},
		{"srl", "li $t0, -16\n srl $v0, $t0, 28", 15},
		{"sra", "li $t0, -16\n sra $v0, $t0, 2", -4},
		{"sllv", "li $t0, 3\n li $t1, 4\n sllv $v0, $t1, $t0", 32},
		{"mult mflo", "li $t0, -6\n li $t1, 7\n mult $t0, $t1\n mflo $v0", -42},
		{"mult mfhi", "li $t0, 0x4000\n sll $t0, $t0, 16\n mult $t0, $t0\n mfhi $v0", 0x10000000},
		{"div quot", "li $t0, -17\n li $t1, 5\n div $t0, $t1\n mflo $v0", -3},
		{"div rem", "li $t0, -17\n li $t1, 5\n div $t0, $t1\n mfhi $v0", -2},
		{"divu", "li $t0, 17\n li $t1, 5\n divu $t0, $t1\n mflo $v0", 3},
		{"div by zero", "li $t0, 9\n li $t1, 0\n div $t0, $t1\n mflo $v0", 0},
		{"addiu", "li $t0, 7\n addiu $v0, $t0, -9", -2},
		{"slti", "li $t0, -5\n slti $v0, $t0, 0", 1},
		{"sltiu", "li $t0, 3\n sltiu $v0, $t0, 10", 1},
		{"andi", "li $t0, -1\n andi $v0, $t0, 0xff", 255},
		{"ori", "ori $v0, $zero, 0x1234", 0x1234},
		{"xori", "li $t0, 0xff\n xori $v0, $t0, 0x0f", 0xf0},
		{"lui", "lui $v0, 1", 0x10000},
		{"mthi mfhi", "li $t0, 99\n mthi $t0\n mfhi $v0", 99},
		{"mtlo mflo", "li $t0, 98\n mtlo $t0\n mflo $v0", 98},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := run(t, c.body+"\nbreak")
			if res.ExitCode != c.want {
				t.Errorf("got %d, want %d", res.ExitCode, c.want)
			}
		})
	}
}

func TestMemoryOps(t *testing.T) {
	res := run(t, `
		lui $t0, 0x1000       # data base
		li  $t1, -2
		sw  $t1, 0($t0)
		lw  $v0, 0($t0)
		break
	`)
	if res.ExitCode != -2 {
		t.Errorf("sw/lw round trip = %d, want -2", res.ExitCode)
	}

	res = run(t, `
		lui $t0, 0x1000
		li  $t1, 0x180
		sb  $t1, 0($t0)       # stores 0x80
		lb  $v0, 0($t0)       # sign extends
		break
	`)
	if res.ExitCode != -128 {
		t.Errorf("sb/lb = %d, want -128", res.ExitCode)
	}

	res = run(t, `
		lui $t0, 0x1000
		li  $t1, 0x180
		sb  $t1, 0($t0)
		lbu $v0, 0($t0)
		break
	`)
	if res.ExitCode != 128 {
		t.Errorf("sb/lbu = %d, want 128", res.ExitCode)
	}

	res = run(t, `
		lui $t0, 0x1000
		li  $t1, -300
		sh  $t1, 2($t0)
		lh  $v0, 2($t0)
		break
	`)
	if res.ExitCode != -300 {
		t.Errorf("sh/lh = %d, want -300", res.ExitCode)
	}

	res = run(t, `
		lui $t0, 0x1000
		li  $t1, -300
		sh  $t1, 2($t0)
		lhu $v0, 2($t0)
		break
	`)
	if res.ExitCode != 65236 {
		t.Errorf("sh/lhu = %d, want 65236", res.ExitCode)
	}
}

func TestStackOps(t *testing.T) {
	res := run(t, `
		addiu $sp, $sp, -16
		li $t0, 77
		sw $t0, 4($sp)
		lw $v0, 4($sp)
		addiu $sp, $sp, 16
		break
	`)
	if res.ExitCode != 77 {
		t.Errorf("stack slot = %d, want 77", res.ExitCode)
	}
}

func TestCallReturn(t *testing.T) {
	res := run(t, `
		jal fn
		break
	fn:
		li $v0, 123
		jr $ra
	`)
	if res.ExitCode != 123 {
		t.Errorf("call/return = %d, want 123", res.ExitCode)
	}
}

func TestBranchVariants(t *testing.T) {
	res := run(t, `
		li $v0, 0
		li $t0, -1
		bltz $t0, a
		break
	a:	addiu $v0, $v0, 1
		bgez $zero, b
		break
	b:	addiu $v0, $v0, 1
		li $t1, 1
		blez $zero, c
		break
	c:	addiu $v0, $v0, 1
		bgtz $t1, d
		break
	d:	addiu $v0, $v0, 1
		beq $t1, $t1, e
		break
	e:	addiu $v0, $v0, 1
		bne $t1, $zero, f
		break
	f:	addiu $v0, $v0, 1
		break
	`)
	if res.ExitCode != 6 {
		t.Errorf("branch chain = %d, want 6", res.ExitCode)
	}
}

func TestErrors(t *testing.T) {
	// Misaligned load.
	_, err := Execute(asmImage(t, "lui $t0, 0x1000\n lw $v0, 2($t0)\n break"), DefaultConfig())
	if err == nil || !strings.Contains(err.Error(), "misaligned") {
		t.Errorf("misaligned load: err = %v", err)
	}
	// Null dereference.
	_, err = Execute(asmImage(t, "lw $v0, 0($zero)\n break"), DefaultConfig())
	if err == nil {
		t.Error("null load succeeded")
	}
	// Store into text.
	_, err = Execute(asmImage(t, "lui $t0, 0x40\n sw $t0, 0($t0)\n break"), DefaultConfig())
	if err == nil || !strings.Contains(err.Error(), "text") {
		t.Errorf("text store: err = %v", err)
	}
	// Runaway (no break): step limit.
	cfg := DefaultConfig()
	cfg.MaxSteps = 1000
	_, err = Execute(asmImage(t, "loop: j loop"), cfg)
	if err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Errorf("runaway: err = %v", err)
	}
	// PC off the end.
	_, err = Execute(asmImage(t, "nop"), DefaultConfig())
	if err == nil || !strings.Contains(err.Error(), "outside text") {
		t.Errorf("fallthrough off end: err = %v", err)
	}
}

func TestIndirectJumpTargetErrors(t *testing.T) {
	// A jr to a misaligned or out-of-text target must name the faulting
	// jump instruction, not fail later with a bare "PC outside text".
	_, err := Execute(asmImage(t, `
		lui $t0, 1
		ori $t0, $t0, 0x2345
		jr $t0
		break
	`), DefaultConfig())
	if err == nil || !strings.Contains(err.Error(), "jr at 0x400008") ||
		!strings.Contains(err.Error(), "0x12345") {
		t.Errorf("misaligned jr target: err = %v", err)
	}

	_, err = Execute(asmImage(t, "jr $zero\n break"), DefaultConfig())
	if err == nil || !strings.Contains(err.Error(), "jr at 0x400000") {
		t.Errorf("out-of-text jr target: err = %v", err)
	}

	_, err = Execute(asmImage(t, "jalr $t0, $zero\n break"), DefaultConfig())
	if err == nil || !strings.Contains(err.Error(), "jalr at 0x400000") {
		t.Errorf("out-of-text jalr target: err = %v", err)
	}
}

func TestBranchIntoMidBlock(t *testing.T) {
	// A branch targeting the middle of a straight-line run must execute
	// from the landing instruction onward (block dispatch re-enters the
	// block at an interior index).
	res := run(t, `
		li $v0, 0
		j mid
		addiu $v0, $v0, 100
	mid:
		addiu $v0, $v0, 1
		addiu $v0, $v0, 2
		break
	`)
	if res.ExitCode != 3 {
		t.Errorf("mid-block entry = %d, want 3", res.ExitCode)
	}
}

func TestZeroRegisterImmutable(t *testing.T) {
	res := run(t, `
		li $t0, 5
		addu $zero, $t0, $t0
		addu $v0, $zero, $zero
		break
	`)
	if res.ExitCode != 0 {
		t.Errorf("$zero was written: got %d", res.ExitCode)
	}
}

func TestProfileCounts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Profile = true
	img := asmImage(t, `
		li $t1, 5
		li $v0, 0
	loop:
		addu $v0, $v0, $t1
		addiu $t1, $t1, -1
		bgtz $t1, loop
		break
	`)
	res, err := Execute(img, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile == nil {
		t.Fatal("no profile collected")
	}
	// The loop body instruction at text base+8 runs 5 times.
	if got := res.Profile.InstCount[binimg.DefaultTextBase+8]; got != 5 {
		t.Errorf("loop head count = %d, want 5", got)
	}
	// Back edge (bgtz at +16 -> +8) taken 4 times.
	e := Edge{From: binimg.DefaultTextBase + 16, To: binimg.DefaultTextBase + 8}
	if got := res.Profile.EdgeCount[e]; got != 4 {
		t.Errorf("back edge count = %d, want 4", got)
	}
}

func TestCycleModelWeights(t *testing.T) {
	// A load must cost more than an ALU op under the default model.
	alu := run(t, "addu $t0, $t1, $t2\n break")
	ld := run(t, "lui $t0, 0x1000\n lw $t1, 0($t0)\n break")
	if ld.Cycles <= alu.Cycles {
		t.Errorf("load cycles (%d) not greater than ALU-only (%d)", ld.Cycles, alu.Cycles)
	}
}

// TestKeptMachineDropsLargeMemory: a run that touches more than
// maxKeptPages pages does not leave them pinned in the free list.
func TestKeptMachineDropsLargeMemory(t *testing.T) {
	words, err := mips.AssembleWords(`
		lui   $t0, 0x1000        # data base
		li    $t2, 100           # pages to touch
	loop:
		sw    $t2, 0($t0)
		addiu $t0, $t0, 4096
		addiu $t2, $t2, -1
		bgtz  $t2, loop
		break
	`, binimg.DefaultTextBase)
	if err != nil {
		t.Fatal(err)
	}
	img := &binimg.Image{Entry: binimg.DefaultTextBase, TextBase: binimg.DefaultTextBase, Text: words, DataBase: binimg.DefaultDataBase}
	m, err := acquire(img, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.mem.Pages() <= maxKeptPages {
		t.Fatalf("the program touched %d pages, want more than %d", m.mem.Pages(), maxKeptPages)
	}
	release(m)
	if m.mem.Pages() != 0 {
		t.Errorf("a released machine keeps %d pages, want 0", m.mem.Pages())
	}
}
