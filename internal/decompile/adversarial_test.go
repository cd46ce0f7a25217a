package decompile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"binpart/internal/binimg"
	"binpart/internal/ir"
	"binpart/internal/mips"
)

// The switch-table resolver must not mis-recover: a pattern that is
// almost-but-not-quite the jump-table idiom has to fall back to the
// paper's ErrIndirectJump failure (with the faulting PC attached), never
// to a wrong target set. These fixtures are hand-assembled corruptions
// of the idiom, each breaking exactly one of the resolver's obligations.

// jtFixture assembles a four-case jump-table dispatcher with the table
// at DefaultDataBase, applies mutate to the source/table, and returns
// the image plus the address of the jr instruction.
func jtFixture(t *testing.T, asmMutate func(string) string, tableMutate func([]uint32)) (*binimg.Image, uint32) {
	t.Helper()
	src := `
	kernel:
		sltiu $t1, $a0, 4
		beq   $t1, $zero, def
		sll   $t2, $a0, 2
		lui   $t3, 0x1000
		addu  $t3, $t3, $t2
		lw    $t4, 0($t3)
	jrsite:
		jr    $t4
	c0:
		addiu $v0, $zero, 10
		jr    $ra
	c1:
		addiu $v0, $zero, 11
		jr    $ra
	c2:
		addiu $v0, $zero, 12
		jr    $ra
	c3:
		addiu $v0, $zero, 13
		jr    $ra
	def:
		addu  $v0, $zero, $zero
		jr    $ra
	`
	if asmMutate != nil {
		src = asmMutate(src)
	}
	insts, labels, err := mips.Assemble(src, binimg.DefaultTextBase)
	if err != nil {
		t.Fatal(err)
	}
	words := make([]uint32, len(insts))
	for i, in := range insts {
		w, err := mips.Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		words[i] = w
	}
	table := []uint32{labels["c0"], labels["c1"], labels["c2"], labels["c3"]}
	if tableMutate != nil {
		tableMutate(table)
	}
	data := make([]byte, 4*len(table))
	for i, e := range table {
		binary.LittleEndian.PutUint32(data[4*i:], e)
	}
	img := &binimg.Image{
		Entry: binimg.DefaultTextBase, TextBase: binimg.DefaultTextBase,
		Text: words, DataBase: binimg.DefaultDataBase, Data: data,
		Symbols: []binimg.Symbol{
			{Name: "kernel", Addr: binimg.DefaultTextBase, Size: uint32(4 * len(words))},
		},
	}
	return img, labels["jrsite"]
}

// expectIndirectJumpFailure decompiles with recovery on and requires the
// kernel to fail with a typed IndirectJumpError naming the jr's PC.
func expectIndirectJumpFailure(t *testing.T, img *binimg.Image, jrPC uint32) *IndirectJumpError {
	t.Helper()
	res, err := DecompileWith(img, Options{RecoverJumpTables: true})
	if err != nil {
		t.Fatal(err)
	}
	ferr, failed := res.Failed["kernel"]
	if !failed {
		// Mis-recovery is the dangerous outcome: a wrong target set
		// would silently corrupt everything downstream.
		f := res.Func("kernel")
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.IJump {
					t.Fatalf("bogus pattern mis-recovered as table %v", in.Table)
				}
			}
		}
		t.Fatal("bogus pattern recovered without failure")
	}
	if !errors.Is(ferr, ErrIndirectJump) {
		t.Fatalf("failure %v does not wrap ErrIndirectJump", ferr)
	}
	var ije *IndirectJumpError
	if !errors.As(ferr, &ije) {
		t.Fatalf("failure %T is not *IndirectJumpError", ferr)
	}
	if ije.PC != jrPC {
		t.Errorf("faulting PC 0x%x, want jr at 0x%x", ije.PC, jrPC)
	}
	if ije.Func != "kernel" {
		t.Errorf("faulting function %q, want kernel", ije.Func)
	}
	if ije.Reason == "" {
		t.Error("recovery was attempted but the error carries no reason")
	}
	if want := fmt.Sprintf("0x%x", jrPC); !strings.Contains(ferr.Error(), want) {
		t.Errorf("error %q does not name the faulting PC %s", ferr, want)
	}
	return ije
}

func TestAdversarialWellFormedControl(t *testing.T) {
	// The uncorrupted fixture must recover — otherwise the corruption
	// tests below would pass vacuously.
	img, _ := jtFixture(t, nil, nil)
	res, err := DecompileWith(img, Options{RecoverJumpTables: true})
	if err != nil {
		t.Fatal(err)
	}
	if ferr, failed := res.Failed["kernel"]; failed {
		t.Fatalf("well-formed fixture failed: %v", ferr)
	}
	f := res.Func("kernel")
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.IJump && in.Table != nil && len(in.Table.Targets) == 4 {
				return
			}
		}
	}
	t.Fatalf("well-formed fixture recovered without a 4-entry table\n%s", f)
}

func TestAdversarialMisalignedTableBase(t *testing.T) {
	// The table base constant resolves to DataBase+2: a word table can
	// never sit at a misaligned address, so the resolver must refuse.
	img, jrPC := jtFixture(t, func(src string) string {
		return strings.Replace(src, "lui   $t3, 0x1000",
			"lui   $t3, 0x1000\n\t\taddiu $t3, $t3, 2", 1)
	}, nil)
	ije := expectIndirectJumpFailure(t, img, jrPC)
	if !strings.Contains(ije.Reason, "outside data section") {
		t.Errorf("reason %q does not flag the misaligned/out-of-section table", ije.Reason)
	}
}

func TestAdversarialNoBoundsCheck(t *testing.T) {
	// Without the sltiu bound check there is no table span: an
	// out-of-range index would read arbitrary data as a code address,
	// so the resolver must refuse rather than guess.
	img, jrPC := jtFixture(t, func(src string) string {
		src = strings.Replace(src, "sltiu $t1, $a0, 4\n", "", 1)
		return strings.Replace(src, "beq   $t1, $zero, def\n", "", 1)
	}, nil)
	ije := expectIndirectJumpFailure(t, img, jrPC)
	if !strings.Contains(ije.Reason, "bound check") {
		t.Errorf("reason %q does not flag the missing bound check", ije.Reason)
	}
}

func TestAdversarialEntryOutsideFunction(t *testing.T) {
	// One table entry points outside the enclosing function: taking it
	// would jump into unrelated code, so the resolver must refuse.
	img, jrPC := jtFixture(t, nil, func(table []uint32) {
		table[2] = binimg.DefaultTextBase + 0x10000
	})
	ije := expectIndirectJumpFailure(t, img, jrPC)
	if !strings.Contains(ije.Reason, "outside function") {
		t.Errorf("reason %q does not flag the escaping entry", ije.Reason)
	}
}

func TestAdversarialMisalignedEntry(t *testing.T) {
	// A table entry that is inside the function but not word-aligned
	// cannot be an instruction address.
	img, jrPC := jtFixture(t, nil, func(table []uint32) {
		table[1] += 2
	})
	ije := expectIndirectJumpFailure(t, img, jrPC)
	if !strings.Contains(ije.Reason, "outside function") {
		t.Errorf("reason %q does not flag the misaligned entry", ije.Reason)
	}
}

func TestAdversarialTableBeyondDataEnd(t *testing.T) {
	// The bound check promises more entries than the data section
	// holds: reading past DataEnd must be refused, not zero-filled.
	img, jrPC := jtFixture(t, func(src string) string {
		return strings.Replace(src, "sltiu $t1, $a0, 4", "sltiu $t1, $a0, 64", 1)
	}, nil)
	ije := expectIndirectJumpFailure(t, img, jrPC)
	if !strings.Contains(ije.Reason, "outside data section") {
		t.Errorf("reason %q does not flag the table overrun", ije.Reason)
	}
}

func TestAdversarialTargetNotALoad(t *testing.T) {
	// The jr's register is computed, not loaded: with no table load
	// there is no table to read, so the resolver must refuse.
	img, jrPC := jtFixture(t, func(src string) string {
		return strings.Replace(src, "lw    $t4, 0($t3)", "addu  $t4, $t3, $zero", 1)
	}, nil)
	ije := expectIndirectJumpFailure(t, img, jrPC)
	if !strings.Contains(ije.Reason, "not a table load") {
		t.Errorf("reason %q does not flag the missing table load", ije.Reason)
	}
}

func TestAdversarialLoadBaseUndefined(t *testing.T) {
	// The load's base register has no definition in the scan window, so
	// its address is neither a constant nor base+offset. This is the
	// resolver's one path on which the address has no defining
	// instruction at all, which it must refuse without reading one.
	img, jrPC := jtFixture(t, func(src string) string {
		return strings.Replace(src, "lw    $t4, 0($t3)", "lw    $t4, 0($t5)", 1)
	}, nil)
	ije := expectIndirectJumpFailure(t, img, jrPC)
	if !strings.Contains(ije.Reason, "not base+offset") {
		t.Errorf("reason %q does not flag the undefined table address", ije.Reason)
	}
}

func TestAdversarialTableBaseNotConstant(t *testing.T) {
	// The table base is loaded from memory rather than built by lui/ori:
	// the sum is base+offset, but neither side is a constant table
	// address, so there is no table the resolver may read.
	img, jrPC := jtFixture(t, func(src string) string {
		return strings.Replace(src, "lui   $t3, 0x1000", "lw    $t3, 0($a1)", 1)
	}, nil)
	ije := expectIndirectJumpFailure(t, img, jrPC)
	if !strings.Contains(ije.Reason, "no constant table base") {
		t.Errorf("reason %q does not flag the non-constant table base", ije.Reason)
	}
}

// TestAdversarialDeadCodeIsNotLifted pins what a fault in unreachable
// code does: nothing. The lifter walks the control flow from the entry,
// so a word after the function's return is never lifted, and a bad
// branch, an escaping jump, an indirect jump or an undecodable word
// there fails nothing. The same fault on a live path still fails the
// function.
func TestAdversarialDeadCodeIsNotLifted(t *testing.T) {
	word := func(in mips.Inst) uint32 {
		w, err := mips.Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	faults := map[string]uint32{
		"branch outside": word(mips.Inst{Op: mips.BEQ, Rs: mips.T0, Rt: mips.Zero, Imm: 100}),
		"jump outside":   word(mips.Inst{Op: mips.J, Target: binimg.DefaultTextBase + 0x10000}),
		"indirect jump":  word(mips.Inst{Op: mips.JR, Rs: mips.T4}),
		"jalr":           word(mips.Inst{Op: mips.JALR, Rd: mips.RA, Rs: mips.T4}),
		"undecodable":    0xffffffff,
	}
	ret := []uint32{word(mips.Inst{Op: mips.ADDIU, Rt: mips.V0, Rs: mips.Zero, Imm: 7}), word(mips.Inst{Op: mips.JR, Rs: mips.RA})}
	build := func(words ...uint32) *binimg.Image {
		return &binimg.Image{
			Entry: binimg.DefaultTextBase, TextBase: binimg.DefaultTextBase, Text: words,
			Symbols: []binimg.Symbol{{Name: "f", Addr: binimg.DefaultTextBase, Size: uint32(4 * len(words))}},
		}
	}
	for name, fault := range faults {
		t.Run(name, func(t *testing.T) {
			res, err := Decompile(build(ret[0], ret[1], fault))
			if err != nil {
				t.Fatal(err)
			}
			if ferr := res.Failed["f"]; ferr != nil {
				t.Fatalf("a fault in dead code failed the function: %v", ferr)
			}
			f := res.Func("f")
			if len(f.Blocks) != 1 || len(f.Blocks[0].Instrs) != 2 {
				t.Errorf("want the one live block of 2 instructions, got\n%s", f)
			}
			res, err = Decompile(build(ret[0], fault, ret[1]))
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed["f"] == nil {
				t.Errorf("the same fault on the live path did not fail the function")
			}
		})
	}
}
