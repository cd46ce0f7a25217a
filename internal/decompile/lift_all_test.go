package decompile

import (
	"testing"

	"binpart/internal/binimg"
	"binpart/internal/ir"
	"binpart/internal/mips"
	"binpart/internal/sim"
)

// TestLiftEveryInstruction is an exhaustive per-instruction differential:
// for every liftable MIPS instruction form, a tiny function executes it
// with fixed register inputs; the simulator's $v0 and the IR
// interpreter's must agree. This pins the lifting semantics op by op.
func TestLiftEveryInstruction(t *testing.T) {
	// Each snippet sets up $t0/$t1, runs the instruction under test, and
	// moves the result into $v0.
	setup := `
		addiu $t0, $zero, -1234
		addiu $t1, $zero, 7
		lui   $t2, 0x1000
	`
	snippets := map[string]string{
		"add":   "add $v0, $t0, $t1",
		"addu":  "addu $v0, $t0, $t1",
		"sub":   "sub $v0, $t0, $t1",
		"subu":  "subu $v0, $t1, $t0",
		"and":   "and $v0, $t0, $t1",
		"or":    "or $v0, $t0, $t1",
		"xor":   "xor $v0, $t0, $t1",
		"nor":   "nor $v0, $t0, $t1",
		"slt":   "slt $v0, $t0, $t1",
		"sltu":  "sltu $v0, $t0, $t1",
		"sll":   "sll $v0, $t0, 3",
		"srl":   "srl $v0, $t0, 3",
		"sra":   "sra $v0, $t0, 3",
		"sllv":  "sllv $v0, $t0, $t1",
		"srlv":  "srlv $v0, $t0, $t1",
		"srav":  "srav $v0, $t0, $t1",
		"mult":  "mult $t0, $t1\n mflo $v0",
		"multh": "mult $t0, $t0\n mfhi $v0",
		"multu": "multu $t0, $t1\n mfhi $v0",
		"div":   "div $t0, $t1\n mflo $v0",
		"divr":  "div $t0, $t1\n mfhi $v0",
		"divu":  "divu $t0, $t1\n mflo $v0",
		"divur": "divu $t0, $t1\n mfhi $v0",
		"mthi":  "mthi $t1\n mfhi $v0",
		"mtlo":  "mtlo $t1\n mflo $v0",
		"addi":  "addi $v0, $t0, 55",
		"addiu": "addiu $v0, $t0, -55",
		"slti":  "slti $v0, $t0, 5",
		"sltiu": "sltiu $v0, $t0, 5",
		"andi":  "andi $v0, $t0, 0xff0f",
		"ori":   "ori $v0, $t0, 0xf0f0",
		"xori":  "xori $v0, $t0, 0xffff",
		"lui":   "lui $v0, 0x8001",
		"lw":    "sw $t0, 8($t2)\n lw $v0, 8($t2)",
		"lb":    "sb $t0, 9($t2)\n lb $v0, 9($t2)",
		"lbu":   "sb $t0, 9($t2)\n lbu $v0, 9($t2)",
		"lh":    "sh $t0, 10($t2)\n lh $v0, 10($t2)",
		"lhu":   "sh $t0, 10($t2)\n lhu $v0, 10($t2)",
		"beq":   "beq $t0, $t1, yes\n addiu $v0, $zero, 1\n jr $ra\n yes: addiu $v0, $zero, 2",
		"bne":   "bne $t0, $t1, yes\n addiu $v0, $zero, 1\n jr $ra\n yes: addiu $v0, $zero, 2",
		"blez":  "blez $t0, yes\n addiu $v0, $zero, 1\n jr $ra\n yes: addiu $v0, $zero, 2",
		"bgtz":  "bgtz $t0, yes\n addiu $v0, $zero, 1\n jr $ra\n yes: addiu $v0, $zero, 2",
		"bltz":  "bltz $t0, yes\n addiu $v0, $zero, 1\n jr $ra\n yes: addiu $v0, $zero, 2",
		"bgez":  "bgez $t0, yes\n addiu $v0, $zero, 1\n jr $ra\n yes: addiu $v0, $zero, 2",
		"j":     "j skip\n addiu $v0, $zero, 1\n jr $ra\n skip: addiu $v0, $zero, 2",
		"nop":   "nop\n addu $v0, $t0, $zero",
		"zero":  "addu $zero, $t0, $t1\n addu $v0, $zero, $zero",
	}

	for name, body := range snippets {
		name, body := name, body
		t.Run(name, func(t *testing.T) {
			src := "f:\n" + setup + body + "\n jr $ra\n"
			words, err := mips.AssembleWords(src, binimg.DefaultTextBase)
			if err != nil {
				t.Fatal(err)
			}
			img := &binimg.Image{
				Entry: binimg.DefaultTextBase, TextBase: binimg.DefaultTextBase,
				Text: words, DataBase: binimg.DefaultDataBase,
				Symbols: []binimg.Symbol{{Name: "f", Addr: binimg.DefaultTextBase, Size: uint32(4 * len(words))}},
			}

			// Oracle: run f in the simulator from an appended stub,
			// "jal f; break", so f's jr $ra lands on the break.
			simImg := &binimg.Image{
				TextBase: img.TextBase, Entry: img.TextBase + uint32(4*len(img.Text)),
				Text: append(append([]uint32{}, img.Text...),
					mustEncode(t, mips.Inst{Op: mips.JAL, Target: img.TextBase}),
					mustEncode(t, mips.Inst{Op: mips.BREAK})),
				DataBase: img.DataBase,
			}
			res, err := sim.Execute(simImg, sim.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}

			// Subject: decompile + interpret.
			dec, err := Decompile(img)
			if err != nil {
				t.Fatal(err)
			}
			f := dec.Func("f")
			if f == nil {
				t.Fatal("f not recovered")
			}
			st := ir.NewEvalState()
			st.Regs[ir.RegSP] = 0x7fff0000
			if err := ir.Eval(f, st); err != nil {
				t.Fatalf("eval: %v\n%s", err, f)
			}
			if st.Regs[ir.RegV0] != res.ExitCode {
				t.Errorf("lifted IR = %d, simulator = %d\n%s", st.Regs[ir.RegV0], res.ExitCode, f)
			}
		})
	}
}

func mustEncode(t *testing.T, in mips.Inst) uint32 {
	t.Helper()
	w, err := mips.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	return w
}
