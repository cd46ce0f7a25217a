package mips

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRegString(t *testing.T) {
	cases := map[Reg]string{
		Zero: "$zero", SP: "$sp", RA: "$ra", T0: "$t0", S7: "$s7", A3: "$a3",
	}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("Reg(%d).String() = %q, want %q", r, got, want)
		}
	}
}

func TestEncodeDecodeKnownWords(t *testing.T) {
	// One hand-checked encoding per opcode, worked out field by field
	// from the MIPS-I manual: encode and decode read the same table row,
	// so only a word from outside the table can catch a wrong entry.
	cases := []struct {
		inst Inst
		word uint32
	}{
		{Inst{Op: NOP}, 0x00000000},
		{Inst{Op: ADD, Rd: V0, Rs: A0, Rt: A1}, 0x00851020},
		{Inst{Op: ADDU, Rd: T0, Rs: T1, Rt: T2}, 0x012a4021},
		{Inst{Op: SUB, Rd: T0, Rs: T1, Rt: T2}, 0x012a4022},
		{Inst{Op: SUBU, Rd: V0, Rs: A0, Rt: A1}, 0x00851023},
		{Inst{Op: AND, Rd: T3, Rs: T4, Rt: T5}, 0x018d5824},
		{Inst{Op: OR, Rd: S0, Rs: S1, Rt: S2}, 0x02328025},
		{Inst{Op: XOR, Rd: T0, Rs: T1, Rt: T2}, 0x012a4026},
		{Inst{Op: NOR, Rd: T0, Rs: Zero, Rt: T1}, 0x00094027},
		{Inst{Op: SLT, Rd: V0, Rs: A0, Rt: A1}, 0x0085102a},
		{Inst{Op: SLTU, Rd: V1, Rs: A2, Rt: A3}, 0x00c7182b},
		{Inst{Op: SLL, Rd: T0, Rt: T1, Imm: 2}, 0x00094080},
		{Inst{Op: SRL, Rd: V0, Rt: A0, Imm: 31}, 0x000417c2},
		{Inst{Op: SRA, Rd: T0, Rt: T1, Imm: 16}, 0x00094403},
		{Inst{Op: SLLV, Rd: T0, Rt: T1, Rs: T2}, 0x01494004},
		{Inst{Op: SRLV, Rd: V0, Rt: A0, Rs: A1}, 0x00a41006},
		{Inst{Op: SRAV, Rd: T0, Rt: T1, Rs: T2}, 0x01494007},
		{Inst{Op: MULT, Rs: T0, Rt: T1}, 0x01090018},
		{Inst{Op: MULTU, Rs: A0, Rt: A1}, 0x00850019},
		{Inst{Op: DIV, Rs: T0, Rt: T1}, 0x0109001a},
		{Inst{Op: DIVU, Rs: A0, Rt: A1}, 0x0085001b},
		{Inst{Op: MFHI, Rd: V0}, 0x00001010},
		{Inst{Op: MFLO, Rd: T0}, 0x00004012},
		{Inst{Op: MTHI, Rs: T0}, 0x01000011},
		{Inst{Op: MTLO, Rs: A0}, 0x00800013},
		{Inst{Op: JR, Rs: RA}, 0x03e00008},
		{Inst{Op: JALR, Rd: RA, Rs: T9}, 0x0320f809},
		{Inst{Op: BREAK}, 0x0000000d},
		{Inst{Op: ADDI, Rt: T0, Rs: T1, Imm: -1}, 0x2128ffff},
		{Inst{Op: ADDIU, Rt: SP, Rs: SP, Imm: -8}, 0x27bdfff8},
		{Inst{Op: SLTI, Rt: V0, Rs: A0, Imm: 100}, 0x28820064},
		{Inst{Op: SLTIU, Rt: T0, Rs: T1, Imm: -32768}, 0x2d288000},
		{Inst{Op: ANDI, Rt: T0, Rs: T1, Imm: 0xff}, 0x312800ff},
		{Inst{Op: ORI, Rt: T0, Rs: T0, Imm: 0x5678}, 0x35085678},
		{Inst{Op: XORI, Rt: V0, Rs: A0, Imm: 0xffff}, 0x3882ffff},
		{Inst{Op: LUI, Rt: T0, Imm: 0x1234}, 0x3c081234},
		{Inst{Op: LB, Rt: T0, Rs: A0, Imm: -1}, 0x8088ffff},
		{Inst{Op: LBU, Rt: V0, Rs: T1, Imm: 3}, 0x91220003},
		{Inst{Op: LH, Rt: T0, Rs: SP, Imm: 2}, 0x87a80002},
		{Inst{Op: LHU, Rt: T1, Rs: T0, Imm: 6}, 0x95090006},
		{Inst{Op: LW, Rt: T0, Rs: SP, Imm: 4}, 0x8fa80004},
		{Inst{Op: SB, Rt: T0, Rs: A0, Imm: 0}, 0xa0880000},
		{Inst{Op: SH, Rt: T1, Rs: SP, Imm: -2}, 0xa7a9fffe},
		{Inst{Op: SW, Rt: RA, Rs: SP, Imm: 0}, 0xafbf0000},
		{Inst{Op: BEQ, Rs: T0, Rt: Zero, Imm: 3}, 0x11000003},
		{Inst{Op: BNE, Rs: T0, Rt: T1, Imm: -2}, 0x1509fffe},
		{Inst{Op: BLEZ, Rs: A0, Imm: 4}, 0x18800004},
		{Inst{Op: BGTZ, Rs: T1, Imm: -3}, 0x1d20fffd},
		{Inst{Op: BLTZ, Rs: T0, Imm: -1}, 0x0500ffff},
		{Inst{Op: BGEZ, Rs: T0, Imm: 5}, 0x05010005},
		{Inst{Op: J, Target: 0x00400000}, 0x08100000},
		{Inst{Op: JAL, Target: 0x00400008}, 0x0c100002},
	}
	seen := map[Op]bool{}
	for _, c := range cases {
		w, err := Encode(c.inst)
		if err != nil {
			t.Fatalf("Encode(%v): %v", c.inst, err)
		}
		if w != c.word {
			t.Errorf("Encode(%v) = 0x%08x, want 0x%08x", c.inst, w, c.word)
		}
		back, err := Decode(c.word)
		if err != nil {
			t.Fatalf("Decode(0x%08x): %v", c.word, err)
		}
		if back != c.inst {
			t.Errorf("Decode(0x%08x) = %+v, want %+v", c.word, back, c.inst)
		}
		seen[c.inst.Op] = true
	}
	for o := Op(0); o < numOps; o++ {
		if !seen[o] {
			t.Errorf("no hand-checked word for %v", o)
		}
	}
}

// randomInst builds a random but encodable instruction.
func randomInst(r *rand.Rand) Inst {
	for {
		if in, ok := randomInstOf(r, Op(r.Intn(int(numOps)))); ok {
			return in
		}
	}
}

// randomInstOf builds a random encodable instruction with the given op.
// It reports false for a draw that does not round-trip: an SLL that
// encodes as the canonical NOP word.
func randomInstOf(r *rand.Rand, op Op) (Inst, bool) {
	in := Inst{Op: op}
	reg := func() Reg { return Reg(r.Intn(32)) }
	switch op {
	case NOP, BREAK:
	case ADD, ADDU, SUB, SUBU, AND, OR, XOR, NOR, SLT, SLTU, SLLV, SRLV, SRAV:
		in.Rd, in.Rs, in.Rt = reg(), reg(), reg()
	case SLL, SRL, SRA:
		in.Rd, in.Rt, in.Imm = reg(), reg(), int32(r.Intn(32))
	case MULT, MULTU, DIV, DIVU:
		in.Rs, in.Rt = reg(), reg()
	case MFHI, MFLO:
		in.Rd = reg()
	case MTHI, MTLO, JR:
		in.Rs = reg()
	case JALR:
		in.Rd, in.Rs = reg(), reg()
	case ADDI, ADDIU, SLTI, SLTIU:
		in.Rt, in.Rs, in.Imm = reg(), reg(), int32(int16(r.Uint32()))
	case ANDI, ORI, XORI:
		in.Rt, in.Rs, in.Imm = reg(), reg(), int32(r.Intn(0x10000))
	case LUI:
		in.Rt, in.Imm = reg(), int32(r.Intn(0x10000))
	case LB, LBU, LH, LHU, LW, SB, SH, SW:
		in.Rt, in.Rs, in.Imm = reg(), reg(), int32(int16(r.Uint32()))
	case BEQ, BNE:
		in.Rs, in.Rt, in.Imm = reg(), reg(), int32(int16(r.Uint32()))
	case BLEZ, BGTZ, BLTZ, BGEZ:
		in.Rs, in.Imm = reg(), int32(int16(r.Uint32()))
	case J, JAL:
		in.Target = uint32(r.Intn(1<<26)) << 2
	default:
		return in, false
	}
	// NOP has a canonical zero encoding; SLL $zero,... variants decode
	// back to NOP.
	return in, !(op == SLL && in.Rd == Zero && in.Rt == Zero && in.Imm == 0)
}

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func() bool {
		in := randomInst(r)
		w, err := Encode(in)
		if err != nil {
			t.Logf("Encode(%v): %v", in, err)
			return false
		}
		back, err := Decode(w)
		if err != nil {
			t.Logf("Decode(0x%08x): %v", w, err)
			return false
		}
		if back != in {
			t.Logf("round trip %+v -> 0x%08x -> %+v", in, w, back)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestDecodeUnknownWord(t *testing.T) {
	// Opcode 0x3f does not exist in our subset.
	if _, err := Decode(0xfc000000); err == nil {
		t.Error("Decode(0xfc000000) succeeded, want error")
	}
	// SPECIAL with unknown funct.
	if _, err := Decode(0x0000003f); err == nil {
		t.Error("Decode of unknown funct succeeded, want error")
	}
}

func TestEncodeRangeErrors(t *testing.T) {
	bad := []Inst{
		{Op: ADDIU, Rt: T0, Rs: T0, Imm: 40000},
		{Op: ADDIU, Rt: T0, Rs: T0, Imm: -40000},
		{Op: ANDI, Rt: T0, Rs: T0, Imm: -1},
		{Op: LW, Rt: T0, Rs: SP, Imm: 1 << 20},
		{Op: SLL, Rd: T0, Rt: T0, Imm: 32},
	}
	for _, in := range bad {
		if _, err := Encode(in); err == nil {
			t.Errorf("Encode(%v) succeeded, want range error", in)
		}
	}
}

func TestInstPredicates(t *testing.T) {
	if !(Inst{Op: BEQ}).IsBranch() || (Inst{Op: J}).IsBranch() {
		t.Error("IsBranch misclassifies")
	}
	if !(Inst{Op: BREAK}).EndsBlock() || (Inst{Op: ADD}).EndsBlock() {
		t.Error("EndsBlock misclassifies")
	}
}

func TestInstDest(t *testing.T) {
	cases := []struct {
		in  Inst
		reg Reg
		ok  bool
	}{
		{Inst{Op: ADDU, Rd: T3}, T3, true},
		{Inst{Op: ADDIU, Rt: S0}, S0, true},
		{Inst{Op: LW, Rt: V0}, V0, true},
		{Inst{Op: JAL}, RA, true},
		{Inst{Op: SW, Rt: T0}, 0, false},
		{Inst{Op: BEQ}, 0, false},
		{Inst{Op: MULT}, 0, false},
		{Inst{Op: MFLO, Rd: T1}, T1, true},
	}
	for _, c := range cases {
		r, ok := c.in.Dest()
		if ok != c.ok || (ok && r != c.reg) {
			t.Errorf("Dest(%v) = %v,%v want %v,%v", c.in, r, ok, c.reg, c.ok)
		}
	}
}

func TestAssembleBasic(t *testing.T) {
	src := `
		# sum the numbers 1..10 into $t0
		li   $t0, 0
		li   $t1, 10
	loop:
		addu $t0, $t0, $t1
		addiu $t1, $t1, -1
		bgtz $t1, loop
		break
	`
	insts, labels, err := Assemble(src, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 6 {
		t.Fatalf("got %d instructions, want 6", len(insts))
	}
	if labels["loop"] != 0x1008 {
		t.Errorf("label loop = 0x%x, want 0x1008", labels["loop"])
	}
	// bgtz is at 0x1010; branch to 0x1008 means offset (0x1008-0x1014)/4 = -3.
	if insts[4].Op != BGTZ || insts[4].Imm != -3 {
		t.Errorf("bgtz = %+v, want offset -3", insts[4])
	}
	if insts[0].Op != ADDIU || insts[0].Rs != Zero {
		t.Errorf("li expanded to %+v", insts[0])
	}
}

func TestAssembleMemAndJumps(t *testing.T) {
	src := `
	start:
		lw $t0, 8($sp)
		sw $t0, -4($fp)
		jal start
		jr $ra
	`
	insts, labels, err := Assemble(src, 0x400000)
	if err != nil {
		t.Fatal(err)
	}
	if insts[0].Imm != 8 || insts[0].Rs != SP {
		t.Errorf("lw parsed as %+v", insts[0])
	}
	if insts[1].Imm != -4 || insts[1].Rs != FP {
		t.Errorf("sw parsed as %+v", insts[1])
	}
	if insts[2].Target != labels["start"] {
		t.Errorf("jal target 0x%x, want 0x%x", insts[2].Target, labels["start"])
	}
}

func TestAssembleErrors(t *testing.T) {
	bad := []string{
		"frobnicate $t0",
		"addu $t0, $t1",
		"lw $t0, $t1",
		"beq $t0, $t1, nowhere",
		"addu $t0, $t1, $t9x",
		"dup: \n dup: nop",
		"li $t0, 100000",
	}
	for _, src := range bad {
		if _, _, err := Assemble(src, 0); err == nil {
			t.Errorf("Assemble(%q) succeeded, want error", src)
		}
	}
}

func TestAssembleWords(t *testing.T) {
	words, err := AssembleWords("jr $ra", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(words) != 1 || words[0] != 0x03e00008 {
		t.Errorf("AssembleWords = %#v, want [0x03e00008]", words)
	}
}

func TestDisassemblyStrings(t *testing.T) {
	// One line per operand layout in the opcode table.
	cases := map[string]Inst{
		"nop":                 {Op: NOP},
		"addu $t0, $t1, $t2":  {Op: ADDU, Rd: T0, Rs: T1, Rt: T2},
		"sllv $t0, $t1, $t2":  {Op: SLLV, Rd: T0, Rt: T1, Rs: T2},
		"sll $t0, $t1, 2":     {Op: SLL, Rd: T0, Rt: T1, Imm: 2},
		"mult $t0, $t1":       {Op: MULT, Rs: T0, Rt: T1},
		"mflo $t0":            {Op: MFLO, Rd: T0},
		"jr $ra":              {Op: JR, Rs: RA},
		"jalr $ra, $t9":       {Op: JALR, Rd: RA, Rs: T9},
		"addiu $sp, $sp, -8":  {Op: ADDIU, Rt: SP, Rs: SP, Imm: -8},
		"ori $t0, $t0, 22136": {Op: ORI, Rt: T0, Rs: T0, Imm: 0x5678},
		"lui $t0, 4660":       {Op: LUI, Rt: T0, Imm: 0x1234},
		"lw $t0, 4($sp)":      {Op: LW, Rt: T0, Rs: SP, Imm: 4},
		"beq $t0, $zero, +3":  {Op: BEQ, Rs: T0, Rt: Zero, Imm: 3},
		"bltz $t0, -1":        {Op: BLTZ, Rs: T0, Imm: -1},
		"j 0x400000":          {Op: J, Target: 0x400000},
		"<bad 200>":           {Op: 200},
	}
	for want, in := range cases {
		if got := in.String(); got != want {
			t.Errorf("String(%+v) = %q, want %q", in, got, want)
		}
	}
}

// TestDisasmAssembleRoundTrip feeds each instruction's disassembly back
// through the assembler and requires the same instruction, for every form
// the assembler can represent (branches print relative offsets and jumps
// absolute addresses, both of which parse back).
func TestDisasmAssembleRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	skip := func(in Inst) bool {
		// The disassembler prints branch offsets as "+n" relative form,
		// which the assembler accepts; nothing to skip except NOP-encoded
		// collisions already avoided by randomInst.
		return false
	}
	for i := 0; i < 3000; i++ {
		in := randomInst(r)
		if skip(in) {
			continue
		}
		text := in.String()
		back, _, err := Assemble(text, 0)
		if err != nil {
			t.Fatalf("Assemble(%q): %v", text, err)
		}
		if len(back) != 1 {
			t.Fatalf("Assemble(%q) produced %d instructions", text, len(back))
		}
		if back[0] != in {
			t.Fatalf("round trip %q: %+v -> %+v", text, in, back[0])
		}
	}
}

func TestAssemblerPseudoOps(t *testing.T) {
	insts, _, err := Assemble("move $t0, $t1\nli $t2, -5", 0)
	if err != nil {
		t.Fatal(err)
	}
	if insts[0].Op != ADDU || insts[0].Rd != T0 || insts[0].Rs != T1 || insts[0].Rt != Zero {
		t.Errorf("move expanded to %+v", insts[0])
	}
	if insts[1].Op != ADDIU || insts[1].Rt != T2 || insts[1].Imm != -5 {
		t.Errorf("li expanded to %+v", insts[1])
	}
}

func TestAssemblerNumericAndAliasRegs(t *testing.T) {
	insts, _, err := Assemble("addu $8, $9, $10\naddu $t0, $s8, $fp", 0)
	if err != nil {
		t.Fatal(err)
	}
	if insts[0].Rd != T0 || insts[0].Rs != T1 || insts[0].Rt != T2 {
		t.Errorf("numeric registers parsed as %+v", insts[0])
	}
	if insts[1].Rs != FP || insts[1].Rt != FP {
		t.Errorf("$s8 alias parsed as %+v", insts[1])
	}
}

func TestAssemblerJALRForms(t *testing.T) {
	insts, _, err := Assemble("jalr $t9\njalr $t0, $t9", 0)
	if err != nil {
		t.Fatal(err)
	}
	if insts[0].Rd != RA || insts[0].Rs != T9 {
		t.Errorf("jalr 1-operand parsed as %+v", insts[0])
	}
	if insts[1].Rd != T0 || insts[1].Rs != T9 {
		t.Errorf("jalr 2-operand parsed as %+v", insts[1])
	}
}
