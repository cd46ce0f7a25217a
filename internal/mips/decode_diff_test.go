package mips

import (
	"fmt"
	"math/rand"
	"testing"
)

// The encoding numbers and maps decodeByScan reads, as the package
// defined them before the opcode table replaced them, so the reference
// stays independent of that table.

// MIPS primary opcodes and R-type function codes for the supported subset.
const (
	opSpecial = 0x00
	opRegimm  = 0x01
	opJ       = 0x02
	opJAL     = 0x03
	opBEQ     = 0x04
	opBNE     = 0x05
	opBLEZ    = 0x06
	opBGTZ    = 0x07
	opADDI    = 0x08
	opADDIU   = 0x09
	opSLTI    = 0x0a
	opSLTIU   = 0x0b
	opANDI    = 0x0c
	opORI     = 0x0d
	opXORI    = 0x0e
	opLUI     = 0x0f
	opLB      = 0x20
	opLH      = 0x21
	opLW      = 0x23
	opLBU     = 0x24
	opLHU     = 0x25
	opSB      = 0x28
	opSH      = 0x29
	opSW      = 0x2b

	fnSLL   = 0x00
	fnSRL   = 0x02
	fnSRA   = 0x03
	fnSLLV  = 0x04
	fnSRLV  = 0x06
	fnSRAV  = 0x07
	fnJR    = 0x08
	fnJALR  = 0x09
	fnBREAK = 0x0d
	fnMFHI  = 0x10
	fnMTHI  = 0x11
	fnMFLO  = 0x12
	fnMTLO  = 0x13
	fnMULT  = 0x18
	fnMULTU = 0x19
	fnDIV   = 0x1a
	fnDIVU  = 0x1b
	fnADD   = 0x20
	fnADDU  = 0x21
	fnSUB   = 0x22
	fnSUBU  = 0x23
	fnAND   = 0x24
	fnOR    = 0x25
	fnXOR   = 0x26
	fnNOR   = 0x27
	fnSLT   = 0x2a
	fnSLTU  = 0x2b

	rtBLTZ = 0x00
	rtBGEZ = 0x01
)

var rfuncts = map[Op]uint32{
	ADD: fnADD, ADDU: fnADDU, SUB: fnSUB, SUBU: fnSUBU,
	AND: fnAND, OR: fnOR, XOR: fnXOR, NOR: fnNOR, SLT: fnSLT, SLTU: fnSLTU,
	SLLV: fnSLLV, SRLV: fnSRLV, SRAV: fnSRAV,
}

var immOps = map[Op]uint32{
	ADDI: opADDI, ADDIU: opADDIU, SLTI: opSLTI, SLTIU: opSLTIU,
	ANDI: opANDI, ORI: opORI, XORI: opXORI,
}

var memOps = map[Op]uint32{
	LB: opLB, LBU: opLBU, LH: opLH, LHU: opLHU, LW: opLW,
	SB: opSB, SH: opSH, SW: opSW,
}

// decodeByScan is the map-scanning decoder Decode replaced, kept as the
// reference it is checked against: after the explicit cases it ranges
// over the encode maps (rfuncts, immOps, memOps) instead of indexing the
// tables inverted from them.
func decodeByScan(w uint32) (Inst, error) {
	op := w >> 26
	rs := Reg(w >> 21 & 0x1f)
	rt := Reg(w >> 16 & 0x1f)
	rd := Reg(w >> 11 & 0x1f)
	shamt := int32(w >> 6 & 0x1f)
	simm := int32(int16(w & 0xffff))
	uimm := int32(w & 0xffff)

	switch op {
	case opSpecial:
		fn := w & 0x3f
		switch fn {
		case fnSLL:
			if w == 0 {
				return Inst{Op: NOP}, nil
			}
			return Inst{Op: SLL, Rd: rd, Rt: rt, Imm: shamt}, nil
		case fnSRL:
			return Inst{Op: SRL, Rd: rd, Rt: rt, Imm: shamt}, nil
		case fnSRA:
			return Inst{Op: SRA, Rd: rd, Rt: rt, Imm: shamt}, nil
		case fnSLLV:
			return Inst{Op: SLLV, Rd: rd, Rs: rs, Rt: rt}, nil
		case fnSRLV:
			return Inst{Op: SRLV, Rd: rd, Rs: rs, Rt: rt}, nil
		case fnSRAV:
			return Inst{Op: SRAV, Rd: rd, Rs: rs, Rt: rt}, nil
		case fnJR:
			return Inst{Op: JR, Rs: rs}, nil
		case fnJALR:
			return Inst{Op: JALR, Rd: rd, Rs: rs}, nil
		case fnBREAK:
			return Inst{Op: BREAK}, nil
		case fnMFHI:
			return Inst{Op: MFHI, Rd: rd}, nil
		case fnMTHI:
			return Inst{Op: MTHI, Rs: rs}, nil
		case fnMFLO:
			return Inst{Op: MFLO, Rd: rd}, nil
		case fnMTLO:
			return Inst{Op: MTLO, Rs: rs}, nil
		case fnMULT:
			return Inst{Op: MULT, Rs: rs, Rt: rt}, nil
		case fnMULTU:
			return Inst{Op: MULTU, Rs: rs, Rt: rt}, nil
		case fnDIV:
			return Inst{Op: DIV, Rs: rs, Rt: rt}, nil
		case fnDIVU:
			return Inst{Op: DIVU, Rs: rs, Rt: rt}, nil
		}
		for o, f := range rfuncts {
			if f == fn {
				return Inst{Op: o, Rd: rd, Rs: rs, Rt: rt}, nil
			}
		}
		return Inst{}, fmt.Errorf("mips: unknown SPECIAL funct 0x%02x in word 0x%08x", fn, w)
	case opRegimm:
		switch uint32(rt) {
		case rtBLTZ:
			return Inst{Op: BLTZ, Rs: rs, Imm: simm}, nil
		case rtBGEZ:
			return Inst{Op: BGEZ, Rs: rs, Imm: simm}, nil
		}
		return Inst{}, fmt.Errorf("mips: unknown REGIMM rt %d in word 0x%08x", rt, w)
	case opJ:
		return Inst{Op: J, Target: w << 6 >> 4}, nil
	case opJAL:
		return Inst{Op: JAL, Target: w << 6 >> 4}, nil
	case opBEQ:
		return Inst{Op: BEQ, Rs: rs, Rt: rt, Imm: simm}, nil
	case opBNE:
		return Inst{Op: BNE, Rs: rs, Rt: rt, Imm: simm}, nil
	case opBLEZ:
		return Inst{Op: BLEZ, Rs: rs, Imm: simm}, nil
	case opBGTZ:
		return Inst{Op: BGTZ, Rs: rs, Imm: simm}, nil
	case opLUI:
		return Inst{Op: LUI, Rt: rt, Imm: uimm}, nil
	}
	for o, code := range immOps {
		if code == op {
			imm := simm
			if o == ANDI || o == ORI || o == XORI {
				imm = uimm
			}
			return Inst{Op: o, Rs: rs, Rt: rt, Imm: imm}, nil
		}
	}
	for o, code := range memOps {
		if code == op {
			return Inst{Op: o, Rs: rs, Rt: rt, Imm: simm}, nil
		}
	}
	return Inst{}, fmt.Errorf("mips: unknown opcode 0x%02x in word 0x%08x", op, w)
}

// sameDecode fails t unless Decode and decodeByScan agree on w: the same
// instruction, or errors with the same text.
func sameDecode(t *testing.T, w uint32) {
	t.Helper()
	got, gerr := Decode(w)
	want, werr := decodeByScan(w)
	switch {
	case (gerr == nil) != (werr == nil):
		t.Fatalf("Decode(0x%08x) error %v, reference %v", w, gerr, werr)
	case gerr != nil && gerr.Error() != werr.Error():
		t.Fatalf("Decode(0x%08x) error %q, reference %q", w, gerr, werr)
	case got != want:
		t.Fatalf("Decode(0x%08x) = %+v, reference %+v", w, got, want)
	}
}

// TestDecodeMatchesScan checks the table-driven decoder against the
// map-scanning reference over every primary opcode × SPECIAL funct ×
// REGIMM rt value. Each word also takes several rs values and bit
// patterns in bits 6-15 (rd and shamt, which are the upper ten bits of
// an I-type immediate), so immediates vary in sign and magnitude.
func TestDecodeMatchesScan(t *testing.T) {
	fields := []uint32{
		0,
		31<<21 | 0xffc0, // all ones: immediates -64..-1
		5<<21 | 0x88c0,  // mixed, negative
		1<<21 | 0x8000,  // only the sign bit: -32768..-32705
		29<<21 | 0x7fc0, // sp base, immediates 32704..32767
	}
	n := 0
	for op := uint32(0); op < 64; op++ {
		for fn := uint32(0); fn < 64; fn++ {
			for rt := uint32(0); rt < 32; rt++ {
				for _, f := range fields {
					sameDecode(t, op<<26|rt<<16|f|fn)
					n++
				}
			}
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		sameDecode(t, r.Uint32())
		n++
	}
	t.Logf("%d words decode identically", n)
}

// TestDecodeUnknownErrorText pins the error text for each kind of
// unknown encoding.
func TestDecodeUnknownErrorText(t *testing.T) {
	for w, want := range map[uint32]string{
		0xfc000000: "mips: unknown opcode 0x3f in word 0xfc000000",
		0x0000003f: "mips: unknown SPECIAL funct 0x3f in word 0x0000003f",
		0x04050000: "mips: unknown REGIMM rt 5 in word 0x04050000",
	} {
		if _, err := Decode(w); err == nil || err.Error() != want {
			t.Errorf("Decode(0x%08x) error %v, want %q", w, err, want)
		}
		sameDecode(t, w)
	}
}

// TestEncodeDecodeEveryOp round-trips random operands of every Op
// through Encode and Decode.
func TestEncodeDecodeEveryOp(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for op := Op(0); op < numOps; op++ {
		for k := 0; k < 64; k++ {
			in, ok := randomInstOf(r, op)
			if !ok {
				continue
			}
			w, err := Encode(in)
			if err != nil {
				t.Fatalf("Encode(%+v): %v", in, err)
			}
			back, err := Decode(w)
			if err != nil || back != in {
				t.Fatalf("%v: %+v -> 0x%08x -> %+v, %v", op, in, w, back, err)
			}
			sameDecode(t, w)
		}
	}
}
