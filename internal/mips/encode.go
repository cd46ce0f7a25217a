package mips

import "fmt"

// The two primary opcodes whose instructions are told apart by a second
// field: SPECIAL by funct (bits 5-0), REGIMM by rt (bits 20-16).
const (
	special = 0x00
	regimm  = 0x01
)

// fieldSet is the operand fields one opcode's layout occupies, worked
// out from the table once so Decode does not walk the layout per word.
type fieldSet struct {
	rd, rs, rt uint32 // 0x1f where the layout has the register, else 0
	imm        byte   // the layout's immediate letter (a, i, u, b, j), or 0
}

// Decode's lookup tables, inverted once from ops: the Op for each SPECIAL
// funct, REGIMM rt and other primary opcode, and each Op's fields. NOP
// (the zero Op) marks an encoding the table does not cover; it is the
// all-zero word, which Decode tests before the tables.
var bySpecial, byRegimm, byOpcode, fields = decodeTables()

func decodeTables() (bySpecial, byRegimm, byOpcode [64]Op, fields [numOps]fieldSet) {
	for o := NOP + 1; o < numOps; o++ {
		info := &ops[o]
		switch info.opcode {
		case special:
			bySpecial[info.sub] = o
		case regimm:
			byRegimm[info.sub] = o
		default:
			byOpcode[info.opcode] = o
		}
		f := &fields[o]
		for _, c := range []byte(info.layout) {
			switch c {
			case 'd':
				f.rd = 0x1f
			case 's':
				f.rs = 0x1f
			case 't':
				f.rt = 0x1f
			case 'm':
				f.rs, f.imm = 0x1f, 'i'
			default:
				f.imm = c
			}
		}
	}
	return bySpecial, byRegimm, byOpcode, fields
}

// Encode converts the instruction to its 32-bit machine encoding.
func Encode(i Inst) (uint32, error) {
	if i.Op >= numOps {
		return 0, fmt.Errorf("mips: cannot encode %v", i)
	}
	info := &ops[i.Op]
	w := uint32(info.opcode) << 26
	switch info.opcode {
	case special:
		w |= uint32(info.sub)
	case regimm:
		w |= uint32(info.sub) << 16
	}
	for k := 0; k < len(info.layout); k++ {
		switch info.layout[k] {
		case 'd':
			w |= uint32(i.Rd) << 11
		case 's':
			w |= uint32(i.Rs) << 21
		case 't':
			w |= uint32(i.Rt) << 16
		case 'a':
			if i.Imm < 0 || i.Imm > 31 {
				return 0, fmt.Errorf("mips: %s shift amount %d out of range", i.Op, i.Imm)
			}
			w |= uint32(i.Imm) << 6
		case 'i':
			if i.Imm < -32768 || i.Imm > 32767 {
				return 0, fmt.Errorf("mips: %s immediate %d not a 16-bit signed value", i.Op, i.Imm)
			}
			w |= uint32(uint16(i.Imm))
		case 'u':
			if i.Imm < 0 || i.Imm > 0xffff {
				return 0, fmt.Errorf("mips: %s immediate %d not a 16-bit unsigned value", i.Op, i.Imm)
			}
			w |= uint32(i.Imm)
		case 'm':
			if i.Imm < -32768 || i.Imm > 32767 {
				return 0, fmt.Errorf("mips: %s offset %d out of range", i.Op, i.Imm)
			}
			w |= uint32(i.Rs)<<21 | uint32(uint16(i.Imm))
		case 'b':
			w |= uint32(uint16(i.Imm))
		case 'j':
			w |= i.Target >> 2 & 0x03ffffff
		}
	}
	return w, nil
}

// Decode converts a 32-bit machine word to an instruction.
func Decode(w uint32) (Inst, error) {
	var o Op
	switch op := w >> 26; op {
	case special:
		if w == 0 {
			return Inst{Op: NOP}, nil
		}
		if o = bySpecial[w&0x3f]; o == NOP {
			return Inst{}, fmt.Errorf("mips: unknown SPECIAL funct 0x%02x in word 0x%08x", w&0x3f, w)
		}
	case regimm:
		if o = byRegimm[w>>16&0x1f]; o == NOP {
			return Inst{}, fmt.Errorf("mips: unknown REGIMM rt %d in word 0x%08x", w>>16&0x1f, w)
		}
	default:
		if o = byOpcode[op]; o == NOP {
			return Inst{}, fmt.Errorf("mips: unknown opcode 0x%02x in word 0x%08x", op, w)
		}
	}
	f := &fields[o]
	var imm int32
	var target uint32
	switch f.imm {
	case 'a':
		imm = int32(w >> 6 & 0x1f)
	case 'i', 'b':
		imm = int32(int16(w))
	case 'u':
		imm = int32(w & 0xffff)
	case 'j':
		target = w << 6 >> 4
	}
	return Inst{Op: o, Rd: Reg(w >> 11 & f.rd), Rs: Reg(w >> 21 & f.rs), Rt: Reg(w >> 16 & f.rt), Imm: imm, Target: target}, nil
}
