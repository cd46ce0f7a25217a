package sim

import (
	"fmt"

	"binpart/internal/binimg"
	"binpart/internal/mips"
)

// This file preserves the original per-instruction stepper — map-backed
// paged memory with byte-wise accesses, closure register writes, and
// map-based profile counters — exactly as it shipped before the fast
// interpreter replaced it as Machine.Run. It is the semantic baseline:
// the differential tests run every benchmark through both steppers and
// assert identical Steps, Cycles, ExitCode, and profile maps. It is
// deliberately not optimized; do not "improve" it.

// refMachine is the reference machine state.
type refMachine struct {
	cfg   Config
	img   *binimg.Image
	code  []mips.Inst
	regs  [32]uint32
	hi    uint32
	lo    uint32
	pc    uint32
	pages map[uint32][]byte
	prof  *Profile
}

const refPageBits = 12

// ExecuteReference loads img and runs it with the original reference
// stepper. Semantics (including error conditions hit mid-run) match the
// pre-fast-path simulator bit for bit.
func ExecuteReference(img *binimg.Image, cfg Config) (Result, error) {
	m := &refMachine{cfg: cfg, img: img, pages: make(map[uint32][]byte)}
	m.code = make([]mips.Inst, len(img.Text))
	for i, w := range img.Text {
		in, err := mips.Decode(w)
		if err != nil {
			return Result{}, fmt.Errorf("sim: text word %d: %w", i, err)
		}
		m.code[i] = in
	}
	for i, b := range img.Data {
		m.storeByte(img.DataBase+uint32(i), b)
	}
	m.pc = img.Entry
	m.regs[mips.SP] = binimg.DefaultStackTop
	if cfg.Profile {
		m.prof = &Profile{
			InstCount: make(map[uint32]uint64),
			EdgeCount: make(map[Edge]uint64),
		}
	}
	return m.run()
}

func (m *refMachine) page(addr uint32) []byte {
	pn := addr >> refPageBits
	p, ok := m.pages[pn]
	if !ok {
		p = make([]byte, 1<<refPageBits)
		m.pages[pn] = p
	}
	return p
}

func (m *refMachine) storeByte(addr uint32, b byte) {
	m.page(addr)[addr&(1<<refPageBits-1)] = b
}

func (m *refMachine) loadByte(addr uint32) byte {
	return m.page(addr)[addr&(1<<refPageBits-1)]
}

func (m *refMachine) load(addr uint32, width int) (uint32, error) {
	if addr < 0x1000 {
		return 0, fmt.Errorf("sim: load from near-null address 0x%x", addr)
	}
	if uint32(width) > 1 && addr%uint32(width) != 0 {
		return 0, fmt.Errorf("sim: misaligned %d-byte load at 0x%x", width, addr)
	}
	var v uint32
	for i := 0; i < width; i++ {
		v |= uint32(m.loadByte(addr+uint32(i))) << (8 * i)
	}
	return v, nil
}

func (m *refMachine) store(addr uint32, v uint32, width int) error {
	if addr < 0x1000 {
		return fmt.Errorf("sim: store to near-null address 0x%x", addr)
	}
	if uint32(width) > 1 && addr%uint32(width) != 0 {
		return fmt.Errorf("sim: misaligned %d-byte store at 0x%x", width, addr)
	}
	if m.img.InText(addr) {
		return fmt.Errorf("sim: store into text section at 0x%x", addr)
	}
	for i := 0; i < width; i++ {
		m.storeByte(addr+uint32(i), byte(v>>(8*i)))
	}
	return nil
}

func (m *refMachine) run() (Result, error) {
	var res Result
	maxSteps := m.cfg.MaxSteps
	if maxSteps == 0 {
		maxSteps = DefaultConfig().MaxSteps
	}
	for res.Steps < maxSteps {
		if !m.img.InText(m.pc) || m.pc%4 != 0 {
			return res, fmt.Errorf("sim: PC 0x%x outside text", m.pc)
		}
		idx := (m.pc - m.img.TextBase) / 4
		in := m.code[idx]
		if m.prof != nil {
			m.prof.InstCount[m.pc]++
		}
		res.Steps++

		next := m.pc + 4
		taken := uint32(0)
		hasTarget := false

		rs := m.regs[in.Rs]
		rt := m.regs[in.Rt]
		setRd := func(v uint32) {
			if in.Rd != 0 {
				m.regs[in.Rd] = v
			}
		}
		setRt := func(v uint32) {
			if in.Rt != 0 {
				m.regs[in.Rt] = v
			}
		}

		switch in.Op {
		case mips.NOP:
			res.Cycles += cyclesALU
		case mips.BREAK:
			res.Cycles += cyclesALU
			res.ExitCode = int32(m.regs[mips.V0])
			res.Profile = m.prof
			return res, nil
		case mips.ADD, mips.ADDU:
			setRd(rs + rt)
			res.Cycles += cyclesALU
		case mips.SUB, mips.SUBU:
			setRd(rs - rt)
			res.Cycles += cyclesALU
		case mips.AND:
			setRd(rs & rt)
			res.Cycles += cyclesALU
		case mips.OR:
			setRd(rs | rt)
			res.Cycles += cyclesALU
		case mips.XOR:
			setRd(rs ^ rt)
			res.Cycles += cyclesALU
		case mips.NOR:
			setRd(^(rs | rt))
			res.Cycles += cyclesALU
		case mips.SLT:
			setRd(b2u(int32(rs) < int32(rt)))
			res.Cycles += cyclesALU
		case mips.SLTU:
			setRd(b2u(rs < rt))
			res.Cycles += cyclesALU
		case mips.SLL:
			setRd(rt << uint32(in.Imm))
			res.Cycles += cyclesALU
		case mips.SRL:
			setRd(rt >> uint32(in.Imm))
			res.Cycles += cyclesALU
		case mips.SRA:
			setRd(uint32(int32(rt) >> uint32(in.Imm)))
			res.Cycles += cyclesALU
		case mips.SLLV:
			setRd(rt << (rs & 31))
			res.Cycles += cyclesALU
		case mips.SRLV:
			setRd(rt >> (rs & 31))
			res.Cycles += cyclesALU
		case mips.SRAV:
			setRd(uint32(int32(rt) >> (rs & 31)))
			res.Cycles += cyclesALU
		case mips.MULT:
			p := int64(int32(rs)) * int64(int32(rt))
			m.lo, m.hi = uint32(p), uint32(uint64(p)>>32)
			res.Cycles += cyclesMult
		case mips.MULTU:
			p := uint64(rs) * uint64(rt)
			m.lo, m.hi = uint32(p), uint32(p>>32)
			res.Cycles += cyclesMult
		case mips.DIV:
			if rt == 0 {
				m.lo, m.hi = 0, rs // architecturally undefined; pick stable values
			} else if int32(rs) == -1<<31 && int32(rt) == -1 {
				m.lo, m.hi = rs, 0
			} else {
				m.lo = uint32(int32(rs) / int32(rt))
				m.hi = uint32(int32(rs) % int32(rt))
			}
			res.Cycles += cyclesDiv
		case mips.DIVU:
			if rt == 0 {
				m.lo, m.hi = 0, rs
			} else {
				m.lo, m.hi = rs/rt, rs%rt
			}
			res.Cycles += cyclesDiv
		case mips.MFHI:
			setRd(m.hi)
			res.Cycles += cyclesALU
		case mips.MFLO:
			setRd(m.lo)
			res.Cycles += cyclesALU
		case mips.MTHI:
			m.hi = rs
			res.Cycles += cyclesALU
		case mips.MTLO:
			m.lo = rs
			res.Cycles += cyclesALU
		case mips.ADDI, mips.ADDIU:
			setRt(rs + uint32(in.Imm))
			res.Cycles += cyclesALU
		case mips.SLTI:
			setRt(b2u(int32(rs) < in.Imm))
			res.Cycles += cyclesALU
		case mips.SLTIU:
			setRt(b2u(rs < uint32(in.Imm)))
			res.Cycles += cyclesALU
		case mips.ANDI:
			setRt(rs & uint32(uint16(in.Imm)))
			res.Cycles += cyclesALU
		case mips.ORI:
			setRt(rs | uint32(uint16(in.Imm)))
			res.Cycles += cyclesALU
		case mips.XORI:
			setRt(rs ^ uint32(uint16(in.Imm)))
			res.Cycles += cyclesALU
		case mips.LUI:
			setRt(uint32(in.Imm) << 16)
			res.Cycles += cyclesALU
		case mips.LB:
			v, err := m.load(rs+uint32(in.Imm), 1)
			if err != nil {
				return res, err
			}
			setRt(uint32(int32(int8(v))))
			res.Cycles += cyclesLoad
		case mips.LBU:
			v, err := m.load(rs+uint32(in.Imm), 1)
			if err != nil {
				return res, err
			}
			setRt(v)
			res.Cycles += cyclesLoad
		case mips.LH:
			v, err := m.load(rs+uint32(in.Imm), 2)
			if err != nil {
				return res, err
			}
			setRt(uint32(int32(int16(v))))
			res.Cycles += cyclesLoad
		case mips.LHU:
			v, err := m.load(rs+uint32(in.Imm), 2)
			if err != nil {
				return res, err
			}
			setRt(v)
			res.Cycles += cyclesLoad
		case mips.LW:
			v, err := m.load(rs+uint32(in.Imm), 4)
			if err != nil {
				return res, err
			}
			setRt(v)
			res.Cycles += cyclesLoad
		case mips.SB:
			if err := m.store(rs+uint32(in.Imm), rt, 1); err != nil {
				return res, err
			}
			res.Cycles += cyclesStore
		case mips.SH:
			if err := m.store(rs+uint32(in.Imm), rt, 2); err != nil {
				return res, err
			}
			res.Cycles += cyclesStore
		case mips.SW:
			if err := m.store(rs+uint32(in.Imm), rt, 4); err != nil {
				return res, err
			}
			res.Cycles += cyclesStore
		case mips.BEQ:
			if rs == rt {
				taken, hasTarget = m.pc+4+uint32(in.Imm)*4, true
			}
		case mips.BNE:
			if rs != rt {
				taken, hasTarget = m.pc+4+uint32(in.Imm)*4, true
			}
		case mips.BLEZ:
			if int32(rs) <= 0 {
				taken, hasTarget = m.pc+4+uint32(in.Imm)*4, true
			}
		case mips.BGTZ:
			if int32(rs) > 0 {
				taken, hasTarget = m.pc+4+uint32(in.Imm)*4, true
			}
		case mips.BLTZ:
			if int32(rs) < 0 {
				taken, hasTarget = m.pc+4+uint32(in.Imm)*4, true
			}
		case mips.BGEZ:
			if int32(rs) >= 0 {
				taken, hasTarget = m.pc+4+uint32(in.Imm)*4, true
			}
		case mips.J:
			taken, hasTarget = in.Target, true
			res.Cycles += cyclesJump
		case mips.JAL:
			m.regs[mips.RA] = m.pc + 4
			taken, hasTarget = in.Target, true
			res.Cycles += cyclesJump
		case mips.JR:
			taken, hasTarget = rs, true
			res.Cycles += cyclesJump
		case mips.JALR:
			setRd(m.pc + 4)
			taken, hasTarget = rs, true
			res.Cycles += cyclesJump
		default:
			return res, fmt.Errorf("sim: unimplemented op %v at 0x%x", in.Op, m.pc)
		}

		if in.IsBranch() {
			if hasTarget {
				res.Cycles += cyclesBranchTaken
			} else {
				res.Cycles += cyclesBranchNot
			}
		}
		if hasTarget {
			if m.prof != nil {
				m.prof.EdgeCount[Edge{From: m.pc, To: taken}]++
			}
			m.pc = taken
		} else {
			m.pc = next
		}
	}
	return res, fmt.Errorf("sim: step limit (%d) exceeded at PC 0x%x", maxSteps, m.pc)
}
