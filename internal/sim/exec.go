// The threaded-code execution engine (EngineThreaded).
//
// Run walks basic blocks: each entry PC is validated once, the block's
// translation is looked up (or built, translate.go), the whole block's
// steps and cycles are charged up front, and the inner loop dispatches
// superops with no per-instruction accounting at all — no step counter,
// no cycle add for straight-line ops, no profile increment (per-block
// execution counters reconstruct per-instruction counts at run end).
// A block that stops early — a faulting instruction, or a step budget
// that runs out inside it — rewinds the up-front charge (blockStop) so
// steps, cycles, and the reported PC match the reference stepper bit for
// bit.
package sim

import (
	"encoding/binary"
	"fmt"

	"binpart/internal/binimg"
	"binpart/internal/mips"
)

// Run executes until BREAK, an error, or the step limit, using the
// threaded-code engine.
func (m *Machine) Run() (Result, error) {
	var res Result
	maxSteps := m.cfg.MaxSteps
	if maxSteps == 0 {
		maxSteps = DefaultConfig().MaxSteps
	}
	code := m.code
	regs := &m.Regs
	textBase := m.img.TextBase
	textEnd := m.img.TextEnd()
	pc := m.PC
	var steps, cycles uint64

	if pc&3 != 0 || pc < textBase || pc >= textEnd {
		return m.fail(&res, steps, cycles, pc,
			fmt.Errorf("sim: PC 0x%x outside text", pc))
	}
	tix := code[(pc-textBase)>>2].tix
	if tix < 0 {
		tix = m.translate(int32((pc - textBase) >> 2))
	}

outer:
	for {
		blk := &m.tblocks[tix]
		steps += uint64(blk.n)
		cycles += blk.cost
		blk.exec++
		n := blk.n
		if steps > maxSteps {
			// The budget expires inside (or right at the entry of) this
			// block: run only the superops it still covers. The prefix
			// never reaches the terminator, so it always falls through to
			// the step-limit stop below.
			n -= int32(steps - maxSteps)
		}
		off := blk.off
		run := m.fops[off : off+n]
		for fi := 0; fi < len(run); fi++ {
			f := &run[fi]
			switch f.op {
			case mips.NOP:
			case mips.BREAK:
				m.PC = textBase + uint32(4*f.idx)
				res.Steps, res.Cycles = steps, cycles
				res.ExitCode = int32(regs[mips.V0])
				res.Profile = m.buildProfile()
				return res, nil
			case mips.ADD, mips.ADDU:
				regs[f.rd&31] = regs[f.rs&31] + regs[f.rt&31]
				regs[0] = 0
			case mips.SUB, mips.SUBU:
				regs[f.rd&31] = regs[f.rs&31] - regs[f.rt&31]
				regs[0] = 0
			case mips.AND:
				regs[f.rd&31] = regs[f.rs&31] & regs[f.rt&31]
				regs[0] = 0
			case mips.OR:
				regs[f.rd&31] = regs[f.rs&31] | regs[f.rt&31]
				regs[0] = 0
			case mips.XOR:
				regs[f.rd&31] = regs[f.rs&31] ^ regs[f.rt&31]
				regs[0] = 0
			case mips.NOR:
				regs[f.rd&31] = ^(regs[f.rs&31] | regs[f.rt&31])
				regs[0] = 0
			case mips.SLT:
				regs[f.rd&31] = b2u(int32(regs[f.rs&31]) < int32(regs[f.rt&31]))
				regs[0] = 0
			case mips.SLTU:
				regs[f.rd&31] = b2u(regs[f.rs&31] < regs[f.rt&31])
				regs[0] = 0
			case mips.SLL:
				regs[f.rd&31] = regs[f.rt&31] << f.immU
				regs[0] = 0
			case mips.SRL:
				regs[f.rd&31] = regs[f.rt&31] >> f.immU
				regs[0] = 0
			case mips.SRA:
				regs[f.rd&31] = uint32(int32(regs[f.rt&31]) >> f.immU)
				regs[0] = 0
			case mips.SLLV:
				regs[f.rd&31] = regs[f.rt&31] << (regs[f.rs&31] & 31)
				regs[0] = 0
			case mips.SRLV:
				regs[f.rd&31] = regs[f.rt&31] >> (regs[f.rs&31] & 31)
				regs[0] = 0
			case mips.SRAV:
				regs[f.rd&31] = uint32(int32(regs[f.rt&31]) >> (regs[f.rs&31] & 31))
				regs[0] = 0
			case mips.MULT:
				p := int64(int32(regs[f.rs&31])) * int64(int32(regs[f.rt&31]))
				m.LO, m.HI = uint32(p), uint32(uint64(p)>>32)
			case mips.MULTU:
				p := uint64(regs[f.rs&31]) * uint64(regs[f.rt&31])
				m.LO, m.HI = uint32(p), uint32(p>>32)
			case mips.DIV:
				rs, rt := regs[f.rs&31], regs[f.rt&31]
				if rt == 0 {
					m.LO, m.HI = 0, rs // architecturally undefined; pick stable values
				} else if int32(rs) == -1<<31 && int32(rt) == -1 {
					m.LO, m.HI = rs, 0
				} else {
					m.LO = uint32(int32(rs) / int32(rt))
					m.HI = uint32(int32(rs) % int32(rt))
				}
			case mips.DIVU:
				rs, rt := regs[f.rs&31], regs[f.rt&31]
				if rt == 0 {
					m.LO, m.HI = 0, rs
				} else {
					m.LO, m.HI = rs/rt, rs%rt
				}
			case mips.MFHI:
				regs[f.rd&31] = m.HI
				regs[0] = 0
			case mips.MFLO:
				regs[f.rd&31] = m.LO
				regs[0] = 0
			case mips.MTHI:
				m.HI = regs[f.rs&31]
			case mips.MTLO:
				m.LO = regs[f.rs&31]
			case mips.ADDI, mips.ADDIU:
				regs[f.rt&31] = regs[f.rs&31] + f.immU
				regs[0] = 0
			case mips.SLTI:
				regs[f.rt&31] = b2u(int32(regs[f.rs&31]) < f.imm)
				regs[0] = 0
			case mips.SLTIU:
				regs[f.rt&31] = b2u(regs[f.rs&31] < f.immU)
				regs[0] = 0
			case mips.ANDI:
				regs[f.rt&31] = regs[f.rs&31] & f.immU
				regs[0] = 0
			case mips.ORI:
				regs[f.rt&31] = regs[f.rs&31] | f.immU
				regs[0] = 0
			case mips.XORI:
				regs[f.rt&31] = regs[f.rs&31] ^ f.immU
				regs[0] = 0
			case mips.LUI:
				regs[f.rt&31] = f.immU
				regs[0] = 0
			case mips.LB:
				addr := regs[f.rs&31] + f.immU
				if addr < 0x1000 {
					return m.blockFault(&res, steps, cycles, blk, f.idx, loadFault(addr, 1))
				}
				v := m.mem.Page(addr)[addr&binimg.PageMask]
				regs[f.rt&31] = uint32(int32(int8(v)))
				regs[0] = 0
			case mips.LBU:
				addr := regs[f.rs&31] + f.immU
				if addr < 0x1000 {
					return m.blockFault(&res, steps, cycles, blk, f.idx, loadFault(addr, 1))
				}
				regs[f.rt&31] = uint32(m.mem.Page(addr)[addr&binimg.PageMask])
				regs[0] = 0
			case mips.LH:
				addr := regs[f.rs&31] + f.immU
				if addr < 0x1000 || addr&1 != 0 {
					return m.blockFault(&res, steps, cycles, blk, f.idx, loadFault(addr, 2))
				}
				v := binary.LittleEndian.Uint16(m.mem.Page(addr)[addr&binimg.PageMask:])
				regs[f.rt&31] = uint32(int32(int16(v)))
				regs[0] = 0
			case mips.LHU:
				addr := regs[f.rs&31] + f.immU
				if addr < 0x1000 || addr&1 != 0 {
					return m.blockFault(&res, steps, cycles, blk, f.idx, loadFault(addr, 2))
				}
				regs[f.rt&31] = uint32(binary.LittleEndian.Uint16(m.mem.Page(addr)[addr&binimg.PageMask:]))
				regs[0] = 0
			case mips.LW:
				addr := regs[f.rs&31] + f.immU
				if addr < 0x1000 || addr&3 != 0 {
					return m.blockFault(&res, steps, cycles, blk, f.idx, loadFault(addr, 4))
				}
				regs[f.rt&31] = binary.LittleEndian.Uint32(m.mem.Page(addr)[addr&binimg.PageMask:])
				regs[0] = 0
			case mips.SB:
				addr := regs[f.rs&31] + f.immU
				if addr < 0x1000 || (addr >= textBase && addr < textEnd) {
					return m.blockFault(&res, steps, cycles, blk, f.idx, storeFault(addr, 1))
				}
				m.mem.Page(addr)[addr&binimg.PageMask] = byte(regs[f.rt&31])
			case mips.SH:
				addr := regs[f.rs&31] + f.immU
				if addr < 0x1000 || addr&1 != 0 || (addr >= textBase && addr < textEnd) {
					return m.blockFault(&res, steps, cycles, blk, f.idx, storeFault(addr, 2))
				}
				binary.LittleEndian.PutUint16(m.mem.Page(addr)[addr&binimg.PageMask:], uint16(regs[f.rt&31]))
			case mips.SW:
				addr := regs[f.rs&31] + f.immU
				if addr < 0x1000 || addr&3 != 0 || (addr >= textBase && addr < textEnd) {
					return m.blockFault(&res, steps, cycles, blk, f.idx, storeFault(addr, 4))
				}
				binary.LittleEndian.PutUint32(m.mem.Page(addr)[addr&binimg.PageMask:], regs[f.rt&31])
			case mips.BEQ:
				if regs[f.rs&31] == regs[f.rt&31] {
					cycles += cyclesBranchTaken
					if f.edge >= 0 {
						m.edges[f.edge].n++
					}
					goto taken
				}
				cycles += cyclesBranchNot
			case mips.BNE:
				if regs[f.rs&31] != regs[f.rt&31] {
					cycles += cyclesBranchTaken
					if f.edge >= 0 {
						m.edges[f.edge].n++
					}
					goto taken
				}
				cycles += cyclesBranchNot
			case mips.BLEZ:
				if int32(regs[f.rs&31]) <= 0 {
					cycles += cyclesBranchTaken
					if f.edge >= 0 {
						m.edges[f.edge].n++
					}
					goto taken
				}
				cycles += cyclesBranchNot
			case mips.BGTZ:
				if int32(regs[f.rs&31]) > 0 {
					cycles += cyclesBranchTaken
					if f.edge >= 0 {
						m.edges[f.edge].n++
					}
					goto taken
				}
				cycles += cyclesBranchNot
			case mips.BLTZ:
				if int32(regs[f.rs&31]) < 0 {
					cycles += cyclesBranchTaken
					if f.edge >= 0 {
						m.edges[f.edge].n++
					}
					goto taken
				}
				cycles += cyclesBranchNot
			case mips.BGEZ:
				if int32(regs[f.rs&31]) >= 0 {
					cycles += cyclesBranchTaken
					if f.edge >= 0 {
						m.edges[f.edge].n++
					}
					goto taken
				}
				cycles += cyclesBranchNot
			case mips.J:
				if f.edge >= 0 {
					m.edges[f.edge].n++
				}
				goto taken
			case mips.JAL:
				regs[mips.RA] = f.immU // precomputed return address
				if f.edge >= 0 {
					m.edges[f.edge].n++
				}
				goto taken
			case mips.JR:
				t := regs[f.rs&31]
				if t&3 != 0 || t < textBase || t >= textEnd {
					// The jump's step and cost are already charged — the
					// reference charges both before the target check.
					here := textBase + uint32(4*f.idx)
					return m.fail(&res, steps, cycles, here,
						fmt.Errorf("sim: jr at 0x%x: jump target 0x%x outside text", here, t))
				}
				if f.jr >= 0 {
					m.recordDynEdge(f.jr, t)
				}
				// Dynamic target: resolve the block index each time.
				tix = code[(t-textBase)>>2].tix
				if tix < 0 {
					tix = m.translate(int32((t - textBase) >> 2))
				}
				continue outer
			case mips.JALR:
				t := regs[f.rs&31]
				regs[f.rd&31] = f.immU // precomputed return address
				regs[0] = 0
				if t&3 != 0 || t < textBase || t >= textEnd {
					here := textBase + uint32(4*f.idx)
					return m.fail(&res, steps, cycles, here,
						fmt.Errorf("sim: jalr at 0x%x: jump target 0x%x outside text", here, t))
				}
				if f.jr >= 0 {
					m.recordDynEdge(f.jr, t)
				}
				tix = code[(t-textBase)>>2].tix
				if tix < 0 {
					tix = m.translate(int32((t - textBase) >> 2))
				}
				continue outer
			default:
				here := textBase + uint32(4*f.idx)
				return m.fail(&res, steps, cycles, here,
					fmt.Errorf("sim: unimplemented op %v at 0x%x", f.op, here))
			}
			continue

			// A taken branch or direct jump: chain straight to the target
			// block, resolving and caching its index in the superop on
			// first use. After the first taken transfer, steady-state
			// execution never recomputes or validates the target PC.
		taken:
			t := f.tix
			if t < 0 {
				tgt := f.target
				if t = m.tixFor(tgt); t < 0 {
					return m.edgeFail(&res, steps, cycles, tgt, maxSteps)
				}
				// Store via index: tixFor may have grown m.fops, moving the
				// backing array out from under f.
				m.fops[off+int32(fi)].tix = t
			}
			tix = t
			continue outer
		}
		if n < blk.n {
			ti := blk.start + n
			return m.blockStop(&res, steps, cycles, blk, ti, ti, fmt.Errorf(
				"sim: step limit (%d) exceeded at PC 0x%x", maxSteps, textBase+uint32(4*ti)))
		}
		// The block fell through its not-taken terminator (or ran off the
		// end of text). Chain to the cached fallthrough successor.
		nf := blk.next
		if nf < 0 {
			fpc := textBase + uint32(4*(blk.end+1))
			if nf = m.tixFor(fpc); nf < 0 {
				return m.edgeFail(&res, steps, cycles, fpc, maxSteps)
			}
			m.tblocks[tix].next = nf
		}
		tix = nf
	}
}

// edgeFail reports the right error after a control transfer to an
// invalid PC. The reference stepper checks the step budget before PC
// validity at the top of its loop, so a run that spends its last step on
// the transfer reports the step limit, not the bad PC.
func (m *Machine) edgeFail(res *Result, steps, cycles uint64, target uint32, maxSteps uint64) (Result, error) {
	if steps >= maxSteps {
		return m.fail(res, steps, cycles, target,
			fmt.Errorf("sim: step limit (%d) exceeded at PC 0x%x", maxSteps, target))
	}
	return m.fail(res, steps, cycles, target,
		fmt.Errorf("sim: PC 0x%x outside text", target))
}

// blockFault finalizes a run that faulted at text index ti inside a
// block: the fault's own step counts, its cycles do not — matching the
// reference stepper.
func (m *Machine) blockFault(res *Result, steps, cycles uint64, blk *tblock, ti int32, err error) (Result, error) {
	return m.blockStop(res, steps, cycles, blk, ti, ti+1, err)
}

// blockStop finalizes a run that stopped at text index ti inside a block
// whose full steps and cost were charged up front. Steps are rewound to
// the instructions before stepEnd (ti for a step-limit stop, ti+1 for a
// fault), the cycles from ti onward are rewound, and the block's
// execution counter is rolled back so profile reconstruction stays
// exact.
func (m *Machine) blockStop(res *Result, steps, cycles uint64, blk *tblock, ti, stepEnd int32, err error) (Result, error) {
	blk.exec--
	steps = steps - uint64(blk.n) + uint64(stepEnd-blk.start)
	for j := ti; j <= blk.end; j++ {
		cycles -= m.code[j].cost
	}
	return m.fail(res, steps, cycles, m.img.TextBase+uint32(4*ti), err)
}
