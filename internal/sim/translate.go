// Threaded-code translation.
//
// Each basic block is translated once, on first execution, into a flat
// run of superops (pinst records tagged by op, one per instruction) that
// exec.go dispatches without per-instruction step, cycle, or profile
// accounting — the block totals are precomputed here. Translations are
// keyed by entry point: a jump into the middle of a straight-line run
// simply gets its own translation starting there. Text is immutable, so
// translations are never invalidated.
package sim

import "binpart/internal/mips"

// tblock is one translated basic block, keyed by its entry point
// (code[start].tix). n (the step count: one superop per instruction)
// and cost are the totals for one complete execution, charged up front
// by Run and rewound by blockStop if the block stops early; exec counts
// completed executions and reconstructs per-instruction profile counts
// in buildProfile.
type tblock struct {
	off   int32 // first superop in Machine.fops
	n     int32 // number of superops
	start int32 // entry text index
	end   int32 // terminator text index
	next  int32 // fallthrough successor tblock, -1 until first taken
	cost  uint64
	exec  uint64
}

// translate builds the superop run for the block entered at text index
// entry, caches it, and returns its tblock index.
func (m *Machine) translate(entry int32) int32 {
	code := m.code
	end := m.blockTermIndex(entry)
	blk := tblock{
		off:   int32(len(m.fops)),
		n:     end - entry + 1,
		start: entry,
		end:   end,
		next:  -1,
	}
	for i := entry; i <= end; i++ {
		f := code[i]
		blk.cost += f.cost
		f.idx = i
		// code[i].tix marks i as a block entry; in a superop the field
		// caches the op's own branch target instead, so clear it.
		f.tix = -1
		if f.op == mips.JAL || f.op == mips.JALR {
			// Precompute the return address.
			f.immU = m.img.TextBase + uint32(4*i) + 4
		}
		m.fops = append(m.fops, f)
	}
	m.tblocks = append(m.tblocks, blk)
	tix := int32(len(m.tblocks) - 1)
	code[entry].tix = tix
	return tix
}

// tixFor resolves a control-transfer target PC to its translated-block
// index, translating the block on first arrival. It returns -1 for a
// target outside text (or misaligned); the caller reports the fault.
// Run caches the result in the transferring superop (f.tix) or block
// (tblock.next), so steady-state execution chains block to block without
// touching PC arithmetic or the code array again.
func (m *Machine) tixFor(pc uint32) int32 {
	if pc&3 != 0 || pc < m.img.TextBase || pc >= m.img.TextEnd() {
		return -1
	}
	idx := int32((pc - m.img.TextBase) >> 2)
	t := m.code[idx].tix
	if t < 0 {
		t = m.translate(idx)
	}
	return t
}
