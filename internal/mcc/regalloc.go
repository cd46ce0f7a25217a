package mcc

import (
	"cmp"
	"slices"

	"binpart/internal/mips"
)

// Register allocation: liveness analysis over TAC followed by linear scan.
// Temps that are live across a call go to callee-saved $s registers; others
// to caller-saved $t registers (plus $v1). Temps that do not fit are
// spilled to frame slots and accessed through the $k0/$k1 scratch
// registers, which the MicroC runtime never uses otherwise. $at is reserved
// for immediate materialization and branch lowering.

var callerPool = [...]mips.Reg{
	mips.T0, mips.T1, mips.T2, mips.T3, mips.T4, mips.T5, mips.T6, mips.T7,
	mips.T8, mips.T9, mips.V1,
}

var calleePool = [...]mips.Reg{
	mips.S0, mips.S1, mips.S2, mips.S3, mips.S4, mips.S5, mips.S6, mips.S7,
}

// allocation is the result of register allocation for one function.
type allocation struct {
	reg        []mips.Reg // temp -> register; 0 ($zero, never allocated) for none
	spill      []int32    // temp -> spill slot index (within spill area); -1 for none
	numSpills  int
	usedCallee []mips.Reg // callee-saved registers the prologue must save
	hasCall    bool
}

// tacBlock is a basic block over instruction index ranges with successors.
type tacBlock struct {
	start, end int32 // [start, end)
	succs      []int32
	liveIn     tempSet
	liveOut    tempSet
}

// buildBlocks splits the function into basic blocks and wires successors.
// It starts a register-allocation round in the function's scratch: the
// blocks and their live sets stay valid until the next one.
func buildBlocks(f *tacFunc) []tacBlock {
	sc := f.sc
	ranges := blockRanges(f)
	blocks := resize(sc.blocks, len(ranges))
	sc.resetSets()
	labelBlock := sc.labelBlocks(f, ranges)
	succs := sc.succs[:0]
	ends := resize(sc.succEnd, len(ranges)) // end of each block's successors in succs
	for i, r := range ranges {
		last := &f.Ins[r[1]-1]
		switch last.Kind {
		case iBr:
			if t := labelBlock[last.Sym]; t >= 0 {
				succs = append(succs, t)
			}
		case iCBr:
			if t := labelBlock[last.Sym]; t >= 0 {
				succs = append(succs, t)
			}
			if i+1 < len(ranges) {
				succs = append(succs, int32(i+1))
			}
		case iRet:
		case iJT:
			// Conservative: an indirect jump may reach any label.
			for _, b := range labelBlock {
				if b >= 0 {
					succs = append(succs, b)
				}
			}
		default:
			if i+1 < len(ranges) {
				succs = append(succs, int32(i+1))
			}
		}
		ends[i] = int32(len(succs))
	}
	lo := int32(0)
	for i, r := range ranges {
		blocks[i] = tacBlock{start: r[0], end: r[1], succs: succs[lo:ends[i]],
			liveIn: sc.newSet(f.NTemp), liveOut: sc.newSet(f.NTemp)}
		lo = ends[i]
	}
	sc.blocks, sc.succs, sc.succEnd = blocks, succs, ends
	return blocks
}

// liveness computes live-in/out sets per block by iteration to fixpoint.
func liveness(f *tacFunc, blocks []tacBlock) {
	sc := f.sc
	n := len(blocks)
	sets := sc.sets[:0]
	for range 2 * n {
		sets = append(sets, sc.newSet(f.NTemp))
	}
	sc.sets = sets
	gen, kill := sets[:n], sets[n:]
	var ub [4]Temp
	for i := range blocks {
		b := &blocks[i]
		for j := b.start; j < b.end; j++ {
			in := &f.Ins[j]
			for _, u := range f.appendUses(ub[:0], in) {
				if !kill[i].has(u) {
					gen[i].set(u)
				}
			}
			if d, ok := in.def(); ok {
				kill[i].set(d)
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for i := len(blocks) - 1; i >= 0; i-- {
			b := &blocks[i]
			for _, s := range b.succs {
				if b.liveOut.or(blocks[s].liveIn) {
					changed = true
				}
			}
			// liveIn = gen ∪ (liveOut − kill), accumulated word-wise.
			for w := range b.liveIn {
				nw := b.liveIn[w] | gen[i][w] | (b.liveOut[w] &^ kill[i][w])
				if nw != b.liveIn[w] {
					b.liveIn[w] = nw
					changed = true
				}
			}
		}
	}
}

// interval is the linearized live range of a temp.
type interval struct {
	t          Temp
	start, end int32
	acrossCall bool
}

// computeIntervals builds conservative live intervals and marks temps live
// across calls.
func computeIntervals(f *tacFunc, blocks []tacBlock) []interval {
	sc := f.sc
	// start < 0 marks a temp never touched; start and end are always
	// stamped together.
	start := resize(sc.start, f.NTemp)
	end := resize(sc.end, f.NTemp)
	sc.start, sc.end = start, end
	for i := range start {
		start[i] = -1
	}
	touch := func(t Temp, i int32) {
		if start[t] < 0 {
			start[t], end[t] = i, i
			return
		}
		if i < start[t] {
			start[t] = i
		}
		if i > end[t] {
			end[t] = i
		}
	}
	// Parameters are defined at entry.
	for _, p := range f.Params {
		touch(p, 0)
	}
	var ub [4]Temp
	for i := range f.Ins {
		in := &f.Ins[i]
		for _, u := range f.appendUses(ub[:0], in) {
			touch(u, int32(i))
		}
		if d, ok := in.def(); ok {
			touch(d, int32(i))
		}
	}
	for i := range blocks {
		b := &blocks[i]
		b.liveIn.forEach(func(t Temp) { touch(t, b.start) })
		b.liveOut.forEach(func(t Temp) { touch(t, b.end-1) })
	}

	across := sc.newSet(f.NTemp)
	live := sc.newSet(f.NTemp)
	for i := range blocks {
		b := &blocks[i]
		// Per-instruction liveness backward within the block.
		live.reset()
		live.or(b.liveOut)
		for j := b.end - 1; j >= b.start; j-- {
			in := &f.Ins[j]
			if d, ok := in.def(); ok {
				live.clear(d)
			}
			if in.Kind == iCall {
				across.or(live)
			}
			for _, u := range f.appendUses(ub[:0], in) {
				live.set(u)
			}
		}
	}

	ivs := sc.ivs[:0]
	for t := Temp(0); int(t) < f.NTemp; t++ {
		if start[t] < 0 {
			continue
		}
		ivs = append(ivs, interval{t: t, start: start[t], end: end[t], acrossCall: across.has(t)})
	}
	// (start, t) is a total order, so the result does not depend on the
	// sort algorithm.
	slices.SortFunc(ivs, func(a, b interval) int {
		if a.start != b.start {
			return cmp.Compare(a.start, b.start)
		}
		return cmp.Compare(a.t, b.t)
	})
	sc.ivs = ivs
	return ivs
}

// allocate runs linear scan over the intervals.
func allocate(f *tacFunc) *allocation {
	sc := f.sc
	blocks := buildBlocks(f)
	liveness(f, blocks)
	ivs := computeIntervals(f, blocks)

	a := &allocation{reg: resize(sc.reg, f.NTemp), spill: resize(sc.spill, f.NTemp)}
	sc.reg, sc.spill = a.reg, a.spill
	clear(a.reg)
	for i := range a.spill {
		a.spill[i] = -1
	}
	for i := range f.Ins {
		if f.Ins[i].Kind == iCall {
			a.hasCall = true
			break
		}
	}

	type active struct {
		iv  interval
		reg mips.Reg
	}
	var actBuf [len(callerPool) + len(calleePool)]active
	act := actBuf[:0]
	var callerBuf [len(callerPool)]mips.Reg
	var calleeBuf [len(calleePool)]mips.Reg
	freeCaller := append(callerBuf[:0], callerPool[:]...)
	freeCallee := append(calleeBuf[:0], calleePool[:]...)
	var usedCallee [32]bool

	for _, iv := range ivs {
		// Expire intervals that ended before this one starts.
		n := 0
		for _, ac := range act {
			if ac.iv.end < iv.start {
				if ac.iv.acrossCall {
					freeCallee = append(freeCallee, ac.reg)
				} else {
					freeCaller = append(freeCaller, ac.reg)
				}
				continue
			}
			act[n] = ac
			n++
		}
		act = act[:n]

		pool := &freeCaller
		if iv.acrossCall {
			pool = &freeCallee
		}
		if len(*pool) == 0 {
			// Spill the active interval (same class) with the furthest
			// end, or this one.
			victim := -1
			for i, ac := range act {
				if ac.iv.acrossCall == iv.acrossCall && ac.iv.end > iv.end {
					if victim < 0 || ac.iv.end > act[victim].iv.end {
						victim = i
					}
				}
			}
			if victim >= 0 {
				v := act[victim]
				a.spill[v.iv.t] = int32(a.numSpills)
				a.numSpills++
				a.reg[v.iv.t] = 0
				a.reg[iv.t] = v.reg
				act[victim] = active{iv: iv, reg: v.reg}
			} else {
				a.spill[iv.t] = int32(a.numSpills)
				a.numSpills++
			}
			continue
		}
		r := (*pool)[len(*pool)-1]
		*pool = (*pool)[:len(*pool)-1]
		a.reg[iv.t] = r
		if iv.acrossCall {
			usedCallee[r] = true
		}
		act = append(act, active{iv: iv, reg: r})
	}

	for _, r := range calleePool {
		if usedCallee[r] {
			a.usedCallee = append(a.usedCallee, r)
		}
	}
	return a
}
