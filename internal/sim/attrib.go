package sim

import (
	"binpart/internal/binimg"
	"binpart/internal/mips"
)

// Attribution is the CPU cycles a profiled run spent at each text word:
// Cycles[i] belongs to the instruction at Base+4*i.
type Attribution struct {
	Base   uint32
	Cycles []uint64
}

// At returns the cycles attributed to the instruction at pc; 0 outside
// the text.
func (a Attribution) At(pc uint32) uint64 {
	if i := uint64(pc-a.Base) / 4; pc >= a.Base && i < uint64(len(a.Cycles)) {
		return a.Cycles[i]
	}
	return 0
}

// AttributeCycles converts an execution profile into per-address cycle
// counts under the cycle model: each instruction's executions multiplied
// by its class cost, with branches split between taken and not-taken
// using the recorded edge counts. The partitioner uses this to know how
// many CPU cycles each loop consumed.
func AttributeCycles(img *binimg.Image, prof *Profile, cm CycleModel) Attribution {
	if cm == (CycleModel{}) {
		cm = DefaultCycleModel
	}
	out := Attribution{Base: img.TextBase, Cycles: make([]uint64, len(img.Text))}
	takenFrom := make(map[uint32]uint64)
	for e, n := range prof.EdgeCount {
		takenFrom[e.From] += n
	}
	for pc, count := range prof.InstCount {
		w, err := img.WordAt(pc)
		if err != nil {
			continue
		}
		in, err := mips.Decode(w)
		if err != nil {
			continue
		}
		// The class comes from the same decode metadata the interpreter
		// predecodes from, so attribution and execution always agree.
		var cycles uint64
		switch in.Op.Cost() {
		case mips.CostBranch:
			taken := takenFrom[pc]
			if taken > count {
				taken = count
			}
			cycles = taken*cm.BranchTaken + (count-taken)*cm.BranchNot
		case mips.CostJump:
			cycles = count * cm.Jump
		case mips.CostLoad:
			cycles = count * cm.Load
		case mips.CostStore:
			cycles = count * cm.Store
		case mips.CostMult:
			cycles = count * cm.Mult
		case mips.CostDiv:
			cycles = count * cm.Div
		default:
			cycles = count * cm.ALU
		}
		out.Cycles[(pc-img.TextBase)/4] = cycles
	}
	return out
}
