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
// many CPU cycles each loop consumed. The counts are written into buf's
// array when it is large enough; pass nil for a fresh one.
func AttributeCycles(img *binimg.Image, prof *Profile, buf []uint64) Attribution {
	if cap(buf) < len(img.Text) {
		buf = make([]uint64, len(img.Text))
	}
	out := Attribution{Base: img.TextBase, Cycles: buf[:len(img.Text)]}
	clear(out.Cycles)
	// First sum each branch's taken edges into its own slot; the pass
	// over the executed instructions below reads that sum and overwrites
	// it with the cycles.
	slot := func(pc uint32) (int, bool) {
		i := uint64(pc-img.TextBase) / 4
		return int(i), pc >= img.TextBase && pc%4 == 0 && i < uint64(len(out.Cycles))
	}
	for e, n := range prof.EdgeCount {
		if i, ok := slot(e.From); ok {
			out.Cycles[i] += n
		}
	}
	for pc, count := range prof.InstCount {
		w, err := img.WordAt(pc)
		if err != nil {
			continue
		}
		c := &out.Cycles[(pc-img.TextBase)/4]
		in, err := mips.Decode(w)
		if err != nil {
			*c = 0
			continue
		}
		// The interpreter predecodes with the same cost, so attribution
		// and execution always agree.
		cycles := count * cost(in.Op)
		if in.Op.Cost() == mips.CostBranch {
			taken := min(*c, count)
			cycles = taken*cyclesBranchTaken + (count-taken)*cyclesBranchNot
		}
		*c = cycles
	}
	// An edge source the profile never counted as executed keeps no
	// cycles.
	for e := range prof.EdgeCount {
		if _, ok := prof.InstCount[e.From]; !ok {
			if i, ok := slot(e.From); ok {
				out.Cycles[i] = 0
			}
		}
	}
	return out
}
