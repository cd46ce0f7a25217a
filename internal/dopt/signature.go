package dopt

import "binpart/internal/ir"

// InferParams recovers a function's parameter arity from the binary: the
// argument registers ($a0..$a3) that are read before being written on
// some path from the entry. Classic decompilation signature recovery —
// a compiled callee only reads an argument register "live-in" if the
// source function declared that parameter. The o32 convention fills
// argument registers left to right, so the arity is the highest live-in
// argument register plus one.
func InferParams(f *ir.Func) int {
	liveIn, _ := abiLiveness(f)
	if len(f.Blocks) == 0 {
		return 0
	}
	arity := 0
	for i := 0; i < 4; i++ {
		if liveIn.at(f.Blocks[0].Index).has(ir.RegA0 + ir.Loc(i)) {
			arity = i + 1
		}
	}
	return arity
}

// InferReturns reports whether the function produces a result: some path
// writes $v0 after which no other write clobbers it before return. The
// ABI-aware liveness already treats $v0 as live at Ret, so a simpler
// sufficient check is used: any reachable definition of $v0.
func InferReturns(f *ir.Func) bool {
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.HasDst() && in.Dst == ir.RegV0 {
				return true
			}
		}
	}
	return false
}
