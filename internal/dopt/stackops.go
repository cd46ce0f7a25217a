package dopt

import (
	"sort"

	"binpart/internal/ir"
)

// StackReport summarizes what stack operation removal did.
type StackReport struct {
	// SlotsPromoted is the number of distinct frame slots promoted to
	// virtual registers.
	SlotsPromoted int
	// OpsRewritten counts loads/stores turned into register moves.
	OpsRewritten int
	// AdjustsRemoved counts deleted stack pointer adjustments.
	AdjustsRemoved int
	// EscapedSlots counts frame offsets whose address escaped (local
	// arrays); these stay in memory.
	EscapedSlots int
}

// Changed reports whether RemoveStackOps rewrote the IR: it promoted a
// slot (rewriting its accesses) or deleted a stack adjustment.
func (r StackReport) Changed() bool { return r.OpsRewritten > 0 || r.AdjustsRemoved > 0 }

// RemoveStackOps performs the paper's "stack operation removal": frame
// slots that are only ever accessed as word-sized sp-relative loads and
// stores are promoted to virtual registers, which erases callee-save
// spills and scalar spill traffic; stack pointer adjustments are deleted
// when nothing else uses the stack pointer.
//
// Soundness assumptions (standard for binary-level tools operating on
// well-formed compiler output): the stack pointer is only modified by
// constant adjustments, and escaped frame addresses (local arrays) access
// only their own object, never neighbouring slots.
func RemoveStackOps(f *ir.Func) StackReport {
	var rep StackReport

	// 1. Compute the sp delta (relative to function entry) at block entry.
	//    Bail out on any non-constant sp definition.
	delta := make([]int64, len(f.Blocks))
	seen := make([]bool, len(f.Blocks))
	const unknown = int64(1) << 40
	for i := range delta {
		delta[i] = unknown
	}
	if len(f.Blocks) == 0 {
		return rep
	}
	delta[0] = 0
	work := []*ir.Block{f.Blocks[0]}
	seen[0] = true
	ok := true
	for len(work) > 0 && ok {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		d := delta[b.Index]
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.HasDst() && in.Dst == ir.RegSP {
				if in.Op == ir.Add && !in.A.IsConst && in.A.Loc == ir.RegSP && in.B.IsConst {
					d += int64(in.B.Val)
				} else {
					ok = false
					break
				}
			}
		}
		for _, s := range b.Succs {
			if !seen[s.Index] {
				seen[s.Index] = true
				delta[s.Index] = d
				work = append(work, s)
			} else if delta[s.Index] != d {
				ok = false
			}
		}
	}
	if !ok {
		return rep
	}

	// 2. Classify every sp use, keyed by canonical frame offset
	//    (entry-relative).
	type access struct {
		blk  int
		idx  int
		load bool
	}
	slots := map[int64][]access{}
	badSlot := map[int64]bool{}
	escaped := map[int64]bool{}
	otherUse := false
	for bi, b := range f.Blocks {
		d := delta[bi]
		if d == unknown {
			continue // unreachable
		}
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.Add && in.HasDst() && in.Dst == ir.RegSP &&
				!in.A.IsConst && in.A.Loc == ir.RegSP && in.B.IsConst {
				d += int64(in.B.Val)
				continue
			}
			usesSP := false
			var ub [2]ir.Loc
			for _, u := range in.AppendUses(ub[:0]) {
				if u == ir.RegSP {
					usesSP = true
				}
			}
			if !usesSP {
				if in.HasDst() && in.Dst == ir.RegSP {
					// sp = const — already rejected above.
					otherUse = true
				}
				continue
			}
			switch {
			case in.Op == ir.Load && !in.A.IsConst && in.A.Loc == ir.RegSP:
				key := d + int64(in.Off)
				slots[key] = append(slots[key], access{bi, i, true})
				if in.Width != 4 {
					badSlot[key] = true
				}
			case in.Op == ir.Store && !in.B.IsConst && in.B.Loc == ir.RegSP:
				if !in.A.IsConst && in.A.Loc == ir.RegSP {
					otherUse = true // storing sp itself: frame address escapes
					continue
				}
				key := d + int64(in.Off)
				slots[key] = append(slots[key], access{bi, i, false})
				if in.Width != 4 {
					badSlot[key] = true
				}
			case in.Op == ir.Add && in.Dst == ir.RegSP && !in.A.IsConst && in.A.Loc == ir.RegSP && in.B.IsConst:
				// sp adjust, handled in step 1.
			case in.Op == ir.Add && !in.A.IsConst && in.A.Loc == ir.RegSP && in.B.IsConst:
				// x = sp + c: address of a frame object escapes.
				escaped[d+int64(in.B.Val)] = true
			case in.Op == ir.Add && !in.B.IsConst && in.B.Loc == ir.RegSP && in.A.IsConst:
				escaped[d+int64(in.A.Val)] = true
			case in.Op == ir.Move && !in.A.IsConst && in.A.Loc == ir.RegSP:
				otherUse = true
			case in.Op == ir.Ret || in.Op == ir.Call || in.Op == ir.Halt:
				// ABI-level use; does not touch this frame's slots.
			default:
				otherUse = true
			}
		}
	}
	rep.EscapedSlots = len(escaped)

	// 3. Promote every clean slot to a fresh virtual location, in slot
	// order so the assigned location numbers don't depend on map
	// iteration (lifted IR must be bit-identical run to run — it is
	// memoized by the stage caches).
	keys := make([]int64, 0, len(slots))
	for key := range slots {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	locOf := map[int64]ir.Loc{}
	for _, key := range keys {
		if badSlot[key] || escaped[key] {
			continue
		}
		accs := slots[key]
		loc := f.NewLoc()
		locOf[key] = loc
		rep.SlotsPromoted++
		for _, a := range accs {
			in := &f.Blocks[a.blk].Instrs[a.idx]
			if a.load {
				*in = ir.Instr{Op: ir.Move, Dst: in.Dst, A: ir.L(loc), Addr: in.Addr}
			} else {
				*in = ir.Instr{Op: ir.Move, Dst: loc, A: in.A, Addr: in.Addr}
			}
			rep.OpsRewritten++
		}
	}

	// 4. Delete sp adjustments when the frame is gone entirely.
	remainingMem := false
	for key := range slots {
		if _, promoted := locOf[key]; !promoted {
			remainingMem = true
		}
	}
	if !otherUse && !remainingMem && len(escaped) == 0 {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Op == ir.Add && in.Dst == ir.RegSP && !in.A.IsConst && in.A.Loc == ir.RegSP && in.B.IsConst {
					*in = ir.Instr{Op: ir.Nop, Addr: in.Addr}
					rep.AdjustsRemoved++
				}
			}
		}
	}
	return rep
}
