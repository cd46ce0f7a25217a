package dopt

import (
	"binpart/internal/freelist"
	"binpart/internal/ir"
)

// locSet is a dense bitset over a function's location space. The
// liveness analyses run to a fixpoint over every block several times per
// cleanup, so the sets use flat words instead of maps: one backing array
// per analysis call, no per-iteration allocation.
type locSet []uint64

func (s locSet) has(l ir.Loc) bool { return s[l>>6]&(1<<(uint(l)&63)) != 0 }
func (s locSet) set(l ir.Loc)      { s[l>>6] |= 1 << (uint(l) & 63) }
func (s locSet) clear(l ir.Loc)    { s[l>>6] &^= 1 << (uint(l) & 63) }

func (s locSet) reset() {
	for i := range s {
		s[i] = 0
	}
}

// or unions t into s and reports whether s gained any location.
func (s locSet) or(t locSet) bool {
	changed := false
	for i, w := range t {
		if nw := s[i] | w; nw != s[i] {
			s[i] = nw
			changed = true
		}
	}
	return changed
}

// locSpace returns the size of f's location space: one past the largest
// location any instruction references, covering physical registers,
// HI/LO, and every virtual location passes have allocated.
func locSpace(f *ir.Func) int {
	max := ir.FirstVirtual
	if f.NextLoc > max {
		max = f.NextLoc
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.HasDst() && in.Dst >= max {
				max = in.Dst + 1
			}
			if !in.A.IsConst && in.A.Loc >= max {
				max = in.A.Loc + 1
			}
			if !in.B.IsConst && in.B.Loc >= max {
				max = in.B.Loc + 1
			}
		}
	}
	return int(max)
}

// locSets is a family of equal-size bitsets over one location space,
// carved from a single backing array: at(i) views set i without a
// per-set slice header.
type locSets struct {
	words int
	w     []uint64
}

// resetLocSets returns n empty sets for a location space of size space,
// reusing ls's array when it is large enough.
func resetLocSets(ls locSets, n, space int) locSets {
	words := (space + 63) / 64
	return locSets{words: words, w: reuse(ls.w, n*words)}
}

// at returns set i.
func (ls locSets) at(i int) locSet {
	return locSet(ls.w[i*ls.words : (i+1)*ls.words : (i+1)*ls.words])
}

// slice returns sets [lo, hi) as a family of their own.
func (ls locSets) slice(lo, hi int) locSets {
	return locSets{words: ls.words, w: ls.w[lo*ls.words : hi*ls.words]}
}

// workspace holds the dense, location-indexed tables the passes of one
// OptimizeWith call share, so a fact is computed into a slice that lives
// for the call instead of a map or a fresh allocation per pass. Tables
// are sized on use by spaceOf. Workspaces come from a free list and go
// back to it when the call ends: every table is reset before it is read,
// and nothing a pass leaves in the IR or a report points into one.
type workspace struct {
	space int
	// liveIn and liveOut are the block liveness the last liveness call
	// computed; live is a scratch set over the same space.
	sets            locSets
	liveIn, liveOut locSets
	live            locSet
	env             constEnv
	gcp             []gcpEntry
	width           []uint8
	chains          blockChains
	// reroll's loop search and per-loop tables.
	loops      ir.LoopFinder
	matcher    rerollMatcher
	ivStep     map[ir.Loc]int32
	defsInLoop map[ir.Loc]bool
}

// workspaces keeps workspaces between calls.
var workspaces freelist.List[workspace]

// newWorkspace returns a workspace over f's current location space; the
// caller gives it back with release.
func newWorkspace(f *ir.Func) *workspace {
	ws := workspaces.Get()
	ws.space = locSpace(f)
	return ws
}

// release drops ws's references into the IR and returns it to the free
// list; ws must not be used after.
func (ws *workspace) release() {
	ws.chains.b = nil
	ws.loops.Reset()
	ws.matcher.b = nil
	workspaces.Put(ws)
}

// spaceOf returns the location space a table over f must span: the
// space scanned when ws was made, grown by any virtual location a pass
// has allocated since.
func (ws *workspace) spaceOf(f *ir.Func) int {
	ws.space = max(ws.space, int(f.NextLoc))
	return ws.space
}

// liveness computes block liveness with ABI-aware uses (calls read
// argument registers, returns read the ABI-live set) into ws.liveIn and
// ws.liveOut, which stay valid until the IR or the next liveness call
// changes them.
//
// Each block is summarized once, as the locations it reads before
// writing them (use) and the locations it writes (def), so the fixpoint
// iterates over words: live-in = use ∪ (live-out \ def).
func (ws *workspace) liveness(f *ir.Func) {
	n, space := len(f.Blocks), ws.spaceOf(f)
	ws.sets = resetLocSets(ws.sets, 4*n+1, space)
	ws.liveIn, ws.liveOut = ws.sets.slice(0, n), ws.sets.slice(n, 2*n)
	use, def := ws.sets.slice(2*n, 3*n), ws.sets.slice(3*n, 4*n)
	ws.live = ws.sets.at(4 * n)
	for i, b := range f.Blocks {
		u, d := use.at(i), def.at(i)
		for j := len(b.Instrs) - 1; j >= 0; j-- {
			in := &b.Instrs[j]
			u.transfer(in)
			if in.HasDst() {
				d.set(in.Dst)
			}
			if in.Op == ir.Call {
				for _, l := range callClobbered {
					d.set(l)
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			out := ws.liveOut.at(i)
			for _, s := range f.Blocks[i].Succs {
				out.or(ws.liveIn.at(s.Index))
			}
			in, u, d := ws.liveIn.at(i), use.at(i), def.at(i)
			for w := range in {
				if nw := in[w] | u[w] | out[w]&^d[w]; nw != in[w] {
					in[w] = nw
					changed = true
				}
			}
		}
	}
}

// transfer moves s backwards across in: in's definitions (a call's
// clobbers included) leave the set, then its ABI-aware uses join it.
func (s locSet) transfer(in *ir.Instr) {
	if in.HasDst() {
		s.clear(in.Dst)
	}
	if in.Op == ir.Call {
		for _, l := range callClobbered {
			s.clear(l)
		}
	}
	var ub [2]ir.Loc
	for _, u := range effUses(in, ub[:0]) {
		s.set(u)
	}
}
