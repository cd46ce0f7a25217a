package dopt

import "binpart/internal/ir"

// locSet is a dense bitset over a function's location space. The
// liveness analyses run to a fixpoint over every block several times per
// Cleanup, so the sets use flat words instead of maps: one backing array
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

// newLocSets allocates n empty sets for a location space of size space.
func newLocSets(n, space int) locSets {
	words := (space + 63) / 64
	return locSets{words: words, w: make([]uint64, n*words)}
}

// at returns set i.
func (ls locSets) at(i int) locSet {
	return locSet(ls.w[i*ls.words : (i+1)*ls.words : (i+1)*ls.words])
}

// slice returns sets [lo, hi) as a family of their own.
func (ls locSets) slice(lo, hi int) locSets {
	return locSets{words: ls.words, w: ls.w[lo*ls.words : hi*ls.words]}
}
