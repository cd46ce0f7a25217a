package mcc

import "binpart/internal/mips"

// scratch holds the working memory one compile reuses from function to
// function: the TAC being optimized, its call-operand pool and every
// pass's Temp- or block-indexed tables. A buffer grows to fit the largest
// function so far and is reused by the functions after it.
type scratch struct {
	ins, spare []ins // the TAC (lent to one tacFunc at a time) and strengthReduce's output
	args       []Operand
	ranges     [][2]int32 // blockRanges

	// propagate and localCSE.
	val                   []Operand
	stamp, srcVer, defVer []int32
	cse                   map[cseKey]cseEntry

	// removeUnreachableBlocks and buildBlocks.
	reach             []bool
	stack, labelBlock []int32

	// Register allocation.
	words          []uint64 // tempSet arena
	sets           []tempSet
	blocks         []tacBlock
	succs, succEnd []int32
	start, end     []int32
	ivs            []interval
	reg            []mips.Reg
	spill          []int32

	// Code generation.
	slotOff   []int32
	branchFix []branchFix
	labelPos  []int32
}

// recycle takes back the buffers f borrowed; f must not be used after.
func (sc *scratch) recycle(f *tacFunc) {
	sc.ins, sc.args = f.Ins[:0], f.Args[:0]
	f.Ins, f.Args = nil, nil
}

// resize returns s with length n, reusing its backing array when it is
// large enough. The contents are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// resetTemps sizes and zeroes the Temp-indexed propagation tables.
func (sc *scratch) resetTemps(nTemp int) {
	sc.val = resize(sc.val, nTemp)
	sc.stamp = resize(sc.stamp, nTemp)
	sc.srcVer = resize(sc.srcVer, nTemp)
	sc.defVer = resize(sc.defVer, nTemp)
	clear(sc.stamp)
	clear(sc.defVer)
}

// resetSets empties the tempSet arena; sets carved before are dead.
func (sc *scratch) resetSets() { sc.words = sc.words[:0] }

// newSet carves a zeroed set over nTemp temps from the arena. When the
// arena is full it moves to a larger array; sets carved earlier keep the
// old one, so they stay valid.
func (sc *scratch) newSet(nTemp int) tempSet {
	n, w := len(sc.words), tempWords(nTemp)
	if n+w > cap(sc.words) {
		sc.words = make([]uint64, 0, max(2*cap(sc.words), w, 256))
		n = 0
	}
	sc.words = sc.words[:n+w]
	s := tempSet(sc.words[n : n+w])
	clear(s)
	return s
}

// labelBlocks maps each label id of f to the index of the block it heads
// (-1 for none).
func (sc *scratch) labelBlocks(f *tacFunc, ranges [][2]int32) []int32 {
	lb := resize(sc.labelBlock, int(f.NLabel))
	for i := range lb {
		lb[i] = -1
	}
	for bi, r := range ranges {
		for j := r[0]; j < r[1] && f.Ins[j].Kind == iLabel; j++ {
			lb[f.Ins[j].Sym] = int32(bi)
		}
	}
	sc.labelBlock = lb
	return lb
}
