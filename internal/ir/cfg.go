package ir

import (
	"cmp"
	"slices"

	"binpart/internal/freelist"
)

// loopScratch is the working memory of FindLoops and Recover: the DFS
// and (post)dominator tables, the loop-body walk and findIndVars'
// per-location counts. Scratches are kept between calls in a free list;
// none of their slices or maps is ever part of a Loop or Structure.
type loopScratch struct {
	seen       []bool
	postIdx    []int
	order      []int
	frames     []dfsFrame
	idom       []int
	headedLoop []int32 // by block index: index of the loop it heads, or -1
	inLoop     []int32 // by block index: 1 + index of the last loop it joined
	stack      []*Block
	branch     []bool // by block index: its terminator tests a loop
	iv         map[Loc]ivCount
}

type dfsFrame struct {
	b    *Block
	next int // index of the next successor to visit
}

// ivCount is findIndVars' record of one location's in-loop writes.
type ivCount struct {
	writes, updates int32
	update          *Instr // the last induction-style update
}

var loopScratches freelist.List[loopScratch]

// release drops sc's pointers into the IR and returns it to the free
// list.
func (sc *loopScratch) release() {
	sc.clearRefs()
	loopScratches.Put(sc)
}

// clearRefs drops sc's pointers into the IR.
func (sc *loopScratch) clearRefs() {
	clear(sc.frames[:cap(sc.frames)])
	clear(sc.stack[:cap(sc.stack)])
	clear(sc.iv)
}

// dominators computes the immediate dominator of every block into
// sc.idom, using the Cooper/Harvey/Kennedy iterative algorithm:
// idom[entry] == entry.
func (sc *loopScratch) dominators(f *Func) []int { return sc.dominatorTree(f, false) }

// postDominators computes immediate postdominators into sc.idom: -1
// where the nearest postdominator is the exit itself, and for blocks
// that reach no exit.
func (sc *loopScratch) postDominators(f *Func) []int {
	ipdom := sc.dominatorTree(f, true)
	for i, p := range ipdom {
		if p == len(ipdom) {
			ipdom[i] = -1
		}
	}
	return ipdom
}

// isExit reports whether b leaves the function.
func isExit(b *Block) bool {
	t := b.Terminator()
	return len(b.Succs) == 0 || (t != nil && (t.Op == Ret || t.Op == Halt))
}

// dominatorTree runs the Cooper/Harvey/Kennedy iteration over f's CFG
// from its entry (post false), or over the reversed CFG from a virtual
// exit, node len(f.Blocks), that every exit block leads to (post true).
// It returns each block's immediate (post)dominator by index, -1 for
// blocks the root does not reach; the entry is its own.
func (sc *loopScratch) dominatorTree(f *Func, post bool) []int {
	n := len(f.Blocks)
	order, postIdx := sc.reversePostorder(f, post)
	idom := freelist.Resize(sc.idom, n+1)
	sc.idom = idom
	for i := range idom {
		idom[i] = -1
	}
	if len(order) == 0 {
		return idom[:n]
	}
	idom[order[0]] = order[0]

	intersect := func(a, b int) int {
		for a != b {
			for postIdx[a] < postIdx[b] {
				a = idom[a]
			}
			for postIdx[b] < postIdx[a] {
				b = idom[b]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for _, i := range order[1:] {
			b, newIdom := f.Blocks[i], -1
			preds := b.Preds
			if post {
				preds = b.Succs
				if isExit(b) {
					newIdom = n
				}
			}
			for _, p := range preds {
				switch {
				case idom[p.Index] == -1:
				case newIdom == -1:
					newIdom = p.Index
				default:
					newIdom = intersect(newIdom, p.Index)
				}
			}
			if newIdom != -1 && idom[i] != newIdom {
				idom[i] = newIdom
				changed = true
			}
		}
	}
	return idom[:n]
}

// reversePostorder returns the nodes a depth-first search reaches in
// reverse postorder, root first, and each node's postorder index (0 for
// those not reached), in sc's tables. The search starts at the entry and
// follows successors in order (post false), or starts at a virtual exit,
// node len(f.Blocks), whose successors are the exit blocks in order, and
// follows predecessors (post true).
func (sc *loopScratch) reversePostorder(f *Func, post bool) ([]int, []int) {
	n := len(f.Blocks)
	seen := freelist.Resize(sc.seen, n)
	clear(seen)
	postIdx := freelist.Resize(sc.postIdx, n+1)
	clear(postIdx)
	order, frames := sc.order[:0], sc.frames[:0]
	for _, root := range f.Blocks {
		if post && !isExit(root) || seen[root.Index] {
			continue
		}
		seen[root.Index] = true
		frames = append(frames, dfsFrame{b: root})
		for len(frames) > 0 {
			top := &frames[len(frames)-1]
			next := top.b.Succs
			if post {
				next = top.b.Preds
			}
			if top.next < len(next) {
				s := next[top.next]
				top.next++
				if !seen[s.Index] {
					seen[s.Index] = true
					frames = append(frames, dfsFrame{b: s})
				}
				continue
			}
			postIdx[top.b.Index] = len(order)
			order = append(order, top.b.Index)
			frames = frames[:len(frames)-1]
		}
		if !post {
			break
		}
	}
	if post && len(order) > 0 {
		postIdx[n] = len(order)
		order = append(order, n)
	}
	slices.Reverse(order)
	sc.seen, sc.postIdx, sc.order, sc.frames = seen, postIdx, order, frames
	return order, postIdx
}

// Dominates reports whether a dominates b under the idom tree.
func Dominates(idom []int, a, b int) bool {
	for {
		if a == b {
			return true
		}
		if b == idom[b] || idom[b] < 0 {
			return false
		}
		b = idom[b]
	}
}

// Loop is one natural loop.
type Loop struct {
	Header *Block
	Latch  *Block   // source of the first back edge into Header, in block order
	Blocks []*Block // the body of every back edge into Header, in index order
	// Exits are edges leaving the loop: (from inside, to outside).
	Exits []LoopEdge
	// Depth is the nesting depth (1 = outermost).
	Depth int
	// Parent is the enclosing loop, if any.
	Parent *Loop
	// IndVars are recovered induction variables.
	IndVars []IndVar
}

// LoopEdge is a CFG edge.
type LoopEdge struct{ From, To *Block }

// Contains reports whether the loop body includes block index i.
func (l *Loop) Contains(i int) bool {
	_, ok := slices.BinarySearchFunc(l.Blocks, i, func(b *Block, i int) int { return cmp.Compare(b.Index, i) })
	return ok
}

// NumInstrs counts the instructions in the loop body.
func (l *Loop) NumInstrs() int {
	n := 0
	for _, b := range l.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// FindLoops detects natural loops from back edges and computes nesting.
// Blocks unreachable from the entry are ignored.
func FindLoops(f *Func) []*Loop {
	sc := loopScratches.Get()
	loops := sc.findLoops(f, nil)
	sc.release()
	return loops
}

// LoopFinder is FindLoops for a caller that finds loops again and again
// and reads each result only until the next search: it keeps its
// scratch and its Loop records, body slices included, from search to
// search. The zero value is ready to use.
type LoopFinder struct {
	sc   loopScratch
	pool loopPool
}

// Find returns f's natural loops as FindLoops does. They are valid until
// the next Find or Reset.
func (lf *LoopFinder) Find(f *Func) []*Loop {
	return lf.sc.findLoops(f, &lf.pool)
}

// Reset drops every reference into the IR that lf holds, keeping its
// memory for later searches.
func (lf *LoopFinder) Reset() {
	lf.sc.clearRefs()
	for _, l := range lf.pool.loops {
		l.reset()
	}
	clear(lf.pool.out[:cap(lf.pool.out)])
}

// loopPool holds the Loop records a LoopFinder reuses.
type loopPool struct {
	loops []*Loop // every record made so far
	out   []*Loop // the last search's result
}

// newLoop returns loop record k of a search: a kept record, emptied, or
// a new one. A nil pool makes every record new.
func (p *loopPool) newLoop(k int) *Loop {
	if p == nil {
		return &Loop{}
	}
	if k < len(p.loops) {
		l := p.loops[k]
		l.reset()
		return l
	}
	l := &Loop{}
	p.loops = append(p.loops, l)
	return l
}

// reset empties l, keeping its body, edge and induction variable arrays.
func (l *Loop) reset() {
	clear(l.Blocks[:cap(l.Blocks)])
	clear(l.Exits[:cap(l.Exits)])
	*l = Loop{Blocks: l.Blocks[:0], Exits: l.Exits[:0], IndVars: l.IndVars[:0]}
}

// findLoops is FindLoops in sc, taking its Loop records from pool.
func (sc *loopScratch) findLoops(f *Func, pool *loopPool) []*Loop {
	idom := sc.dominators(f)
	headedLoop := freelist.Resize(sc.headedLoop, len(f.Blocks))
	inLoop := freelist.Resize(sc.inLoop, len(f.Blocks))
	sc.headedLoop, sc.inLoop = headedLoop, inLoop
	for i := range headedLoop {
		headedLoop[i] = -1
	}
	clear(inLoop)
	var loops []*Loop
	if pool != nil {
		loops = pool.out[:0]
		defer func() { pool.out = loops }()
	}

	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			if idom[b.Index] < 0 || headedLoop[s.Index] >= 0 || !Dominates(idom, s.Index, b.Index) {
				continue
			}
			// First back edge b -> s: the natural loop with header s is s
			// plus every block that reaches a back-edge source into s
			// without passing through s.
			l := pool.newLoop(len(loops))
			l.Header, l.Latch = s, b
			headedLoop[s.Index] = int32(len(loops))
			loops = append(loops, l)
			stamp := int32(len(loops))
			inLoop[s.Index] = stamp
			size := 1
			stack := sc.stack[:0]
			for _, p := range s.Preds {
				if idom[p.Index] >= 0 && Dominates(idom, s.Index, p.Index) {
					stack = append(stack, p)
				}
			}
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if inLoop[x.Index] != stamp {
					inLoop[x.Index] = stamp
					size++
					stack = append(stack, x.Preds...)
				}
			}
			sc.stack = stack
			l.Blocks = slices.Grow(l.Blocks, size)
			for _, x := range f.Blocks {
				if inLoop[x.Index] == stamp {
					l.Blocks = append(l.Blocks, x)
				}
			}
		}
	}

	// Exits, nesting, depth.
	for _, l := range loops {
		for _, b := range l.Blocks {
			for _, s := range b.Succs {
				if !l.Contains(s.Index) {
					l.Exits = append(l.Exits, LoopEdge{From: b, To: s})
				}
			}
		}
		slices.SortFunc(l.Exits, func(a, b LoopEdge) int {
			if c := cmp.Compare(a.From.Index, b.From.Index); c != 0 {
				return c
			}
			return cmp.Compare(a.To.Index, b.To.Index)
		})
	}
	// Parent: the smallest strictly-containing loop.
	for _, l := range loops {
		for _, m := range loops {
			if m == l || !m.Contains(l.Header.Index) || len(m.Blocks) <= len(l.Blocks) {
				continue
			}
			if l.Parent == nil || len(m.Blocks) < len(l.Parent.Blocks) {
				l.Parent = m
			}
		}
	}
	for _, l := range loops {
		d := 1
		for p := l.Parent; p != nil; p = p.Parent {
			d++
		}
		l.Depth = d
	}
	slices.SortFunc(loops, func(a, b *Loop) int { return cmp.Compare(a.Header.Start, b.Header.Start) })
	for _, l := range loops {
		l.IndVars = sc.findIndVars(l, l.IndVars[:0])
	}
	return loops
}

// IndVar is a recovered basic induction variable: a location updated once
// per iteration by a constant step, with an optional recovered bound.
type IndVar struct {
	Loc  Loc
	Step int32
	// Init is the initial value when recoverable (a constant moved into
	// Loc in a dominating predecessor of the header).
	Init    Arg
	HasInit bool
	// Limit and LimitCond describe the loop-controlling comparison when
	// the exit branch tests this variable against a constant or
	// loop-invariant location.
	Limit     Arg
	LimitCond Cond
	HasLimit  bool
}

// TripCount returns the iteration count when Init, Step, and Limit are all
// constants and the condition is a simple counted-loop test.
func (iv *IndVar) TripCount() (int64, bool) {
	if !iv.HasInit || !iv.HasLimit || !iv.Init.IsConst || !iv.Limit.IsConst || iv.Step == 0 {
		return 0, false
	}
	init, limit, step := int64(iv.Init.Val), int64(iv.Limit.Val), int64(iv.Step)
	switch iv.LimitCond {
	case CondLT, CondLTU:
		if step > 0 && limit > init {
			return (limit - init + step - 1) / step, true
		}
	case CondLE:
		if step > 0 && limit >= init {
			return (limit - init + step) / step, true
		}
	case CondGT:
		if step < 0 && limit < init {
			return (init - limit - step - 1) / -step, true
		}
	case CondGE:
		if step < 0 && limit <= init {
			return (init - limit - step) / -step, true
		}
	case CondNE:
		if step != 0 && (limit-init)%step == 0 && (limit-init)/step > 0 {
			return (limit - init) / step, true
		}
	}
	return 0, false
}

// findIndVars recovers basic induction variables of the loop: locations
// whose only in-loop updates are a single "loc = loc + c". It appends
// them to out.
func (sc *loopScratch) findIndVars(l *Loop, out []IndVar) []IndVar {
	if sc.iv == nil {
		sc.iv = make(map[Loc]ivCount)
	}
	counts := sc.iv
	clear(counts)
	for _, b := range l.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if !in.HasDst() {
				continue
			}
			c := counts[in.Dst]
			c.writes++
			if (in.Op == Add &&
				((!in.A.IsConst && in.A.Loc == in.Dst && in.B.IsConst) ||
					(!in.B.IsConst && in.B.Loc == in.Dst && in.A.IsConst))) ||
				(in.Op == Sub && !in.A.IsConst && in.A.Loc == in.Dst && in.B.IsConst) {
				c.updates++
				c.update = in
			}
			counts[in.Dst] = c
		}
	}
	for loc, c := range counts {
		if c.writes != 1 || c.updates != 1 {
			continue
		}
		in := c.update
		var step int32
		switch {
		case in.Op == Add && in.B.IsConst:
			step = in.B.Val
		case in.Op == Add && in.A.IsConst:
			step = in.A.Val
		case in.Op == Sub:
			step = -in.B.Val
		}
		iv := IndVar{Loc: loc, Step: step}
		findIVBounds(l, &iv)
		out = append(out, iv)
	}
	slices.SortFunc(out, func(a, b IndVar) int { return cmp.Compare(a.Loc, b.Loc) })
	return out
}

// findIVBounds fills Init and Limit for an induction variable by scanning
// the header's out-of-loop predecessors and the loop's exit branches.
func findIVBounds(l *Loop, iv *IndVar) {
	// Init: last write in a predecessor of the header outside the loop.
	for _, p := range l.Header.Preds {
		if l.Contains(p.Index) {
			continue
		}
		for i := len(p.Instrs) - 1; i >= 0; i-- {
			in := &p.Instrs[i]
			if in.HasDst() && in.Dst == iv.Loc {
				if in.Op == Move {
					iv.Init = in.A
					iv.HasInit = true
				}
				break
			}
		}
	}
	// Limit: an exit branch comparing the variable, either directly or
	// through the RISC set-less-than idiom ("r1 = setlt i, n; br r1 != 0").
	for _, e := range l.Exits {
		t := e.From.Terminator()
		if t == nil || t.Op != Branch {
			continue
		}
		cmpA, cmpB, cmpCond, ok := branchComparison(e.From, t)
		if !ok {
			continue
		}
		var other Arg
		var cond Cond
		switch {
		case !cmpA.IsConst && cmpA.Loc == iv.Loc:
			other, cond = cmpB, cmpCond
		case !cmpB.IsConst && cmpB.Loc == iv.Loc:
			other, cond = cmpA, swapCond(cmpCond)
			if cond == CondNone {
				continue
			}
		default:
			continue
		}
		// The branch condition as written targets the exit or the stay
		// edge; normalize to the "stay in loop" condition.
		stays := l.Contains(blockOfTarget(e.From, t).Index)
		if !stays {
			cond = cond.Negate()
		}
		iv.Limit = other
		iv.LimitCond = cond
		iv.HasLimit = true
		break
	}
}

// branchComparison resolves the comparison a block's terminating branch
// performs, looking through the RISC "setlt + branch-nonzero" idiom.
// Returns the compared operands and the condition under which the branch
// is taken.
func branchComparison(b *Block, t *Instr) (Arg, Arg, Cond, bool) {
	if t.Op != Branch {
		return Arg{}, Arg{}, CondNone, false
	}
	// Direct comparison.
	if t.Cond != CondEQ && t.Cond != CondNE {
		return t.A, t.B, t.Cond, true
	}
	// br x ==/!= 0 where x = setlt a, b in the same block.
	zeroCmp := t.B.IsConst && t.B.Val == 0 && !t.A.IsConst
	if !zeroCmp {
		return t.A, t.B, t.Cond, true
	}
	for i := len(b.Instrs) - 2; i >= 0; i-- {
		in := &b.Instrs[i]
		if !in.HasDst() || in.Dst != t.A.Loc {
			continue
		}
		var base Cond
		switch in.Op {
		case SetLT:
			base = CondLT
		case SetLTU:
			base = CondLTU
		default:
			return t.A, t.B, t.Cond, true
		}
		if t.Cond == CondEQ { // branch taken when NOT (a < b)
			base = base.Negate()
		}
		return in.A, in.B, base, true
	}
	return t.A, t.B, t.Cond, true
}

// blockOfTarget returns the successor the branch jumps to when taken.
func blockOfTarget(b *Block, t *Instr) *Block {
	for _, s := range b.Succs {
		if s.Start == t.Target {
			return s
		}
	}
	// Degenerate: fall back to first successor.
	if len(b.Succs) > 0 {
		return b.Succs[0]
	}
	return b
}

// swapCond returns the condition with operands exchanged, or CondNone when
// the swapped form is not representable (the IR has no GTU/LEU).
func swapCond(c Cond) Cond {
	switch c {
	case CondEQ, CondNE:
		return c
	case CondLT:
		return CondGT
	case CondGT:
		return CondLT
	case CondLE:
		return CondGE
	case CondGE:
		return CondLE
	}
	return CondNone
}
