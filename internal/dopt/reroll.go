package dopt

import (
	"slices"

	"binpart/internal/ir"
)

// RerollReport summarizes loop rerolling over a function.
type RerollReport struct {
	// Rerolled lists the unroll factors undone, one entry per loop.
	Rerolled []int
	// InstrsRemoved counts instructions eliminated by rerolling.
	InstrsRemoved int
	// Factors holds, by block index, how many times as many iterations
	// each block now executes as a profile of the original binary reports:
	// 1 where no reroll rewrote it, and nil when nothing was rerolled.
	// Cycle estimators must scale.
	Factors []int
}

// Changed reports whether reroll rewrote the IR: it rerolled a loop.
func (r RerollReport) Changed() bool { return len(r.Rerolled) > 0 }

// reroll performs the paper's "loop rerolling": it detects loop bodies
// consisting of k copies of a statement group whose induction uses step
// from copy to copy, keeps one copy, and divides every induction step by
// k. This shrinks the CDFG (important for dynamic synthesis) and
// re-exposes the original memory access pattern.
//
// Register allocators rename temporaries freely between copies and
// interleave induction-offset computations ("r12 = add i, 1") with the
// copied work, so textual comparison is hopeless. The matcher instead
// proves a positional reaching-definition isomorphism:
//
//   - "offset definitions" — additions of a constant to an induction
//     variable — are lifted out of the stream and tracked as symbolic
//     bindings (iv, c), transitively;
//   - the remaining core must split into k equal contiguous groups;
//   - at matching positions, instructions must agree on op/width/cond,
//     and each operand must either (a) carry offset bindings progressing
//     by exactly step/k per copy, (b) resolve to the same matched
//     position of its own group (renamed temps), (c) resolve to the same
//     external definition (loop-invariant inputs), or (d) form a
//     reduction: the same register, fed by the previous copy at a
//     position where copy 0 writes that register.
//
// Anything else aborts the reroll, so the rewrite is semantics-preserving
// by construction.
//
// Each loop-search round computes block liveness at most once, when its
// first candidate body needs it; a successful reroll ends the round.
func (ws *workspace) reroll(f *ir.Func) RerollReport {
	var rep RerollReport
	for {
		loops := ws.loops.Find(f)
		done := true
		live := false
		for _, l := range loops {
			if k, removed := ws.tryReroll(f, l, &live); k > 1 {
				rep.Rerolled = append(rep.Rerolled, k)
				rep.InstrsRemoved += removed
				if rep.Factors == nil {
					rep.Factors = make([]int, len(f.Blocks))
					for i := range rep.Factors {
						rep.Factors[i] = 1
					}
				}
				for _, b := range l.Blocks {
					rep.Factors[b.Index] *= k
				}
				done = false
				break
			}
		}
		if done {
			return rep
		}
	}
}

// tryReroll rerolls l if its body is k copies of one group. live reports
// whether ws holds the round's liveness, and is set when tryReroll
// computes it.
func (ws *workspace) tryReroll(f *ir.Func, l *ir.Loop, live *bool) (factor, removed int) {
	if len(l.IndVars) == 0 || len(l.Blocks) > 2 {
		return 0, 0
	}
	if ws.ivStep == nil {
		ws.ivStep, ws.defsInLoop = map[ir.Loc]int32{}, map[ir.Loc]bool{}
	}
	ivStep := ws.ivStep
	clear(ivStep)
	for _, iv := range l.IndVars {
		ivStep[iv.Loc] = iv.Step
	}
	// The body is the first block, in index order, that updates every
	// induction variable.
	var body *ir.Block
	for _, b := range l.Blocks {
		if countIVUpdates(b, ivStep) == len(l.IndVars) {
			body = b
			break
		}
	}
	if body == nil {
		return 0, 0
	}
	// Locations defined anywhere in the loop (for invariance checks) and
	// whether any loop block writes memory.
	defsInLoop := ws.defsInLoop
	clear(defsInLoop)
	loopStores := false
	for _, b := range l.Blocks {
		for i := range b.Instrs {
			if b.Instrs[i].HasDst() {
				defsInLoop[b.Instrs[i].Dst] = true
			}
			if b.Instrs[i].Op == ir.Store {
				loopStores = true
			}
		}
	}
	if !*live {
		ws.liveness(f)
		*live = true
	}
	m := &ws.matcher
	if !m.reset(body, ivStep, ws.liveOut.at(body.Index), &ws.chains, defsInLoop, loopStores) {
		return 0, 0
	}
	for _, k := range []int{8, 4, 2} {
		if !stepsDivisible(l.IndVars, int32(k)) {
			continue
		}
		if m.match(k) {
			before := len(body.Instrs)
			m.apply(k)
			return k, before - len(body.Instrs)
		}
	}
	return 0, 0
}

func countIVUpdates(b *ir.Block, ivStep map[ir.Loc]int32) int {
	n := 0
	for i := range b.Instrs {
		if isIVUpdate(&b.Instrs[i], ivStep) {
			n++
		}
	}
	return n
}

func isIVUpdate(in *ir.Instr, ivStep map[ir.Loc]int32) bool {
	if !in.HasDst() {
		return false
	}
	if _, ok := ivStep[in.Dst]; !ok {
		return false
	}
	if in.Op == ir.Add &&
		((!in.A.IsConst && in.A.Loc == in.Dst && in.B.IsConst) ||
			(!in.B.IsConst && in.B.Loc == in.Dst && in.A.IsConst)) {
		return true
	}
	if in.Op == ir.Sub && !in.A.IsConst && in.A.Loc == in.Dst && in.B.IsConst {
		return true
	}
	return false
}

func stepsDivisible(ivs []ir.IndVar, k int32) bool {
	for _, iv := range ivs {
		if iv.Step%k != 0 || iv.Step/k == 0 {
			return false
		}
	}
	return true
}

// instrClass labels each body instruction for the matcher.
type instrClass int

const (
	classCore instrClass = iota
	classOffset
	classInvariant
	classUpdate
	classTerm
)

// offsetBinding is the symbolic value (iv + c) carried by an offset def.
type offsetBinding struct {
	iv ir.Loc
	c  int32
}

// reduction records a loop-carried accumulator chain discovered during
// matching: copy j reads (at read position p, operand slot) the value the
// previous copy wrote at position q; copies may rename the accumulator
// register, so the kept copy is rewritten to use the carried register.
// A chain has at least one read; one with none records no reduction.
type reduction struct {
	carried ir.Loc // register holding the loop-carried input of copy 0
	readPos []int  // core positions (within group) reading the carried value
	readA   []bool // true when the A operand is the carried read
}

// rerollMatcher holds the analyzed body block.
type rerollMatcher struct {
	b       *ir.Block
	ivStep  map[ir.Loc]int32
	classes []instrClass
	// binding[i] is the symbolic (iv+c) computed by offset def i, read
	// only where classes[i] is classOffset.
	binding []offsetBinding
	// defOf[i][0/1] is the in-block reaching def of instr i's A/B operand.
	bc *blockChains
	// core lists the stream indices of core instructions in order.
	core []int
	// coreIdx maps stream index -> core position, or -1.
	coreIdx    []int
	liveOut    locSet
	defsInLoop map[ir.Loc]bool
	loopStores bool
	// reductions[q] is the chain whose carried write is at core position
	// q of the group; populated during match, consumed by apply.
	reductions []reduction
	// dstMismatch[p] records that copies rename the destination at core
	// position p; each must be resolved by a reduction.
	dstMismatch []bool
}

// reset makes m analyze body block b, building its def chains in bc and
// reusing m's buffers. It reports false when b cannot be rerolled.
func (m *rerollMatcher) reset(b *ir.Block, ivStep map[ir.Loc]int32, liveOut locSet, bc *blockChains, defsInLoop map[ir.Loc]bool, loopStores bool) bool {
	bc.reset(b, liveOut)
	*m = rerollMatcher{
		b:           b,
		ivStep:      ivStep,
		classes:     reuse(m.classes, len(b.Instrs)),
		binding:     reuse(m.binding, len(b.Instrs)),
		bc:          bc,
		core:        m.core[:0],
		coreIdx:     reuse(m.coreIdx, len(b.Instrs)),
		liveOut:     liveOut,
		defsInLoop:  defsInLoop,
		loopStores:  loopStores,
		reductions:  m.reductions,
		dstMismatch: m.dstMismatch,
	}
	for i := range b.Instrs {
		in := &b.Instrs[i]
		m.coreIdx[i] = -1
		switch {
		case in.Op == ir.Nop:
			m.classes[i] = classTerm // ignorable
		case in.Op == ir.Jump || in.Op == ir.Branch || in.Op == ir.Ret || in.Op == ir.Halt:
			if i != len(b.Instrs)-1 {
				return false
			}
			m.classes[i] = classTerm
		case in.Op == ir.Call || in.Op == ir.IJump:
			return false
		case isIVUpdate(in, ivStep):
			m.classes[i] = classUpdate
		default:
			if bind, ok := m.offsetDef(i); ok {
				m.classes[i] = classOffset
				m.binding[i] = bind
				continue
			}
			if m.invariantDef(i) {
				// Loop-invariant computation (CSE leftovers, hoisted
				// address math, invariant reloads); it is shared across
				// copies rather than replicated, so it floats outside
				// the matched groups.
				m.classes[i] = classInvariant
				continue
			}
			m.classes[i] = classCore
			m.coreIdx[i] = len(m.core)
			m.core = append(m.core, i)
		}
	}
	return true
}

// invariantDef reports whether instruction i computes a loop-invariant
// value: a pure operation whose operands are constants, locations never
// defined in the loop, or other invariant definitions. Loads qualify only
// when the loop writes no memory at all.
func (m *rerollMatcher) invariantDef(i int) bool {
	in := &m.b.Instrs[i]
	if !in.HasDst() {
		return false
	}
	if _, isIV := m.ivStep[in.Dst]; isIV {
		return false
	}
	switch {
	case in.Op.IsBinary() || in.Op == ir.Move:
	case in.Op == ir.Load:
		if m.loopStores {
			return false
		}
	default:
		return false
	}
	check := func(a ir.Arg, def int) bool {
		if a.IsConst {
			return true
		}
		if def >= 0 {
			return m.classes[def] == classInvariant
		}
		return !m.defsInLoop[a.Loc]
	}
	switch {
	case in.Op == ir.Move || in.Op == ir.Load:
		return check(in.A, m.bc.defOfA[i])
	default:
		return check(in.A, m.bc.defOfA[i]) && check(in.B, m.bc.defOfB[i])
	}
}

// invariantEqual reports whether two invariant definitions compute the
// same value: either literally the same instruction, or structurally
// identical trees over shared inputs.
func (m *rerollMatcher) invariantEqual(d0, dj int) bool {
	if d0 == dj {
		return true
	}
	if d0 < 0 || dj < 0 {
		return false
	}
	a := &m.b.Instrs[d0]
	b := &m.b.Instrs[dj]
	if a.Op != b.Op || a.Width != b.Width || a.Signed != b.Signed || a.Off != b.Off {
		return false
	}
	argEq := func(x, y ir.Arg, dx, dy int) bool {
		if x.IsConst != y.IsConst {
			return false
		}
		if x.IsConst {
			return x.Val == y.Val
		}
		if dx < 0 && dy < 0 {
			return x.Loc == y.Loc
		}
		return m.invariantEqual(dx, dy)
	}
	if !argEq(a.A, b.A, m.bc.defOfA[d0], m.bc.defOfA[dj]) {
		return false
	}
	if a.Op == ir.Move || a.Op == ir.Load {
		return true
	}
	return argEq(a.B, b.B, m.bc.defOfB[d0], m.bc.defOfB[dj])
}

// offsetDef recognizes "x = add/sub (iv or offset-bound), const" where x
// is not itself an induction variable and the value never escapes.
func (m *rerollMatcher) offsetDef(i int) (offsetBinding, bool) {
	in := &m.b.Instrs[i]
	if in.Op != ir.Add && in.Op != ir.Sub {
		return offsetBinding{}, false
	}
	if _, isIV := m.ivStep[in.Dst]; isIV {
		return offsetBinding{}, false
	}
	if m.bc.escapes[i] {
		return offsetBinding{}, false
	}
	var u ir.Arg
	var c int32
	var uDef int
	switch {
	case !in.A.IsConst && in.B.IsConst:
		u, c, uDef = in.A, in.B.Val, m.bc.defOfA[i]
		if in.Op == ir.Sub {
			c = -c
		}
	case in.Op == ir.Add && in.A.IsConst && !in.B.IsConst:
		u, c, uDef = in.B, in.A.Val, m.bc.defOfB[i]
	default:
		return offsetBinding{}, false
	}
	if bind, ok := m.operandBinding(u, uDef); ok {
		return offsetBinding{iv: bind.iv, c: bind.c + c}, true
	}
	return offsetBinding{}, false
}

// operandBinding resolves an operand to a symbolic (iv + c) value if it is
// an induction variable or an offset def.
func (m *rerollMatcher) operandBinding(a ir.Arg, def int) (offsetBinding, bool) {
	if a.IsConst {
		return offsetBinding{}, false
	}
	if def >= 0 {
		return m.binding[def], m.classes[def] == classOffset
	}
	// Defined outside the block: the induction variable itself (its
	// in-block update is classified separately and always follows the
	// core in unrolled bodies; a core read after the update would resolve
	// to the update instr, which carries no binding and fails the match).
	if _, ok := m.ivStep[a.Loc]; ok {
		return offsetBinding{iv: a.Loc, c: 0}, true
	}
	return offsetBinding{}, false
}

// match verifies the k-way isomorphism.
func (m *rerollMatcher) match(k int) bool {
	n := len(m.core)
	if n < 2 || n%k != 0 {
		return false
	}
	g := n / k // group length
	m.reductions = slices.Grow(m.reductions[:0], g)[:g]
	for q := range m.reductions {
		red := &m.reductions[q]
		*red = reduction{readPos: red.readPos[:0], readA: red.readA[:0]}
	}
	m.dstMismatch = reuse(m.dstMismatch, g)
	for j := 1; j < k; j++ {
		for p := 0; p < g; p++ {
			i0 := m.core[p]
			ij := m.core[j*g+p]
			if !m.matchInstr(j, k, g, p, i0, ij) {
				return false
			}
		}
	}
	return m.validateReductions(k, g)
}

// validateReductions checks that every reduction chain is well formed and
// every destination rename is explained by one.
func (m *rerollMatcher) validateReductions(k, g int) bool {
	for q := range m.reductions {
		red := &m.reductions[q]
		if len(red.readPos) == 0 {
			continue
		}
		// The final copy's write must land in the carried register so the
		// live-out value is where downstream code expects it.
		last := &m.b.Instrs[m.core[(k-1)*g+q]]
		if !last.HasDst() || last.Dst != red.carried {
			return false
		}
		// Intermediate copies' carried writes must have exactly one
		// consumer (the next copy); otherwise renaming the kept copy's
		// destination would break another reader.
		for j := 0; j < k-1; j++ {
			if m.bc.useCount[m.core[j*g+q]] != 1 {
				return false
			}
		}
		// After renaming, a read placed after the carried write would see
		// the current iteration's value instead of the previous one.
		for _, p := range red.readPos {
			if p > q {
				return false
			}
		}
	}
	for p, renamed := range m.dstMismatch {
		if renamed && len(m.reductions[p].readPos) == 0 {
			return false
		}
	}
	return true
}

func (m *rerollMatcher) matchInstr(j, k, g, p, i0, ij int) bool {
	a := &m.b.Instrs[i0]
	b := &m.b.Instrs[ij]
	if a.Op != b.Op || a.Width != b.Width || a.Signed != b.Signed || a.Cond != b.Cond {
		return false
	}
	if a.HasDst() != b.HasDst() {
		return false
	}
	if a.HasDst() && a.Dst != b.Dst && (m.bc.escapes[i0] || m.bc.escapes[ij]) {
		// An escaping renamed destination is only legal as a reduction
		// accumulator; validated after the full match.
		m.dstMismatch[p] = true
	}
	// Offsets: for loads/stores the displacement may progress if the base
	// operand's binding progression absorbs it; combined below.
	offDelta := b.Off - a.Off

	okA := m.matchOperand(j, k, g, p, true, a.A, b.A, m.bc.defOfA[i0], m.bc.defOfA[ij],
		pick(a.Op == ir.Load, offDelta, 0))
	okB := m.matchOperand(j, k, g, p, false, a.B, b.B, m.bc.defOfB[i0], m.bc.defOfB[ij],
		pick(a.Op == ir.Store, offDelta, 0))
	if !okA || !okB {
		return false
	}
	// A displacement delta is only allowed on the memory base operand;
	// for everything else offsets must agree.
	if a.Op != ir.Load && a.Op != ir.Store && offDelta != 0 {
		return false
	}
	return true
}

func pick(cond bool, a, b int32) int32 {
	if cond {
		return a
	}
	return b
}

// matchOperand checks one operand pair at group distance j. p is the core
// position within the group and slotA says which operand slot this is
// (for reduction bookkeeping). extraDelta is the load/store displacement
// difference to absorb into the induction progression when this operand
// is the memory base.
func (m *rerollMatcher) matchOperand(j, k, g, p int, slotA bool, a0, aj ir.Arg, d0, dj int, extraDelta int32) bool {
	if a0.IsConst != aj.IsConst {
		return false
	}
	if a0.IsConst {
		return a0.Val == aj.Val && extraDelta == 0
	}
	b0, ok0 := m.operandBinding(a0, d0)
	bj, okj := m.operandBinding(aj, dj)
	if ok0 || okj {
		if !ok0 || !okj || b0.iv != bj.iv {
			return false
		}
		step := m.ivStep[b0.iv]
		want := step / int32(k) * int32(j)
		return (bj.c+extraDelta)-b0.c == want
	}
	// Loop-invariant definitions: both sides must compute the same
	// invariant value (usually literally the same shared instruction).
	inv0 := d0 >= 0 && m.classes[d0] == classInvariant
	invj := dj >= 0 && m.classes[dj] == classInvariant
	if inv0 || invj {
		if !inv0 || !invj || extraDelta != 0 {
			return false
		}
		return m.invariantEqual(d0, dj)
	}
	if extraDelta != 0 {
		return false
	}
	// Both core or external.
	c0, cj := coreOf(m.coreIdx, d0), coreOf(m.coreIdx, dj)
	switch {
	case c0 >= 0 && cj >= 0:
		// Renamed temps: same position within their own groups, exactly
		// one group apart per copy distance.
		return cj%g == c0%g && cj/g == c0/g+j
	case c0 < 0 && cj < 0:
		return a0.Loc == aj.Loc && d0 == dj
	case c0 < 0 && cj >= 0:
		// Reduction: copy j reads what the previous copy wrote; copy 0
		// reads the loop-carried input (an external definition). The
		// accumulator register may be renamed between copies.
		if cj/g != j-1 {
			return false
		}
		red := &m.reductions[cj%g]
		if len(red.readPos) == 0 {
			red.carried = a0.Loc
			red.readPos = append(red.readPos, p)
			red.readA = append(red.readA, slotA)
		} else if red.carried != a0.Loc {
			return false
		} else if j == 1 {
			// Another read site discovered during the first copy pass.
			seen := false
			for idx, rp := range red.readPos {
				if rp == p && red.readA[idx] == slotA {
					seen = true
				}
			}
			if !seen {
				red.readPos = append(red.readPos, p)
				red.readA = append(red.readA, slotA)
			}
		}
		return true
	default:
		return false
	}
}

func coreOf(coreIdx []int, def int) int {
	if def < 0 {
		return -1
	}
	return coreIdx[def]
}

// apply rewrites the body: keep the first group's core instructions plus
// any offset/invariant defs they depend on, rename reduction accumulators
// to the loop-carried register, scale induction updates by 1/k, keep the
// terminator, and drop everything else.
func (m *rerollMatcher) apply(k int) {
	g := len(m.core) / k

	// Reduction renames on the kept copy.
	for q := range m.reductions {
		red := &m.reductions[q]
		if len(red.readPos) == 0 {
			continue
		}
		w := &m.b.Instrs[m.core[q]]
		w.Dst = red.carried
		for idx, p := range red.readPos {
			r := &m.b.Instrs[m.core[p]]
			if red.readA[idx] {
				r.A.Loc = red.carried
			} else {
				r.B.Loc = red.carried
			}
		}
	}

	keep := make([]bool, len(m.b.Instrs))
	for p := 0; p < g; p++ {
		keep[m.core[p]] = true
	}
	for i, cls := range m.classes {
		switch cls {
		case classUpdate, classTerm:
			keep[i] = true
		case classInvariant:
			if m.bc.escapes[i] {
				keep[i] = true
			}
		}
	}
	// Offset and invariant defs: keep those (transitively) feeding kept
	// instructions.
	for changed := true; changed; {
		changed = false
		for i := range m.b.Instrs {
			if !keep[i] {
				continue
			}
			for _, d := range []int{m.bc.defOfA[i], m.bc.defOfB[i]} {
				if d >= 0 && !keep[d] && (m.classes[d] == classOffset || m.classes[d] == classInvariant) {
					keep[d] = true
					changed = true
				}
			}
		}
	}
	var out []ir.Instr
	for i := range m.b.Instrs {
		if !keep[i] {
			continue
		}
		in := m.b.Instrs[i]
		if m.classes[i] == classUpdate {
			if in.A.IsConst {
				in.A.Val /= int32(k)
			} else {
				in.B.Val /= int32(k)
			}
		}
		out = append(out, in)
	}
	m.b.Instrs = out
}
