package dopt

import "binpart/internal/ir"

// This file keeps the straightforward implementations the dense passes
// replaced, as test-only oracles: a scanning copy environment for
// constProp, block liveness that reruns every instruction's transfer in
// each fixpoint round, foldMoves with a forward use scan per move,
// deadCode with its own liveness fixpoint, and map-keyed globalConstProp
// and reduceWidths.
// optimizeOracle composes them in OptimizeWith's order, with every
// cleanup run. The differential tests require the optimized passes to
// produce the same IR and reports.

// constPropOracle is constProp over scanEnv.
func constPropOracle(f *ir.Func) int {
	env := scanEnv{
		val:   make([]ir.Arg, locSpace(f)),
		stamp: make([]uint32, locSpace(f)),
	}
	changed := 0
	for _, b := range f.Blocks {
		env.epoch++
		for i := range b.Instrs {
			in := &b.Instrs[i]
			beforeOp, beforeA, beforeB := in.Op, in.A, in.B
			switch {
			case in.Op.IsBinary():
				in.A, in.B = env.sub(in.A), env.sub(in.B)
				simplify(in)
			case in.Op == ir.Move || in.Op == ir.IJump || in.Op == ir.Load:
				in.A = env.sub(in.A)
			case in.Op == ir.Store:
				in.A, in.B = env.sub(in.A), env.sub(in.B)
			case in.Op == ir.Branch:
				in.A, in.B = env.sub(in.A), env.sub(in.B)
			}
			if in.Op != beforeOp || in.A != beforeA || in.B != beforeB {
				changed++
			}
			if in.HasDst() {
				env.invalidate(in.Dst)
				if in.Op == ir.Move && (in.A.IsConst || in.A.Loc != in.Dst) {
					env.define(in.Dst, in.A)
				}
			}
			if in.Op == ir.Call {
				for _, l := range callClobbered {
					env.invalidate(l)
				}
			}
		}
	}
	return changed
}

// scanEnv is an epoch-stamped binding environment whose invalidate scans
// the whole location space for copy bindings reading the location.
type scanEnv struct {
	val   []ir.Arg
	stamp []uint32
	epoch uint32
}

func (e *scanEnv) sub(a ir.Arg) ir.Arg {
	if a.IsConst {
		return a
	}
	if a.Loc == ir.RegZero {
		return ir.C(0)
	}
	if e.stamp[a.Loc] == e.epoch {
		return e.val[a.Loc]
	}
	return a
}

func (e *scanEnv) define(l ir.Loc, a ir.Arg) {
	e.val[l] = a
	e.stamp[l] = e.epoch
}

func (e *scanEnv) invalidate(l ir.Loc) {
	e.stamp[l] = 0
	for k := range e.val {
		if e.stamp[k] == e.epoch && !e.val[k].IsConst && e.val[k].Loc == l {
			e.stamp[k] = 0
		}
	}
}

// abiLivenessOracle is block liveness as a fixpoint that runs every
// instruction's transfer in every round.
func abiLivenessOracle(f *ir.Func) (liveIn, liveOut locSets) {
	n := len(f.Blocks)
	sets := resetLocSets(locSets{}, 2*n+1, locSpace(f))
	liveIn, liveOut = sets.slice(0, n), sets.slice(n, 2*n)
	live := sets.at(2 * n)
	var ub [2]ir.Loc
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			b := f.Blocks[i]
			live.reset()
			for _, s := range b.Succs {
				live.or(liveIn.at(s.Index))
			}
			if liveOut.at(i).or(live) {
				changed = true
			}
			for j := len(b.Instrs) - 1; j >= 0; j-- {
				in := &b.Instrs[j]
				if in.HasDst() {
					live.clear(in.Dst)
				}
				if in.Op == ir.Call {
					for _, l := range callClobbered {
						live.clear(l)
					}
				}
				for _, u := range effUses(in, ub[:0]) {
					live.set(u)
				}
			}
			if liveIn.at(i).or(live) {
				changed = true
			}
		}
	}
	return liveIn, liveOut
}

// foldMovesOracle is foldMoves with a forward usedLater scan per move.
func foldMovesOracle(f *ir.Func) int {
	_, liveOut := abiLivenessOracle(f)
	folded := 0
	for _, b := range f.Blocks {
		for i := 1; i < len(b.Instrs); i++ {
			mv := &b.Instrs[i]
			if mv.Op != ir.Move || mv.A.IsConst {
				continue
			}
			x := mv.A.Loc
			if x == ir.RegZero || x == mv.Dst {
				continue
			}
			prev := &b.Instrs[i-1]
			if !prev.HasDst() || prev.Dst != x || prev.Op == ir.Move {
				continue
			}
			if usedLater(b, i+1, x) || liveOut.at(b.Index).has(x) {
				continue
			}
			prev.Dst = mv.Dst
			*mv = ir.Instr{Op: ir.Nop, Addr: mv.Addr}
			folded++
		}
	}
	return folded
}

// usedLater reports whether loc is read in b at or after index from,
// before being redefined.
func usedLater(b *ir.Block, from int, loc ir.Loc) bool {
	var ub [2]ir.Loc
	for i := from; i < len(b.Instrs); i++ {
		in := &b.Instrs[i]
		for _, u := range effUses(in, ub[:0]) {
			if u == loc {
				return true
			}
		}
		if in.Op == ir.Call {
			for _, l := range callClobbered {
				if l == loc {
					return false
				}
			}
		}
		if in.HasDst() && in.Dst == loc {
			return false
		}
	}
	return false
}

// deadCodeOracle is deadCode running its own block-liveness fixpoint.
func deadCodeOracle(f *ir.Func) int {
	n := len(f.Blocks)
	sets := resetLocSets(locSets{}, n+1, locSpace(f))
	liveIn, live := sets.slice(0, n), sets.at(n)
	var ub [2]ir.Loc
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			b := f.Blocks[i]
			live.reset()
			for _, s := range b.Succs {
				live.or(liveIn.at(s.Index))
			}
			for j := len(b.Instrs) - 1; j >= 0; j-- {
				in := &b.Instrs[j]
				if in.HasDst() {
					live.clear(in.Dst)
				}
				if in.Op == ir.Call {
					for _, l := range callClobbered {
						live.clear(l)
					}
				}
				for _, u := range effUses(in, ub[:0]) {
					live.set(u)
				}
			}
			if liveIn.at(i).or(live) {
				changed = true
			}
		}
	}

	removed := 0
	for i := n - 1; i >= 0; i-- {
		b := f.Blocks[i]
		live.reset()
		for _, s := range b.Succs {
			live.or(liveIn.at(s.Index))
		}
		for j := len(b.Instrs) - 1; j >= 0; j-- {
			in := &b.Instrs[j]
			if in.HasDst() && !live.has(in.Dst) && pure(in) {
				*in = ir.Instr{Op: ir.Nop, Addr: in.Addr}
				removed++
				continue
			}
			if in.HasDst() {
				live.clear(in.Dst)
			}
			if in.Op == ir.Call {
				for _, l := range callClobbered {
					live.clear(l)
				}
			}
			for _, u := range effUses(in, ub[:0]) {
				live.set(u)
			}
		}
	}
	for _, b := range f.Blocks {
		out := b.Instrs[:0]
		for _, in := range b.Instrs {
			if in.Op != ir.Nop {
				out = append(out, in)
			}
		}
		b.Instrs = out
	}
	return removed
}

// globalConstPropOracle is globalConstProp over maps.
func globalConstPropOracle(f *ir.Func) int {
	if len(f.Blocks) == 0 {
		return 0
	}
	defCount := map[ir.Loc]int{}
	constVal := map[ir.Loc]int32{}
	inEntry := map[ir.Loc]bool{}
	for bi, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if !in.HasDst() {
				continue
			}
			defCount[in.Dst]++
			if in.Op == ir.Move && in.A.IsConst {
				constVal[in.Dst] = in.A.Val
				inEntry[in.Dst] = bi == 0
			} else {
				delete(constVal, in.Dst)
			}
		}
	}
	sub := map[ir.Loc]int32{}
	for loc, v := range constVal {
		if defCount[loc] == 1 && inEntry[loc] {
			sub[loc] = v
		}
	}
	if len(sub) == 0 {
		return 0
	}
	n := 0
	seenDef := map[ir.Loc]bool{}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			rewrite := func(a *ir.Arg) {
				if a.IsConst {
					return
				}
				if v, ok := sub[a.Loc]; ok && seenDef[a.Loc] {
					*a = ir.C(v)
					n++
				}
			}
			switch {
			case in.Op.IsBinary() || in.Op == ir.Branch || in.Op == ir.Store:
				rewrite(&in.A)
				rewrite(&in.B)
			case in.Op == ir.Move || in.Op == ir.Load || in.Op == ir.IJump:
				rewrite(&in.A)
			}
			if in.HasDst() {
				if _, ok := sub[in.Dst]; ok {
					seenDef[in.Dst] = true
				}
			}
		}
	}
	return n
}

// reduceWidthsOracle is reduceWidths over a map-keyed fixpoint. It
// iterates to the fixpoint without a round cap, as reduceWidths does.
func reduceWidthsOracle(f *ir.Func) WidthReport {
	width := map[ir.Loc]int{}
	get := func(a ir.Arg) int {
		if a.IsConst {
			return constBits(a.Val)
		}
		if a.Loc == ir.RegZero {
			return 1
		}
		if w, ok := width[a.Loc]; ok {
			return w
		}
		return 32
	}
	defWidth := func(in *ir.Instr) int {
		switch in.Op {
		case ir.Move:
			return get(in.A)
		case ir.Load:
			return 8 * int(in.Width)
		case ir.SetLT, ir.SetLTU:
			return 1
		case ir.Add, ir.Sub:
			return min(max(get(in.A), get(in.B))+1, 32)
		case ir.Mul:
			return min(get(in.A)+get(in.B), 32)
		case ir.MulH, ir.MulHU:
			return 32
		case ir.Div, ir.DivU, ir.Rem, ir.RemU:
			return get(in.A)
		case ir.And:
			return min(get(in.A), get(in.B))
		case ir.Or, ir.Xor:
			return max(get(in.A), get(in.B))
		case ir.Shl:
			if in.B.IsConst {
				return min(get(in.A)+int(in.B.Val&31), 32)
			}
			return 32
		case ir.ShrL, ir.ShrA:
			if in.B.IsConst {
				w := get(in.A) - int(in.B.Val&31)
				if w < 1 {
					return 1
				}
				return w
			}
			return get(in.A)
		}
		return 32
	}
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if !in.HasDst() {
					continue
				}
				w := defWidth(in)
				old, ok := width[in.Dst]
				if !ok || w > old {
					width[in.Dst] = w
					changed = true
				}
			}
		}
	}
	var rep WidthReport
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if !in.Op.IsBinary() {
				continue
			}
			w := defWidth(in)
			in.WidthBits = uint8(w)
			rep.TotalOps++
			if w < 32 {
				rep.OpsNarrowed++
				rep.BitsSaved += 32 - w
			}
		}
	}
	return rep
}

// cleanupOracle is cleanup over the oracle passes.
func cleanupOracle(f *ir.Func) bool {
	for i := 0; i < cleanupRounds; i++ {
		c := constPropOracle(f)
		c += globalConstPropOracle(f)
		c += foldMovesOracle(f)
		c += deadCodeOracle(f)
		if c == 0 {
			return true
		}
	}
	return false
}

// optimizeOracle is OptimizeWith over the oracle passes, running every
// cleanup.
func optimizeOracle(f *ir.Func, cfg Config) Report {
	var rep Report
	constPropOracle(f)
	rep.MovesFolded += foldMovesOracle(f)
	rep.DeadRemoved += deadCodeOracle(f)
	cleanupOracle(f)
	if !cfg.NoStackRemoval {
		rep.Stack = RemoveStackOps(f)
		cleanupOracle(f)
	}
	if !cfg.NoReroll {
		rep.Reroll = runPass(f, (*workspace).reroll)
	}
	if !cfg.NoPromote {
		rep.Promote = runPass(f, (*workspace).promoteStrength)
	}
	cleanupOracle(f)
	rep.StrengthReduced = StrengthReduce(f)
	cleanupOracle(f)
	if !cfg.NoWidthReduce {
		rep.Width = reduceWidthsOracle(f)
	}
	return rep
}
