package dopt

import "binpart/internal/ir"

// StrengthReduce rewrites multiplications, unsigned divisions and
// remainders by powers of two into shifts and masks. For synthesis this
// trades a multiplier/divider block for wiring. Returns the number of
// instructions rewritten.
func StrengthReduce(f *ir.Func) int {
	n := 0
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch in.Op {
			case ir.Mul:
				c, x, ok := constSide(in)
				if ok && isPow2(c) {
					*in = ir.Instr{Op: ir.Shl, Dst: in.Dst, A: x, B: ir.C(log2u(c)), Addr: in.Addr}
					n++
				}
			case ir.DivU:
				if in.B.IsConst && isPow2(in.B.Val) {
					*in = ir.Instr{Op: ir.ShrL, Dst: in.Dst, A: in.A, B: ir.C(log2u(in.B.Val)), Addr: in.Addr}
					n++
				}
			case ir.RemU:
				if in.B.IsConst && isPow2(in.B.Val) {
					*in = ir.Instr{Op: ir.And, Dst: in.Dst, A: in.A, B: ir.C(in.B.Val - 1), Addr: in.Addr}
					n++
				}
			}
		}
	}
	return n
}

func constSide(in *ir.Instr) (int32, ir.Arg, bool) {
	if in.B.IsConst && !in.A.IsConst {
		return in.B.Val, in.A, true
	}
	if in.A.IsConst && !in.B.IsConst {
		return in.A.Val, in.B, true
	}
	return 0, ir.Arg{}, false
}

func isPow2(v int32) bool { return v > 0 && v&(v-1) == 0 }

func log2u(v int32) int32 {
	n := int32(0)
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// PromoteReport summarizes strength promotion.
type PromoteReport struct {
	// Multiplies is the number of multiplications recovered.
	Multiplies int
	// OpsCollapsed is the number of shift/add/sub instructions subsumed.
	OpsCollapsed int
}

// Changed reports whether promoteStrength rewrote the IR: it recovered
// a multiplication.
func (r PromoteReport) Changed() bool { return r.Multiplies > 0 }

// promoteStrength performs the paper's "strength promotion": shift/add/sub
// sequences that compute x*C (the residue of compiler strength reduction)
// are folded back into a single multiplication, restoring the synthesis
// tool's freedom to pick the best implementation. Only sequences of at
// least two operations with a non-power-of-two coefficient are promoted
// (a single shift is already the best hardware).
//
// Compilers reuse registers freely, so the analysis works over reaching
// definitions within a block rather than register names: each operand is
// resolved to the instruction that defined it, and an intermediate
// definition may be subsumed only if that one instruction is its sole
// consumer and its value does not escape the block.
func (ws *workspace) promoteStrength(f *ir.Func) PromoteReport {
	var rep PromoteReport
	ws.liveness(f)
	bc := &ws.chains
	for _, b := range f.Blocks {
		liveOut := ws.liveOut.at(b.Index)
		bc.reset(b, liveOut)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op != ir.Add && in.Op != ir.Sub {
				continue
			}
			base, coeff, members, ok := bc.linearChain(i)
			if !ok || len(members) < 2 || isPow2(coeff) || coeff == 0 || coeff == 1 {
				continue
			}
			*in = ir.Instr{Op: ir.Mul, Dst: in.Dst, A: ir.L(base), B: ir.C(coeff), Addr: in.Addr}
			rep.Multiplies++
			rep.OpsCollapsed += len(members)
			// Definitions changed; rebuild the block's def chains.
			bc.reset(b, liveOut)
		}
	}
	return rep
}

// blockChains resolves in-block reaching definitions: for every
// instruction operand, which instruction (index) defined it, and for
// every definition, how many in-block consumers it has and whether its
// value escapes the block.
type blockChains struct {
	b *ir.Block
	// defOfA/defOfB: per instruction, the in-block def index of the A/B
	// operand, or -1 (defined outside the block / constant).
	defOfA, defOfB []int
	useCount       []int
	escapes        []bool
	// lastDef is scratch over the location space: the reaching def of
	// each location during reset, -1 for none. It is all -1 between
	// resets.
	lastDef []int32
}

// reset rebuilds the chains for block b, reusing bc's buffers. liveOut
// spans the function's location space.
func (bc *blockChains) reset(b *ir.Block, liveOut locSet) {
	n := len(b.Instrs)
	bc.b = b
	bc.defOfA = reuse(bc.defOfA, n)
	bc.defOfB = reuse(bc.defOfB, n)
	bc.useCount = reuse(bc.useCount, n)
	bc.escapes = reuse(bc.escapes, n)
	if space := 64 * len(liveOut); len(bc.lastDef) < space {
		bc.lastDef = make([]int32, space)
		for i := range bc.lastDef {
			bc.lastDef[i] = -1
		}
	}
	lastDef := bc.lastDef
	resolve := func(a ir.Arg) int {
		if a.IsConst {
			return -1
		}
		return int(lastDef[a.Loc])
	}
	var ub [2]ir.Loc
	for i := range b.Instrs {
		in := &b.Instrs[i]
		bc.defOfA[i] = resolve(in.A)
		bc.defOfB[i] = resolve(in.B)
		// Count consumers: every read of a location resolves to its
		// reaching def.
		for _, u := range effUses(in, ub[:0]) {
			if d := lastDef[u]; d >= 0 {
				bc.useCount[d]++
			}
		}
		if in.HasDst() {
			lastDef[in.Dst] = int32(i)
		}
	}
	// The final def of a live-out location escapes; so does anything a
	// call could observe indirectly (covered by effUses of the call).
	// Visiting each final def also restores lastDef to all -1.
	for i := range b.Instrs {
		if in := &b.Instrs[i]; in.HasDst() && lastDef[in.Dst] == int32(i) {
			bc.escapes[i] = liveOut.has(in.Dst)
			lastDef[in.Dst] = -1
		}
	}
}

// reuse returns s resized to n zero values, reusing its array when large
// enough.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// linearChain tries to express the value computed at instruction index
// root as coeff*base, where base is a specific reaching definition (or a
// block-external location). Returns the base location, coefficient, and
// the chain member indices that the promotion subsumes.
func (bc *blockChains) linearChain(root int) (ir.Loc, int32, []int, bool) {
	var base ir.Loc
	baseDef := -2 // reaching def of the base; -1 = defined outside block
	haveBase := false
	var members []int

	var eval func(a ir.Arg, def int) (int64, bool)
	eval = func(a ir.Arg, def int) (int64, bool) {
		if a.IsConst {
			// Only a literal zero is compatible with pure x*C form
			// (it contributes coefficient 0, e.g. "sub 0, x").
			if a.Val == 0 {
				return 0, true
			}
			return 0, false
		}
		if def >= 0 {
			in := &bc.b.Instrs[def]
			if bc.useCount[def] == 1 && !bc.escapes[def] {
				switch in.Op {
				case ir.Shl:
					if in.B.IsConst {
						if c, ok := eval(in.A, bc.defOfA[def]); ok {
							members = append(members, def)
							return c << uint(in.B.Val&31), true
						}
					}
				case ir.Add, ir.Sub:
					l, ok := eval(in.A, bc.defOfA[def])
					if !ok {
						break
					}
					r, ok2 := eval(in.B, bc.defOfB[def])
					if !ok2 {
						break
					}
					members = append(members, def)
					if in.Op == ir.Add {
						return l + r, true
					}
					return l - r, true
				case ir.Mul:
					// A multiply by a constant composes linearly; this
					// lets an outer chain subsume an inner promotion.
					if in.B.IsConst {
						if c, ok := eval(in.A, bc.defOfA[def]); ok {
							members = append(members, def)
							return c * int64(in.B.Val), true
						}
					} else if in.A.IsConst {
						if c, ok := eval(in.B, bc.defOfB[def]); ok {
							members = append(members, def)
							return c * int64(in.A.Val), true
						}
					}
				case ir.Move:
					if !in.A.IsConst {
						if c, ok := eval(in.A, bc.defOfA[def]); ok {
							members = append(members, def)
							return c, true
						}
					}
				}
			}
		}
		// Leaf: a use of the base value. All leaves must refer to the
		// same reaching definition.
		if !haveBase {
			base, baseDef, haveBase = a.Loc, def, true
		}
		if a.Loc != base || def != baseDef {
			return 0, false
		}
		return 1, true
	}

	in := &bc.b.Instrs[root]
	l, ok := eval(in.A, bc.defOfA[root])
	if !ok {
		return 0, 0, nil, false
	}
	r, ok := eval(in.B, bc.defOfB[root])
	if !ok {
		return 0, 0, nil, false
	}
	var coeff int64
	if in.Op == ir.Add {
		coeff = l + r
	} else {
		coeff = l - r
	}
	if !haveBase || coeff < -(1<<31) || coeff > (1<<31)-1 {
		return 0, 0, nil, false
	}
	// The promoted multiply reads the base at root; the base's reaching
	// def at root must still be baseDef (no redefinition in between).
	cur := -1
	for i := 0; i < root; i++ {
		if bc.b.Instrs[i].HasDst() && bc.b.Instrs[i].Dst == base {
			cur = i
		}
	}
	if cur != baseDef {
		return 0, 0, nil, false
	}
	return base, int32(coeff), members, true
}
