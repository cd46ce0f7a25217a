// Package dopt implements the decompiler optimizations of the reproduced
// paper, in two groups:
//
// Instruction-set overhead removal:
//   - constant propagation (turns "addu rd, rs, $zero" register moves and
//     "addiu rd, $zero, imm" constant loads back into moves/constants,
//     then propagates)
//   - operator size reduction (bit-width analysis annotating each
//     operation with the width a synthesized functional unit needs)
//   - strength reduction (multiplication/division by powers of two become
//     shifts for synthesis)
//   - stack operation removal (callee-save boilerplate disappears, scalar
//     spill slots are promoted to virtual registers)
//
// Undoing software compiler optimizations:
//   - strength promotion (shift/add sequences computing x*C are folded
//     back into a single multiplication so the synthesis tool can choose
//     the best implementation)
//   - loop rerolling (bodies unrolled by the compiler are rolled back,
//     shrinking the CDFG and re-exposing the memory access pattern)
package dopt

import "binpart/internal/ir"

// constProp performs per-block constant and copy propagation. The zero
// register is treated as the constant 0, which is what collapses the
// MIPS idioms "addu rd, rs, $zero" (move) and "addiu rt, $zero, imm"
// (constant load). Returns the number of instructions simplified.
func (ws *workspace) constProp(f *ir.Func) int {
	env := &ws.env
	env.size(ws.spaceOf(f))
	changed := 0
	for _, b := range f.Blocks {
		env.nextEpoch()
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
				// Calls clobber the caller-saved state.
				for _, l := range callClobbered {
					env.invalidate(l)
				}
			}
		}
	}
	return changed
}

// constEnv is constProp's per-block binding environment: location ->
// known Arg, over dense arrays indexed by location.
//
// Entering a block bumps the epoch instead of clearing the bindings: a
// binding counts only while its stamp matches the current epoch. A copy
// binding "l = src" also dies when src is redefined. Rather than scan
// for the copies of src on every definition, each location counts its
// definitions (gen), and a copy binding records its source's count when
// it is made (srcGen): the binding holds while the two still agree.
type constEnv struct {
	val    []ir.Arg
	stamp  []uint32
	gen    []uint32
	srcGen []uint32
	epoch  uint32
}

// size makes the environment cover n locations. Reallocated arrays start
// with zero stamps, which no epoch matches.
func (e *constEnv) size(n int) {
	if len(e.val) < n {
		e.val = make([]ir.Arg, n)
		e.stamp = make([]uint32, n)
		e.gen = make([]uint32, n)
		e.srcGen = make([]uint32, n)
	}
}

// nextEpoch starts a block. A workspace is reused across calls, so the
// epoch can wrap; then the stamps are cleared, as no binding survives a
// block anyway.
func (e *constEnv) nextEpoch() {
	e.epoch++
	if e.epoch == 0 {
		clear(e.stamp)
		e.epoch = 1
	}
}

func (e *constEnv) sub(a ir.Arg) ir.Arg {
	if a.IsConst {
		return a
	}
	if a.Loc == ir.RegZero {
		return ir.C(0)
	}
	if e.stamp[a.Loc] == e.epoch {
		if v := e.val[a.Loc]; v.IsConst || e.gen[v.Loc] == e.srcGen[a.Loc] {
			return v
		}
	}
	return a
}

func (e *constEnv) define(l ir.Loc, a ir.Arg) {
	e.val[l] = a
	e.stamp[l] = e.epoch
	if !a.IsConst {
		e.srcGen[l] = e.gen[a.Loc]
	}
}

// invalidate drops the binding for l and, through l's definition count,
// every copy binding that reads it.
func (e *constEnv) invalidate(l ir.Loc) {
	e.stamp[l] = 0
	e.gen[l]++
}

// callClobbered lists locations a call may redefine (MIPS o32
// caller-saved set plus HI/LO and the linkage registers).
var callClobbered = func() []ir.Loc {
	regs := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 24, 25, 26, 27, 31}
	out := make([]ir.Loc, 0, len(regs)+2)
	for _, r := range regs {
		out = append(out, ir.Loc(r))
	}
	return append(out, ir.LocHI, ir.LocLO)
}()

// callUses lists locations a call may read (argument registers and sp).
var callUses = []ir.Loc{ir.RegA0, ir.RegA0 + 1, ir.RegA0 + 2, ir.RegA0 + 3, ir.RegSP}

// retUses lists locations live at a function return under this system's
// ABI: the 32-bit result, callee-saved registers, and the stack/frame/
// link registers. ($v1 would join for 64-bit results, which MicroC has
// none of; treating it as dead lets DCE remove leftover temporaries.)
var retUses = func() []ir.Loc {
	out := []ir.Loc{ir.RegV0, ir.RegSP, ir.RegFP, ir.RegRA}
	for r := 16; r <= 23; r++ {
		out = append(out, ir.Loc(r))
	}
	return out
}()

// simplify folds a binary instruction with known-constant inputs and
// applies algebraic identities, possibly rewriting it to a Move.
func simplify(in *ir.Instr) {
	if !in.Op.IsBinary() {
		return
	}
	if in.A.IsConst && in.B.IsConst {
		if v, ok := evalBinary(in.Op, in.A.Val, in.B.Val); ok {
			*in = ir.Instr{Op: ir.Move, Dst: in.Dst, A: ir.C(v), Addr: in.Addr}
			return
		}
	}
	isC := func(a ir.Arg, v int32) bool { return a.IsConst && a.Val == v }
	toMove := func(a ir.Arg) {
		*in = ir.Instr{Op: ir.Move, Dst: in.Dst, A: a, Addr: in.Addr}
	}
	switch in.Op {
	case ir.Add:
		if isC(in.B, 0) {
			toMove(in.A)
		} else if isC(in.A, 0) {
			toMove(in.B)
		}
	case ir.Sub:
		if isC(in.B, 0) {
			toMove(in.A)
		}
	case ir.Or, ir.Xor:
		if isC(in.B, 0) {
			toMove(in.A)
		} else if isC(in.A, 0) {
			toMove(in.B)
		}
	case ir.And:
		if isC(in.A, 0) || isC(in.B, 0) {
			toMove(ir.C(0))
		} else if isC(in.B, -1) {
			toMove(in.A)
		}
	case ir.Mul:
		if isC(in.A, 0) || isC(in.B, 0) {
			toMove(ir.C(0))
		} else if isC(in.B, 1) {
			toMove(in.A)
		} else if isC(in.A, 1) {
			toMove(in.B)
		}
	case ir.Shl, ir.ShrL, ir.ShrA:
		if isC(in.B, 0) {
			toMove(in.A)
		}
	}
}

// evalBinary folds an IR binary op over constants.
func evalBinary(op ir.Op, a, b int32) (int32, bool) {
	ua, ub := uint32(a), uint32(b)
	switch op {
	case ir.Add:
		return a + b, true
	case ir.Sub:
		return a - b, true
	case ir.Mul:
		return a * b, true
	case ir.MulH:
		return int32(uint64(int64(a)*int64(b)) >> 32), true
	case ir.MulHU:
		return int32(uint64(ua) * uint64(ub) >> 32), true
	case ir.Div:
		if b == 0 {
			return 0, false
		}
		if a == -1<<31 && b == -1 {
			return a, true
		}
		return a / b, true
	case ir.DivU:
		if b == 0 {
			return 0, false
		}
		return int32(ua / ub), true
	case ir.Rem:
		if b == 0 {
			return 0, false
		}
		if a == -1<<31 && b == -1 {
			return 0, true
		}
		return a % b, true
	case ir.RemU:
		if b == 0 {
			return 0, false
		}
		return int32(ua % ub), true
	case ir.And:
		return a & b, true
	case ir.Or:
		return a | b, true
	case ir.Xor:
		return a ^ b, true
	case ir.Shl:
		return a << (ub & 31), true
	case ir.ShrL:
		return int32(ua >> (ub & 31)), true
	case ir.ShrA:
		return a >> (ub & 31), true
	case ir.SetLT:
		if a < b {
			return 1, true
		}
		return 0, true
	case ir.SetLTU:
		if ua < ub {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// foldMoves collapses adjacent "x = op ...; y = x" pairs into
// "y = op ..." when the intermediate x is dead afterwards (not read again
// in the block and not live out of it). This removes the temp-and-move
// shape register allocation leaves behind and is what re-exposes
// induction variables ("r14 = add r25, 1; r25 = r14" becomes
// "r25 = add r25, 1"). Registers are freely reused by compilers, so the
// deadness check must be liveness-based rather than use-count-based.
//
// It reads the block liveness in ws. A fold changes no block's live-in
// set, so that liveness stays valid for deadCode.
//
// Each block is walked backwards, carrying the set of locations read
// later in the block before being redefined. The set starts empty rather
// than at the block's live-out set: a location live out of the block
// blocks the fold even when the block redefines it after the move.
// Folds never overlap (a fold needs a move at i and a non-move at i-1),
// and the set carried past a folded pair is the one the unfolded pair
// would give, so the walk folds exactly the pairs a forward scan would.
func (ws *workspace) foldMoves(f *ir.Func) int {
	folded := 0
	used := ws.live
	for _, b := range f.Blocks {
		liveOut := ws.liveOut.at(b.Index)
		used.reset()
		for i := len(b.Instrs) - 1; i >= 1; i-- {
			mv := &b.Instrs[i]
			if mv.Op == ir.Move && !mv.A.IsConst {
				x := mv.A.Loc
				prev := &b.Instrs[i-1]
				if x != ir.RegZero && x != mv.Dst && prev.HasDst() && prev.Dst == x && prev.Op != ir.Move &&
					!used.has(x) && !liveOut.has(x) {
					prev.Dst = mv.Dst
					*mv = ir.Instr{Op: ir.Nop, Addr: mv.Addr}
					folded++
					continue
				}
			}
			used.transfer(mv)
		}
	}
	return folded
}

// effUses extends Instr.Uses with ABI effects: calls read the argument
// registers, returns read the ABI-live set. ABI ops return shared
// package-level slices and other ops append into buf, so a caller-held
// buffer of capacity two makes the call allocation-free; the result is
// only valid until buf's next reuse and must not be mutated.
func effUses(in *ir.Instr, buf []ir.Loc) []ir.Loc {
	switch in.Op {
	case ir.Call:
		return callUses
	case ir.Ret:
		return retUses
	case ir.Halt:
		return haltUses
	}
	return in.AppendUses(buf)
}

var haltUses = []ir.Loc{ir.RegV0}

// deadCode removes pure instructions whose destinations are never live,
// using backwards per-instruction liveness with ABI-aware uses. Returns
// the number of instructions removed.
// It reads the block liveness in ws, which must be current for f.
func (ws *workspace) deadCode(f *ir.Func) int {
	removed := 0
	live := ws.live
	for i := len(f.Blocks) - 1; i >= 0; i-- {
		b := f.Blocks[i]
		copy(live, ws.liveOut.at(i))
		for j := len(b.Instrs) - 1; j >= 0; j-- {
			in := &b.Instrs[j]
			if in.HasDst() && !live.has(in.Dst) && pure(in) {
				*in = ir.Instr{Op: ir.Nop, Addr: in.Addr}
				removed++
				continue
			}
			live.transfer(in)
		}
	}
	// Drop accumulated Nops.
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

// pure reports whether removing the instruction is safe when its result
// is dead. Loads are pure in this memory model (no volatile/IO).
func pure(in *ir.Instr) bool {
	if in.Op.IsBinary() {
		return true
	}
	return in.Op == ir.Move || in.Op == ir.Load
}

// gcpEntry is globalConstProp's per-location record.
type gcpEntry struct {
	defs int32 // definitions in the function
	val  int32 // the constant, when entryConst
	// entryConst reports that the location's last definition is a
	// constant move in the entry block.
	entryConst bool
	// seen reports that a substitutable location's definition has been
	// passed in the rewrite walk.
	seen bool
}

// globalConstProp propagates constants across blocks in the simple
// single-definition case: a location whose only definition in the whole
// function is a constant move *in the entry block* holds that constant at
// every later program point (the entry block dominates everything, and a
// single def cannot be shadowed). Returns substitutions made.
func (ws *workspace) globalConstProp(f *ir.Func) int {
	if len(f.Blocks) == 0 {
		return 0
	}
	ws.gcp = reuse(ws.gcp, ws.spaceOf(f))
	tab := ws.gcp
	for bi, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if !in.HasDst() {
				continue
			}
			e := &tab[in.Dst]
			e.defs++
			e.entryConst = bi == 0 && in.Op == ir.Move && in.A.IsConst
			if e.entryConst {
				e.val = in.A.Val
			}
		}
	}
	// Only locations with exactly one def: a constant move in the entry
	// block.
	found := false
	for i := range tab {
		if tab[i].entryConst && tab[i].defs == 1 {
			found = true
			break
		}
	}
	if !found {
		return 0
	}
	n := 0
	rewrite := func(a *ir.Arg) {
		if a.IsConst {
			return
		}
		if e := &tab[a.Loc]; e.seen {
			*a = ir.C(e.val)
			n++
		}
	}
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			switch {
			case in.Op.IsBinary() || in.Op == ir.Branch || in.Op == ir.Store:
				rewrite(&in.A)
				rewrite(&in.B)
			case in.Op == ir.Move || in.Op == ir.Load || in.Op == ir.IJump:
				rewrite(&in.A)
			}
			if in.HasDst() {
				if e := &tab[in.Dst]; e.entryConst && e.defs == 1 {
					e.seen = true
				}
			}
		}
	}
	return n
}

// cleanupRounds caps cleanup's iterations.
const cleanupRounds = 8

// cleanup iterates constProp, foldMoves and deadCode to a fixpoint; this
// is the paper's "constant propagation" overhead-removal stage. It
// reports whether it reached the fixpoint (a round that changed nothing)
// within cleanupRounds rounds; at a fixpoint, running it again is a no-op.
// Each round computes block liveness once, after the constant passes,
// and foldMoves and deadCode share it.
func (ws *workspace) cleanup(f *ir.Func) bool {
	for i := 0; i < cleanupRounds; i++ {
		c := ws.constProp(f)
		c += ws.globalConstProp(f)
		ws.liveness(f)
		c += ws.foldMoves(f)
		c += ws.deadCode(f)
		if c == 0 {
			return true
		}
	}
	return false
}
