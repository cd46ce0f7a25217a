package mcc

// TAC optimization passes. The pass set per level mirrors a classic C
// compiler, which matters here: the decompiler must cope with (and undo)
// exactly these artifacts.
//
//	O1: constant folding/propagation, copy propagation, algebraic
//	    simplification, branch folding, dead code elimination
//	O2: O1 + local common subexpression elimination + strength reduction
//	O3: O2 (+ loop unrolling, applied earlier at the AST level)

// optimize runs the pass pipeline for the given level on f in place.
func optimize(f *tacFunc, level int) {
	if level < 1 {
		return
	}
	for round := 0; round < 4; round++ {
		propagate(f)
		if level >= 2 {
			localCSE(f)
		}
		simplifyBranches(f)
		removeUnreachable(f)
		deadCode(f)
	}
	if level >= 2 {
		strengthReduce(f)
		// Reduction introduces new temps and moves; clean up once more.
		propagate(f)
		deadCode(f)
	}
	pruneDeadTables(f)
}

// pruneDeadTables drops jump tables whose dispatch was eliminated (e.g. a
// constant switch tag folded the whole indirect jump away); otherwise the
// linker would try to patch labels of deleted case blocks.
func pruneDeadTables(f *tacFunc) {
	out := f.Tables[:0]
	for _, t := range f.Tables {
		for i := range f.Ins {
			if f.Ins[i].Kind == iAddrG && f.Ins[i].Sym == t.Sym {
				out = append(out, t)
				break
			}
		}
	}
	f.Tables = out
}

// blockRanges splits f.Ins into basic-block index ranges [start,end).
// Every TAC pass re-derives block structure through this; the result
// lives in the function's scratch and is valid until the next call.
func blockRanges(f *tacFunc) [][2]int32 {
	sc := f.sc
	out := sc.ranges[:0]
	start := 0
	for i := range f.Ins {
		switch f.Ins[i].Kind {
		case iLabel:
			if i > start {
				out = append(out, [2]int32{int32(start), int32(i)})
			}
			start = i
		case iBr, iCBr, iJT, iRet:
			out = append(out, [2]int32{int32(start), int32(i + 1)})
			start = i + 1
		}
	}
	if start < len(f.Ins) {
		out = append(out, [2]int32{int32(start), int32(len(f.Ins))})
	}
	sc.ranges = out
	return out
}

// propagate performs per-block constant and copy propagation plus algebraic
// simplification and constant folding.
//
// The known values are Temp-indexed: val[t] holds t's constant or copy
// source when stamp[t] names the current block. A copy is valid only
// while its source keeps the definition count it had when the copy was
// recorded, so redefining a temp invalidates every copy of it in O(1),
// with no scan of the table.
func propagate(f *tacFunc) {
	sc := f.sc
	sc.resetTemps(f.NTemp)
	val, stamp, srcVer, defVer := sc.val, sc.stamp, sc.srcVer, sc.defVer
	var blk int32
	sub := func(o Operand) Operand {
		if o.IsConst() || stamp[o.Temp] != blk {
			return o
		}
		v := val[o.Temp]
		if !v.IsConst() && defVer[v.Temp] != srcVer[o.Temp] {
			return o // the copy's source was redefined since
		}
		return v
	}
	set := func(d Temp, v Operand) {
		val[d], stamp[d] = v, blk
		if !v.IsConst() {
			srcVer[d] = defVer[v.Temp]
		}
	}
	for bi, r := range blockRanges(f) {
		blk = int32(bi + 1)
		for i := r[0]; i < r[1]; i++ {
			in := &f.Ins[i]
			f.replaceUses(in, sub)
			if in.Kind == iBin {
				simplifyBin(in)
			}
			d, ok := in.def()
			if !ok {
				continue
			}
			defVer[d]++
			stamp[d] = 0
			switch in.Kind {
			case iMov:
				if in.A.IsConst() || in.A.Temp != d {
					set(d, in.A)
				}
			case iBin:
				if in.A.IsConst() && in.B.IsConst() {
					if v, ok := foldTac(in.Op, in.A.Val, in.B.Val); ok {
						*in = ins{Kind: iMov, Dst: d, A: cnst(v)}
						set(d, cnst(v))
					}
				}
			}
		}
	}
}

// simplifyBin applies algebraic identities in place, possibly turning the
// instruction into a move.
func simplifyBin(in *ins) {
	isC := func(o Operand, v int32) bool { return o.IsConst() && o.Val == v }
	toMov := func(a Operand) { *in = ins{Kind: iMov, Dst: in.Dst, A: a} }
	switch in.Op {
	case opAdd:
		if isC(in.B, 0) {
			toMov(in.A)
		} else if isC(in.A, 0) {
			toMov(in.B)
		}
	case opSub:
		if isC(in.B, 0) {
			toMov(in.A)
		} else if !in.A.IsConst() && !in.B.IsConst() && in.A.Temp == in.B.Temp {
			toMov(cnst(0))
		}
	case opMul:
		if isC(in.B, 1) {
			toMov(in.A)
		} else if isC(in.A, 1) {
			toMov(in.B)
		} else if isC(in.A, 0) || isC(in.B, 0) {
			toMov(cnst(0))
		}
	case opAnd:
		if isC(in.B, 0) || isC(in.A, 0) {
			toMov(cnst(0))
		} else if isC(in.B, -1) {
			toMov(in.A)
		} else if isC(in.A, -1) {
			toMov(in.B)
		}
	case opOr, opXor:
		if isC(in.B, 0) {
			toMov(in.A)
		} else if isC(in.A, 0) {
			toMov(in.B)
		}
	case opShl, opShrS, opShrU:
		if isC(in.B, 0) {
			toMov(in.A)
		}
	case opDiv, opDivU:
		if isC(in.B, 1) {
			toMov(in.A)
		}
	}
}

// cseKey identifies a pure computation: an operator over two operands, or
// the address of a data symbol (iAddrG) or frame slot (iAddrL) in sym.
type cseKey struct {
	kind insKind
	op   tacOp
	a, b Operand
	sym  int32
}

// cseEntry is an available computation: temp t holds it as long as t and
// the key's operand temps keep the definition counts recorded here, in
// block blk.
type cseEntry struct {
	t                Temp
	tVer, aVer, bVer int32
	blk              int32
}

// localCSE eliminates repeated pure computations within a block. An
// available expression dies when its result or an operand temp is
// redefined; the definition counts check that on lookup, so a definition
// costs O(1), with no scan of the available expressions.
func localCSE(f *tacFunc) {
	sc := f.sc
	sc.resetTemps(f.NTemp)
	defVer := sc.defVer
	if sc.cse == nil {
		sc.cse = make(map[cseKey]cseEntry)
	}
	avail := sc.cse
	clear(avail)
	ver := func(o Operand) int32 {
		if o.IsConst() {
			return 0
		}
		return defVer[o.Temp]
	}
	for bi, r := range blockRanges(f) {
		blk := int32(bi + 1)
		for i := r[0]; i < r[1]; i++ {
			in := &f.Ins[i]
			var key cseKey
			cacheable := true
			switch in.Kind {
			case iBin:
				key = cseKey{kind: iBin, op: in.Op, a: in.A, b: in.B}
			case iAddrG:
				key = cseKey{kind: iAddrG, sym: in.Sym}
			case iAddrL:
				key = cseKey{kind: iAddrL, sym: in.Slot}
			default:
				cacheable = false
			}
			if cacheable {
				if e, ok := avail[key]; ok && e.blk == blk && defVer[e.t] == e.tVer &&
					ver(key.a) == e.aVer && ver(key.b) == e.bVer {
					*in = ins{Kind: iMov, Dst: in.Dst, A: tmp(e.t)}
					defVer[in.Dst]++
					continue
				}
			}
			if d, ok := in.def(); ok {
				defVer[d]++
				if cacheable {
					avail[key] = cseEntry{t: d, tVer: defVer[d], aVer: ver(key.a), bVer: ver(key.b), blk: blk}
				}
			}
		}
	}
}

// simplifyBranches folds constant conditional branches and removes jumps to
// the immediately following label.
func simplifyBranches(f *tacFunc) {
	n := 0
	for i := range f.Ins {
		in := &f.Ins[i]
		if in.Kind == iCBr && in.A.IsConst() && in.B.IsConst() {
			if v, ok := foldTac(in.Op, in.A.Val, in.B.Val); ok {
				if v != 0 {
					f.Ins[n] = ins{Kind: iBr, Sym: in.Sym}
					n++
				}
				continue
			}
		}
		if n != i {
			f.Ins[n] = *in
		}
		n++
	}
	f.Ins = f.Ins[:n]
	// Drop br/cbr to the next label.
	n = 0
	for i := range f.Ins {
		in := &f.Ins[i]
		if (in.Kind == iBr || in.Kind == iCBr) && i+1 < len(f.Ins) &&
			f.Ins[i+1].Kind == iLabel && f.Ins[i+1].Sym == in.Sym {
			continue
		}
		if n != i {
			f.Ins[n] = *in
		}
		n++
	}
	f.Ins = f.Ins[:n]
}

// removeUnreachable deletes instructions between an unconditional control
// transfer and the next label, then removes whole blocks no control flow
// can reach (e.g. arms of statically folded branches).
func removeUnreachable(f *tacFunc) {
	n := 0
	dead := false
	for i := range f.Ins {
		in := &f.Ins[i]
		if in.Kind == iLabel {
			dead = false
		}
		if dead {
			continue
		}
		if n != i {
			f.Ins[n] = *in
		}
		n++
		if in.Kind == iBr || in.Kind == iRet || in.Kind == iJT {
			dead = true
		}
	}
	f.Ins = f.Ins[:n]
	removeUnreachableBlocks(f)
}

// removeUnreachableBlocks drops basic blocks unreachable from the entry.
// Indirect jumps (jump tables) conservatively keep every labeled block.
func removeUnreachableBlocks(f *tacFunc) {
	for i := range f.Ins {
		if f.Ins[i].Kind == iJT {
			return
		}
	}
	ranges := blockRanges(f)
	if len(ranges) == 0 {
		return
	}
	sc := f.sc
	labelBlock := sc.labelBlocks(f, ranges)
	reach := resize(sc.reach, len(ranges))
	clear(reach)
	stack := append(sc.stack[:0], 0)
	for len(stack) > 0 {
		bi := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if int(bi) >= len(ranges) || reach[bi] {
			continue
		}
		reach[bi] = true
		last := &f.Ins[ranges[bi][1]-1]
		switch last.Kind {
		case iBr:
			if t := labelBlock[last.Sym]; t >= 0 {
				stack = append(stack, t)
			}
		case iCBr:
			if t := labelBlock[last.Sym]; t >= 0 {
				stack = append(stack, t)
			}
			stack = append(stack, bi+1)
		case iRet:
		default:
			stack = append(stack, bi+1)
		}
	}
	sc.reach, sc.stack = reach, stack
	n := 0
	for bi, r := range ranges {
		if !reach[bi] {
			continue
		}
		n += copy(f.Ins[n:], f.Ins[r[0]:r[1]])
	}
	f.Ins = f.Ins[:n]
}

// deadCode removes pure instructions whose results are never used anywhere
// in the function. Loads are pure in MicroC (no volatile).
func deadCode(f *tacFunc) {
	sc := f.sc
	sc.resetSets()
	used := sc.newSet(f.NTemp)
	var ub [4]Temp
	for {
		used.reset()
		for i := range f.Ins {
			for _, t := range f.appendUses(ub[:0], &f.Ins[i]) {
				used.set(t)
			}
		}
		changed := false
		n := 0
		for i := range f.Ins {
			in := &f.Ins[i]
			if d, ok := in.def(); ok && !used.has(d) {
				switch in.Kind {
				case iMov, iBin, iLoad, iAddrG, iAddrL:
					changed = true
					continue
				case iCall:
					// Keep the call, drop the unused result.
					in.HasDst = false
				}
			}
			if n != i {
				f.Ins[n] = *in
			}
			n++
		}
		f.Ins = f.Ins[:n]
		if !changed {
			return
		}
	}
}

// strengthReduce rewrites multiplications by constants into shift/add/sub
// sequences when that takes at most 4 operations (the classic heuristic:
// cheaper than a pipelined multiply), and unsigned divisions/remainders by
// powers of two into shifts/masks. This is the compiler optimization the
// paper's "strength promotion" decompiler pass must undo.
//
// A function with nothing to reduce is left as it is; the first rewrite
// copies the instructions before it into the scratch's spare buffer,
// which then becomes f.Ins.
func strengthReduce(f *tacFunc) {
	sc := f.sc
	var out []ins
	started := false
	var tb [40]csdTerm
	for i := range f.Ins {
		in := &f.Ins[i]
		var terms []csdTerm
		var x Operand
		var c int32
		reduce := false
		if in.Kind == iBin {
			switch in.Op {
			case opMul:
				var ok bool
				if c, x, ok = constOperand(in); ok {
					terms, reduce = mulPlan(tb[:0], c)
				}
			case opDivU, opRemU:
				reduce = in.B.IsConst() && isPow2(in.B.Val)
			}
		}
		if !reduce {
			if started {
				out = append(out, *in)
			}
			continue
		}
		if !started {
			out = append(sc.spare[:0], f.Ins[:i]...)
			started = true
		}
		switch in.Op {
		case opMul:
			out = appendMulSequence(out, f, x, c, terms, in.Dst)
		case opDivU:
			out = append(out, ins{Kind: iBin, Op: opShrU, Dst: in.Dst, A: in.A, B: cnst(log2(in.B.Val))})
		case opRemU:
			out = append(out, ins{Kind: iBin, Op: opAnd, Dst: in.Dst, A: in.A, B: cnst(in.B.Val - 1)})
		}
	}
	if started {
		sc.spare = f.Ins[:0]
		f.Ins = out
	}
}

func constOperand(in *ins) (int32, Operand, bool) {
	if in.B.IsConst() && !in.A.IsConst() {
		return in.B.Val, in.A, true
	}
	if in.A.IsConst() && !in.B.IsConst() {
		return in.A.Val, in.B, true
	}
	return 0, Operand{}, false
}

func isPow2(v int32) bool { return v > 0 && v&(v-1) == 0 }

func log2(v int32) int32 {
	n := int32(0)
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// csdTerm is one signed power-of-two term of a constant multiplier.
type csdTerm struct {
	shift int32
	neg   bool
}

// csdRecode appends the terms of c to dst using canonical signed-digit
// recoding, which minimizes the term count.
func csdRecode(dst []csdTerm, c int64) []csdTerm {
	for i := 0; c != 0 && i < 40; i++ {
		if c&1 != 0 {
			// Choose digit +1 or -1 so the remaining value is even.
			if c&3 == 3 { // ...11 -> digit -1, carry
				dst = append(dst, csdTerm{shift: int32(i), neg: true})
				c++
			} else {
				dst = append(dst, csdTerm{shift: int32(i)})
				c--
			}
		}
		c >>= 1
	}
	return dst
}

// mulPlan recodes the multiplier c into buf and reports whether the
// shift/add/sub sequence is cheaper than a multiply instruction.
func mulPlan(buf []csdTerm, c int32) ([]csdTerm, bool) {
	if c == 0 {
		return nil, true
	}
	terms := csdRecode(buf, abs64(int64(c)))
	// Cost: one shift per nonzero-shift term plus one add/sub per extra
	// term, plus a final negate. More than 4 ops: keep the multiply.
	cost := len(terms) - 1
	for _, t := range terms {
		if t.shift != 0 {
			cost++
		}
	}
	if c < 0 {
		cost++
	}
	if cost > 4 || len(terms) == 0 {
		return nil, false
	}
	return terms, true
}

// appendMulSequence appends the shift/add/sub sequence computing
// dst = x*c from mulPlan's terms.
func appendMulSequence(out []ins, f *tacFunc, x Operand, c int32, terms []csdTerm, dst Temp) []ins {
	if c == 0 {
		return append(out, ins{Kind: iMov, Dst: dst, A: cnst(0)})
	}
	// acc holds the running sum as an operand.
	var acc Operand
	for i, t := range terms {
		var term Operand
		if t.shift == 0 {
			term = x
		} else {
			tt := f.newTemp()
			out = append(out, ins{Kind: iBin, Op: opShl, Dst: tt, A: x, B: cnst(t.shift)})
			term = tmp(tt)
		}
		if i == 0 {
			if t.neg {
				tt := f.newTemp()
				out = append(out, ins{Kind: iBin, Op: opSub, Dst: tt, A: cnst(0), B: term})
				term = tmp(tt)
			}
			acc = term
			continue
		}
		tt := f.newTemp()
		op := opAdd
		if t.neg {
			op = opSub
		}
		out = append(out, ins{Kind: iBin, Op: op, Dst: tt, A: acc, B: term})
		acc = tmp(tt)
	}
	if c < 0 {
		tt := f.newTemp()
		out = append(out, ins{Kind: iBin, Op: opSub, Dst: tt, A: cnst(0), B: acc})
		acc = tmp(tt)
	}
	return append(out, ins{Kind: iMov, Dst: dst, A: acc})
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
