// Package alias implements the memory-reference analysis the reproduced
// paper uses in two places: partitioning step 2 ("use alias information to
// find regions of code that access the same memory locations as the loops
// in the hardware partition", so arrays can move into FPGA block RAM) and
// memory disambiguation inside behavioral synthesis (accesses to distinct
// arrays need not be serialized).
//
// The analysis resolves each load/store to a base data object by chasing
// the address computation back to a constant section address, using the
// binary's data symbols for object extents. Stack-relative accesses
// resolve to a per-function pseudo object; anything else is unknown and
// conflicts with everything.
package alias

import (
	"sort"

	"binpart/internal/binimg"
	"binpart/internal/ir"
)

// Ref describes the resolved target of one memory access.
type Ref struct {
	// Sym is the data object's symbol name; "<stack>" for frame accesses,
	// "" when unresolved.
	Sym string
	// Base is the object's start address (0 for stack/unknown).
	Base uint32
	// Size is the object's byte size (0 if unknown).
	Size uint32
	// Stride is the access stride in bytes per loop iteration when the
	// address is driven by an induction variable; 0 if unknown/fixed.
	Stride int32
	// Known reports whether the object was resolved at all.
	Known bool
}

// Conflicts reports whether two references may touch the same memory.
func (r Ref) Conflicts(o Ref) bool {
	if !r.Known || !o.Known {
		return true
	}
	return r.Sym == o.Sym
}

// Info holds the per-function analysis results.
type Info struct {
	refs map[*ir.Instr]Ref
}

// RefOf returns the resolved reference of a load/store instruction.
func (in *Info) RefOf(i *ir.Instr) Ref {
	if r, ok := in.refs[i]; ok {
		return r
	}
	return Ref{}
}

// Footprint returns the sorted set of data objects the given blocks
// access, with unknown accesses reported via the second result.
func (in *Info) Footprint(blocks map[int]*ir.Block) (syms []string, hasUnknown bool) {
	seen := map[string]bool{}
	for _, b := range blocks {
		for i := range b.Instrs {
			instr := &b.Instrs[i]
			if instr.Op != ir.Load && instr.Op != ir.Store {
				continue
			}
			r := in.RefOf(instr)
			if !r.Known {
				hasUnknown = true
				continue
			}
			if r.Sym != "<stack>" && !seen[r.Sym] {
				seen[r.Sym] = true
				syms = append(syms, r.Sym)
			}
		}
	}
	sort.Strings(syms)
	return syms, hasUnknown
}

// FuncFootprint returns the data objects accessed anywhere in f.
func (in *Info) FuncFootprint(f *ir.Func) (syms []string, hasUnknown bool) {
	m := map[int]*ir.Block{}
	for _, b := range f.Blocks {
		m[b.Index] = b
	}
	return in.Footprint(m)
}

// Analyze resolves every memory access in f against the image's data
// symbols. Run it after the dopt pipeline: constant propagation must have
// exposed the base addresses first.
func Analyze(f *ir.Func, img *binimg.Image) *Info {
	return AnalyzeLoops(f, img, ir.FindLoops(f))
}

// AnalyzeLoops is Analyze for a caller that already holds f's loops
// (ir.FindLoops(f) on f as it is now): their induction variables give
// the access strides.
func AnalyzeLoops(f *ir.Func, img *binimg.Image, loops []*ir.Loop) *Info {
	info := &Info{refs: map[*ir.Instr]Ref{}}
	dataSyms := dataSymbols(img)

	// Induction steps per loop for stride inference.
	stepOf := map[ir.Loc]int32{}
	for _, l := range loops {
		for _, iv := range l.IndVars {
			stepOf[iv.Loc] = iv.Step
		}
	}

	// In-block reaching definitions for address chasing, one map emptied
	// per block.
	lastDef := map[ir.Loc]int{}
	for _, b := range f.Blocks {
		clear(lastDef)
		for i := range b.Instrs {
			instr := &b.Instrs[i]
			if instr.Op == ir.Load || instr.Op == ir.Store {
				base := instr.A
				if instr.Op == ir.Store {
					base = instr.B
				}
				ref := resolve(b, base, int32(instr.Off), lastDef, dataSyms, stepOf, 8)
				info.refs[instr] = ref
			}
			if instr.HasDst() {
				lastDef[instr.Dst] = i
			}
		}
	}
	return info
}

type dataSym struct {
	name string
	addr uint32
	size uint32
}

func dataSymbols(img *binimg.Image) []dataSym {
	var out []dataSym
	for _, s := range img.Symbols {
		if !img.InText(s.Addr) && s.Size > 0 {
			out = append(out, dataSym{s.Name, s.Addr, s.Size})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].addr < out[j].addr })
	return out
}

// resolve chases an address operand to (object, stride). addend
// accumulates constant displacement.
func resolve(b *ir.Block, a ir.Arg, addend int32, lastDef map[ir.Loc]int, syms []dataSym, stepOf map[ir.Loc]int32, depth int) Ref {
	if depth == 0 {
		return Ref{}
	}
	if a.IsConst {
		return lookup(uint32(a.Val)+uint32(addend), syms)
	}
	if a.Loc == ir.RegSP || a.Loc == ir.RegFP {
		return Ref{Sym: "<stack>", Known: true}
	}
	di, ok := lastDef[a.Loc]
	if !ok {
		// Defined outside the block: if it is an induction variable, the
		// access walks memory but the base is unknown from here.
		return Ref{}
	}
	in := &b.Instrs[di]
	switch in.Op {
	case ir.Move:
		if in.A.IsConst {
			return lookup(uint32(in.A.Val)+uint32(addend), syms)
		}
		return resolveBefore(b, in.A, addend, di, syms, stepOf, depth-1)
	case ir.Add:
		switch {
		case in.A.IsConst != in.B.IsConst:
			// One constant operand, on either side: an addend to the
			// other, or else the classic constant base + variable offset.
			c, v := in.A, in.B
			if v.IsConst {
				c, v = v, c
			}
			r := resolveBefore(b, v, addend+c.Val, di, syms, stepOf, depth-1)
			if !r.Known {
				r = lookup(uint32(c.Val), syms)
				r.Stride = strideOf(b, v, di, stepOf, depth-1)
			}
			return r
		case !in.A.IsConst && !in.B.IsConst:
			// base + offset where either side may be the constant-rooted
			// base; try both.
			if r := resolveBefore(b, in.A, addend, di, syms, stepOf, depth-1); r.Known {
				r.Stride = strideOf(b, in.B, di, stepOf, depth-1)
				return r
			}
			if r := resolveBefore(b, in.B, addend, di, syms, stepOf, depth-1); r.Known {
				r.Stride = strideOf(b, in.A, di, stepOf, depth-1)
				return r
			}
		}
	}
	return Ref{}
}

// resolveBefore re-resolves an operand using only definitions before
// index bound.
func resolveBefore(b *ir.Block, a ir.Arg, addend int32, bound int, syms []dataSym, stepOf map[ir.Loc]int32, depth int) Ref {
	lastDef := map[ir.Loc]int{}
	for i := 0; i < bound; i++ {
		if b.Instrs[i].HasDst() {
			lastDef[b.Instrs[i].Dst] = i
		}
	}
	return resolve(b, a, addend, lastDef, syms, stepOf, depth)
}

// strideOf infers the per-iteration byte stride of an offset expression:
// an induction variable possibly scaled by a constant shift or multiply.
func strideOf(b *ir.Block, a ir.Arg, bound int, stepOf map[ir.Loc]int32, depth int) int32 {
	if a.IsConst || depth == 0 {
		return 0
	}
	if s, ok := stepOf[a.Loc]; ok {
		return s
	}
	var def *ir.Instr
	for i := 0; i < bound; i++ {
		in := &b.Instrs[i]
		if in.HasDst() && in.Dst == a.Loc {
			def = in
		}
	}
	if def == nil {
		return 0
	}
	switch def.Op {
	case ir.Shl:
		if def.B.IsConst && !def.A.IsConst {
			if s, ok := stepOf[def.A.Loc]; ok {
				return s << uint(def.B.Val&31)
			}
		}
	case ir.Mul:
		if def.B.IsConst && !def.A.IsConst {
			if s, ok := stepOf[def.A.Loc]; ok {
				return s * def.B.Val
			}
		}
	case ir.Add:
		if !def.A.IsConst {
			if s, ok := stepOf[def.A.Loc]; ok {
				return s
			}
		}
	}
	return 0
}

func lookup(addr uint32, syms []dataSym) Ref {
	i := sort.Search(len(syms), func(i int) bool { return syms[i].addr > addr })
	if i == 0 {
		return Ref{}
	}
	s := syms[i-1]
	if addr >= s.addr+s.size {
		return Ref{}
	}
	return Ref{Sym: s.name, Base: s.addr, Size: s.size, Known: true}
}
