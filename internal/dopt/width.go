package dopt

import "binpart/internal/ir"

// WidthReport summarizes operator size reduction.
type WidthReport struct {
	// OpsNarrowed counts binary operations annotated with a width below
	// 32 bits.
	OpsNarrowed int
	// TotalOps counts all annotated binary operations.
	TotalOps int
	// BitsSaved sums (32 - width) over narrowed operations; proportional
	// to functional-unit area saved in synthesis.
	BitsSaved int
}

// reduceWidths performs the paper's "operator size reduction": a
// flow-insensitive bit-width analysis over the function that annotates
// every binary operation with the number of low bits a synthesized
// functional unit actually needs.
//
// A location's width is the join (maximum) over everything stored in
// it. The first definition seen installs its width, and widths only grow
// from there, bounded by 32 bits; the analysis iterates to that fixpoint,
// so the result is sound for any execution.
//
// The width table is dense: 0 means no definition seen yet (every width
// is at least 1).
func (ws *workspace) reduceWidths(f *ir.Func) WidthReport {
	ws.width = reuse(ws.width, ws.spaceOf(f))
	width := ws.width
	get := func(a ir.Arg) int {
		if a.IsConst {
			return constBits(a.Val)
		}
		if a.Loc == ir.RegZero {
			return 1
		}
		if w := width[a.Loc]; w != 0 {
			return int(w)
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

	// Iterate to the fixpoint. After the first round every defined
	// location has a width, each transfer is monotone in its operands'
	// widths, and widths are bounded by 32, so iteration terminates.
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if !in.HasDst() {
					continue
				}
				// Join over multiple defs: a location needs the max
				// width of anything stored in it.
				if w := uint8(defWidth(in)); width[in.Dst] == 0 || w > width[in.Dst] {
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
			// The location's joined width governs downstream users, but
			// the unit computing this particular def only needs w bits.
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

// constBits returns the significant low bits of a constant; negative
// values need full width under two's complement.
func constBits(v int32) int {
	if v < 0 {
		return 32
	}
	n := 0
	for x := uint32(v); x != 0; x >>= 1 {
		n++
	}
	if n == 0 {
		return 1
	}
	return n
}
