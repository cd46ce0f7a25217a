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

// ReduceWidths performs the paper's "operator size reduction": a
// flow-insensitive bit-width analysis over the function that annotates
// every binary operation with the number of low bits a synthesized
// functional unit actually needs. Widths start at 32 and shrink
// monotonically to a fixpoint, so the result is sound for any execution.
func ReduceWidths(f *ir.Func) WidthReport {
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
			return min32(maxInt(get(in.A), get(in.B)) + 1)
		case ir.Mul:
			return min32(get(in.A) + get(in.B))
		case ir.MulH, ir.MulHU:
			return 32
		case ir.Div, ir.DivU, ir.Rem, ir.RemU:
			return get(in.A)
		case ir.And:
			return minInt(get(in.A), get(in.B))
		case ir.Or, ir.Xor:
			return maxInt(get(in.A), get(in.B))
		case ir.Shl:
			if in.B.IsConst {
				return min32(get(in.A) + int(in.B.Val&31))
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

	// Iterate to a (greatest) fixpoint. Widths can only shrink from the
	// implicit initial 32, so iteration terminates.
	for round := 0; round < 40; round++ {
		changed := false
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if !in.HasDst() {
					continue
				}
				w := defWidth(in)
				old, ok := width[in.Dst]
				if !ok {
					old = 32
				}
				// Join over multiple defs: a location needs the max
				// width of anything stored in it.
				nw := w
				if ok && old > nw {
					nw = old
				}
				if !ok || nw != old {
					// First sight: install; afterwards only grow.
					if !ok {
						width[in.Dst] = w
						changed = true
					} else if nw > old {
						width[in.Dst] = nw
						changed = true
					}
				}
			}
		}
		if !changed {
			break
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

func min32(v int) int {
	if v > 32 {
		return 32
	}
	return v
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
