package dopt

import (
	"testing"

	"binpart/internal/ir"
)

// Locations of the hand-built reroll fixtures: virtual registers, so no
// ABI rule makes any of them live.
const (
	fxI  ir.Loc = ir.FirstVirtual + iota // the induction variable
	fxS                                  // the loop-carried accumulator
	fxR                                  // a second loop-invariant input
	fxX                                  // a loop-invariant input
	fxA                                  // the exit block's store base
	fxT1                                 // offset definitions i+1, i+2, i+3
	fxT2
	fxT3
	fxW0 // per-copy temporaries
	fxW1
	fxW2
	fxW3
	fxY
	fxEnd
)

// rerollFixture builds a function whose one loop is the single block b1:
// b0 sets i to 0 and falls into b1; b1 runs core, then "i = add i, step",
// then term, a branch back to b1 (nil means "br i < 16"); b2 stores each
// location of live and returns, so those are live out of the loop.
func rerollFixture(step int32, core []ir.Instr, term *ir.Instr, live ...ir.Loc) *ir.Func {
	const b1Start = 0x200
	if term == nil {
		term = &ir.Instr{Op: ir.Branch, Cond: ir.CondLT, A: ir.L(fxI), B: ir.C(16)}
	}
	term.Target = b1Start
	b0 := &ir.Block{Start: 0x100, Instrs: []ir.Instr{{Op: ir.Move, Dst: fxI, A: ir.C(0)}}}
	b1 := &ir.Block{Start: b1Start, Instrs: append(append([]ir.Instr(nil), core...),
		ir.Instr{Op: ir.Add, Dst: fxI, A: ir.L(fxI), B: ir.C(step)}, *term)}
	b2 := &ir.Block{Start: 0x300}
	for _, l := range live {
		b2.Instrs = append(b2.Instrs, ir.Instr{Op: ir.Store, Width: 4, A: ir.L(l), B: ir.L(fxA)})
	}
	b2.Instrs = append(b2.Instrs, ir.Instr{Op: ir.Ret})
	b0.Succs = []*ir.Block{b1}
	b1.Preds, b1.Succs = []*ir.Block{b0, b1}, []*ir.Block{b2, b1}
	b2.Preds = []*ir.Block{b1}
	f := &ir.Func{Name: "fixture", Entry: 0x100, Blocks: []*ir.Block{b0, b1, b2}, NextLoc: fxEnd}
	f.Reindex()
	return f
}

// add is the instruction "dst = add a, b".
func add(dst ir.Loc, a, b ir.Arg) ir.Instr { return ir.Instr{Op: ir.Add, Dst: dst, A: a, B: b} }

// offsets are the offset definitions t1..tn = add i, 1..n.
func offsets(n int) []ir.Instr {
	out := make([]ir.Instr, n)
	for c := range out {
		out[c] = add(fxT1+ir.Loc(c), ir.L(fxI), ir.C(int32(c+1)))
	}
	return out
}

// TestRerollMatcherRejections runs reroll over hand-built bodies that
// each reach one rejection of the matcher's reduction rules, plus one
// accepted reduction that shows the fixture shape rerolls at all. A
// rejected loop must leave the IR exactly as it was.
func TestRerollMatcherRejections(t *testing.T) {
	cases := []struct {
		name   string
		step   int32
		core   []ir.Instr
		term   *ir.Instr
		live   []ir.Loc
		factor int // 0: must not reroll
	}{{
		// s += i; s += i+1: a reduction through w0 into s.
		name: "accepted reduction",
		step: 2,
		core: append(offsets(1),
			add(fxW0, ir.L(fxS), ir.L(fxI)),
			add(fxS, ir.L(fxW0), ir.L(fxT1))),
		live:   []ir.Loc{fxS},
		factor: 2,
	}, {
		// The last copy writes w1, not the carried s.
		name: "final copy misses the carried register",
		step: 2,
		core: append(offsets(1),
			add(fxW0, ir.L(fxS), ir.L(fxI)),
			add(fxW1, ir.L(fxW0), ir.L(fxT1))),
	}, {
		// Copy 0 reads the carried s at position 1, after position 0's
		// carried write: renaming would feed it this iteration's value.
		name: "read after the carried write",
		step: 2,
		core: append(offsets(1),
			add(fxW0, ir.L(fxX), ir.L(fxI)),
			add(fxY, ir.L(fxS), ir.L(fxI)),
			add(fxS, ir.L(fxX), ir.L(fxT1)),
			add(fxY, ir.L(fxW0), ir.L(fxT1))),
		live: []ir.Loc{fxS},
	}, {
		// The copies write different live-out registers and nothing reads
		// one copy's result in the next.
		name: "escaping rename without a reduction",
		step: 2,
		core: append(offsets(1),
			add(fxW0, ir.L(fxX), ir.L(fxI)),
			add(fxW1, ir.L(fxX), ir.L(fxT1))),
		live: []ir.Loc{fxW0, fxW1},
	}, {
		// Copy 3 reads copy 1's write, two copies back; copy 2 reads the
		// carried s itself, and the branch is w2's one reader.
		name: "reduction reads from a copy other than j-1",
		step: 4,
		core: append(offsets(3),
			add(fxW0, ir.L(fxS), ir.L(fxI)),
			add(fxW1, ir.L(fxW0), ir.L(fxT1)),
			add(fxW2, ir.L(fxS), ir.L(fxT2)),
			add(fxS, ir.L(fxW1), ir.L(fxT3))),
		term: &ir.Instr{Op: ir.Branch, Cond: ir.CondNE, A: ir.L(fxW2), B: ir.C(0)},
		live: []ir.Loc{fxS},
	}, {
		// Copy 0 carries s into operand A and r into operand B; copies 1
		// and 2 each read the previous copy's write through a different
		// operand, so the two read sites name different carried registers.
		name: "read sites disagree on the carried register",
		step: 4,
		core: []ir.Instr{
			add(fxW0, ir.L(fxS), ir.L(fxR)),
			add(fxW1, ir.L(fxW0), ir.L(fxR)),
			add(fxW2, ir.L(fxS), ir.L(fxW1)),
			add(fxS, ir.L(fxW2), ir.L(fxR)),
		},
		live: []ir.Loc{fxS},
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := rerollFixture(c.step, c.core, c.term, c.live...)
			before := f.String()
			rep := runPass(f, (*workspace).reroll)
			if c.factor == 0 {
				if rep.Changed() {
					t.Fatalf("rerolled by %v:\n%s\nwas\n%s", rep.Rerolled, f, before)
				}
				if after := f.String(); after != before {
					t.Fatalf("rejected reroll changed the IR:\n%s\nwas\n%s", after, before)
				}
				return
			}
			if len(rep.Rerolled) != 1 || rep.Rerolled[0] != c.factor {
				t.Fatalf("rerolled %v, want [%d]:\n%s", rep.Rerolled, c.factor, f)
			}
		})
	}
}
