package ir

import (
	"fmt"
	"strings"

	"binpart/internal/freelist"
)

// Control structure recovery: classify the CFG into high-level constructs
// (pre-test loops, post-test loops, if-then, if-then-else). This implements
// the paper's "control structure recovery" stage; the resulting report
// feeds the decompilation-success experiment, and loop classification
// guides synthesis.

// LoopShape classifies a recovered loop.
type LoopShape int

const (
	LoopOther LoopShape = iota
	LoopPreTest
	LoopPostTest
	LoopSelf // single-block loop
)

func (s LoopShape) String() string {
	switch s {
	case LoopPreTest:
		return "while"
	case LoopPostTest:
		return "do-while"
	case LoopSelf:
		return "self"
	}
	return "other"
}

// IfShape classifies a recovered conditional.
type IfShape int

const (
	IfUnstructured IfShape = iota
	IfThen
	IfThenElse
)

// IfInfo is one recovered conditional.
type IfInfo struct {
	Cond  *Block
	Merge *Block
	Shape IfShape
}

// LoopRecovery pairs a loop with its recovered shape.
type LoopRecovery struct {
	Loop  *Loop
	Shape LoopShape
}

// Structure is the result of control structure recovery on one function.
type Structure struct {
	Loops []LoopRecovery
	Ifs   []IfInfo
	// Switches counts resolved multi-way dispatches (recovered jump
	// tables).
	Switches int
	// UnstructuredBranches counts conditional branches that fit no schema.
	UnstructuredBranches int
}

// RecoveredFraction is the fraction of conditional branches explained by a
// loop or if schema. 1.0 means full recovery.
func (s *Structure) RecoveredFraction() float64 {
	structured := 0
	for _, i := range s.Ifs {
		if i.Shape != IfUnstructured {
			structured++
		}
	}
	// Every classified loop explains its exit branch.
	for _, l := range s.Loops {
		if l.Shape != LoopOther {
			structured++
		}
	}
	total := structured + s.UnstructuredBranches
	if total == 0 {
		return 1.0
	}
	return float64(structured) / float64(total)
}

// Outline renders the recovered control structure as a human-readable
// report — the classic decompiler demonstration that high-level structure
// really was recovered from the binary.
func (s *Structure) Outline(f *Func) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d blocks, %d instructions\n", f.Name, len(f.Blocks), f.NumInstrs())
	for _, lr := range s.Loops {
		l := lr.Loop
		detail := ""
		for _, iv := range l.IndVars {
			if n, ok := iv.TripCount(); ok {
				detail = fmt.Sprintf(", %d iterations", n)
			}
		}
		indent := strings.Repeat("  ", l.Depth)
		fmt.Fprintf(&b, "%s%s loop @0x%x (depth %d, %d instrs%s)\n",
			indent, lr.Shape, l.Header.Start, l.Depth, l.NumInstrs(), detail)
		for _, iv := range l.IndVars {
			limit := "?"
			if iv.HasLimit {
				limit = fmt.Sprintf("%s %s", iv.LimitCond, iv.Limit)
			}
			init := "?"
			if iv.HasInit {
				init = iv.Init.String()
			}
			fmt.Fprintf(&b, "%s  induction %s: init %s, step %+d, while %s\n",
				indent, iv.Loc, init, iv.Step, limit)
		}
	}
	if s.Switches > 0 {
		fmt.Fprintf(&b, "  %d recovered switch dispatch(es)\n", s.Switches)
	}
	for _, i := range s.Ifs {
		switch i.Shape {
		case IfThen:
			fmt.Fprintf(&b, "  if-then @0x%x (merge 0x%x)\n", i.Cond.Start, i.Merge.Start)
		case IfThenElse:
			fmt.Fprintf(&b, "  if-then-else @0x%x (merge 0x%x)\n", i.Cond.Start, i.Merge.Start)
		default:
			fmt.Fprintf(&b, "  unstructured branch @0x%x\n", i.Cond.Start)
		}
	}
	fmt.Fprintf(&b, "  recovered fraction: %.0f%%\n", 100*s.RecoveredFraction())
	return b.String()
}

// Recover runs control structure recovery over f.
func Recover(f *Func) *Structure {
	sc := loopScratches.Get()
	defer sc.release()
	st := &Structure{}
	loops := sc.findLoops(f, nil)
	loopBranch := freelist.Resize(sc.branch, len(f.Blocks)) // blocks whose terminator is a loop test
	sc.branch = loopBranch
	clear(loopBranch)

	for _, l := range loops {
		shape := classifyLoop(l)
		st.Loops = append(st.Loops, LoopRecovery{Loop: l, Shape: shape})
		for _, e := range l.Exits {
			if t := e.From.Terminator(); t != nil && t.Op == Branch {
				loopBranch[e.From.Index] = true
			}
		}
		if t := l.Latch.Terminator(); t != nil && t.Op == Branch {
			loopBranch[l.Latch.Index] = true
		}
	}

	ipdom := sc.postDominators(f)
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t != nil && t.Op == IJump && t.Table != nil {
			st.Switches++
			continue
		}
		if t == nil || t.Op != Branch || loopBranch[b.Index] {
			continue
		}
		info := classifyIf(f, b, ipdom)
		st.Ifs = append(st.Ifs, info)
		if info.Shape == IfUnstructured {
			st.UnstructuredBranches++
		}
	}
	return st
}

func classifyLoop(l *Loop) LoopShape {
	if len(l.Blocks) == 1 {
		return LoopSelf
	}
	latchT := l.Latch.Terminator()
	latchExits := false
	for _, e := range l.Exits {
		if e.From == l.Latch {
			latchExits = true
		}
	}
	if latchT != nil && latchT.Op == Branch && latchExits {
		return LoopPostTest
	}
	headerT := l.Header.Terminator()
	headerExits := false
	for _, e := range l.Exits {
		if e.From == l.Header {
			headerExits = true
		}
	}
	if headerT != nil && headerT.Op == Branch && headerExits {
		return LoopPreTest
	}
	return LoopOther
}

func classifyIf(f *Func, b *Block, ipdom []int) IfInfo {
	info := IfInfo{Cond: b}
	if len(b.Succs) != 2 {
		return info
	}
	m := ipdom[b.Index]
	if m < 0 {
		return info
	}
	merge := f.Blocks[m]
	info.Merge = merge
	t, e := b.Succs[0], b.Succs[1]
	if t == merge || e == merge {
		info.Shape = IfThen
		return info
	}
	if postDominated(ipdom, t.Index, m) && postDominated(ipdom, e.Index, m) {
		info.Shape = IfThenElse
		return info
	}
	return info
}

// postDominated reports whether block m appears on x's ipdom chain, i.e.
// every path from x to the exit passes through m.
func postDominated(ipdom []int, x, m int) bool {
	for i := 0; x >= 0 && i < len(ipdom); i++ {
		if x == m {
			return true
		}
		x = ipdom[x]
	}
	return false
}
