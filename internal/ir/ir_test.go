package ir

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// link wires blocks into a Func with Succs/Preds derived from succ lists.
func link(blocks []*Block, succs map[int][]int) *Func {
	f := &Func{Blocks: blocks}
	for i, b := range blocks {
		b.Index = i
		b.Start = uint32(0x1000 + 16*i)
	}
	for i, ss := range succs {
		for _, s := range ss {
			blocks[i].Succs = append(blocks[i].Succs, blocks[s])
			blocks[s].Preds = append(blocks[s].Preds, blocks[i])
		}
	}
	return f
}

func nBlocks(n int) []*Block {
	out := make([]*Block, n)
	for i := range out {
		out[i] = &Block{}
	}
	return out
}

// idomOf is the immediate dominator of every block of f.
func idomOf(f *Func) []int {
	sc := loopScratches.Get()
	defer sc.release()
	return slices.Clone(sc.dominators(f))
}

func TestDominatorsDiamond(t *testing.T) {
	// 0 -> 1, 2; 1 -> 3; 2 -> 3
	f := link(nBlocks(4), map[int][]int{0: {1, 2}, 1: {3}, 2: {3}})
	idom := idomOf(f)
	want := []int{0, 0, 0, 0}
	for i, w := range want {
		if idom[i] != w {
			t.Errorf("idom[%d] = %d, want %d", i, idom[i], w)
		}
	}
	if !Dominates(idom, 0, 3) || Dominates(idom, 1, 3) {
		t.Error("Dominates wrong on diamond")
	}
}

func TestDominatorsLoop(t *testing.T) {
	// 0 -> 1; 1 -> 2; 2 -> 1, 3
	f := link(nBlocks(4), map[int][]int{0: {1}, 1: {2}, 2: {1, 3}})
	idom := idomOf(f)
	if idom[1] != 0 || idom[2] != 1 || idom[3] != 2 {
		t.Errorf("idom = %v", idom)
	}
}

func TestFindLoopsSimple(t *testing.T) {
	// Bottom-test loop: 0 -> 1(body); 1 -> 2(latch/test); 2 -> 1, 3
	blocks := nBlocks(4)
	blocks[2].Instrs = []Instr{{Op: Branch, Cond: CondLT, A: L(8), B: C(10), Target: 0x1010}}
	f := link(blocks, map[int][]int{0: {1}, 1: {2}, 2: {1, 3}})
	loops := FindLoops(f)
	if len(loops) != 1 {
		t.Fatalf("found %d loops, want 1", len(loops))
	}
	l := loops[0]
	if l.Header.Index != 1 || l.Latch.Index != 2 {
		t.Errorf("header b%d latch b%d", l.Header.Index, l.Latch.Index)
	}
	if len(l.Blocks) != 2 || !l.Contains(1) || !l.Contains(2) {
		t.Errorf("body = %v", l.Blocks)
	}
	if len(l.Exits) != 1 || l.Exits[0].To.Index != 3 {
		t.Errorf("exits = %+v", l.Exits)
	}
	if l.Depth != 1 {
		t.Errorf("depth = %d", l.Depth)
	}
}

func TestNestedLoops(t *testing.T) {
	// 0 -> 1; 1 -> 2; 2 -> 2(self), 3; 3 -> 1, 4
	f := link(nBlocks(5), map[int][]int{0: {1}, 1: {2}, 2: {2, 3}, 3: {1, 4}})
	loops := FindLoops(f)
	if len(loops) != 2 {
		t.Fatalf("found %d loops, want 2", len(loops))
	}
	var inner, outer *Loop
	for _, l := range loops {
		if l.Header.Index == 2 {
			inner = l
		} else {
			outer = l
		}
	}
	if inner == nil || outer == nil {
		t.Fatal("missing inner or outer loop")
	}
	if inner.Parent != outer {
		t.Error("inner.Parent != outer")
	}
	if inner.Depth != 2 || outer.Depth != 1 {
		t.Errorf("depths: inner %d outer %d", inner.Depth, outer.Depth)
	}
}

func TestInductionVariable(t *testing.T) {
	// b0: v40 = 0; b1(header): body w/ v40 += 1; latch branch v40 < 10.
	blocks := nBlocks(3)
	iv := Loc(40)
	blocks[0].Instrs = []Instr{{Op: Move, Dst: iv, A: C(0)}}
	blocks[1].Instrs = []Instr{
		{Op: Add, Dst: iv, A: L(iv), B: C(1)},
		{Op: Branch, Cond: CondLT, A: L(iv), B: C(10), Target: 0x1010},
	}
	f := link(blocks, map[int][]int{0: {1}, 1: {1, 2}})
	loops := FindLoops(f)
	if len(loops) != 1 {
		t.Fatalf("found %d loops", len(loops))
	}
	ivs := loops[0].IndVars
	if len(ivs) != 1 {
		t.Fatalf("found %d induction variables, want 1: %+v", len(ivs), ivs)
	}
	v := ivs[0]
	if v.Loc != iv || v.Step != 1 {
		t.Errorf("iv = %+v", v)
	}
	if !v.HasInit || !v.Init.IsConst || v.Init.Val != 0 {
		t.Errorf("init = %+v", v.Init)
	}
	if !v.HasLimit || v.Limit.Val != 10 || v.LimitCond != CondLT {
		t.Errorf("limit = %+v cond %v", v.Limit, v.LimitCond)
	}
	n, ok := v.TripCount()
	if !ok || n != 10 {
		t.Errorf("trip count = %d,%v want 10", n, ok)
	}
}

func TestTripCountVariants(t *testing.T) {
	cases := []struct {
		iv   IndVar
		want int64
		ok   bool
	}{
		{IndVar{Step: 1, Init: C(0), HasInit: true, Limit: C(10), LimitCond: CondLT, HasLimit: true}, 10, true},
		{IndVar{Step: 2, Init: C(0), HasInit: true, Limit: C(10), LimitCond: CondLT, HasLimit: true}, 5, true},
		{IndVar{Step: 1, Init: C(0), HasInit: true, Limit: C(10), LimitCond: CondLE, HasLimit: true}, 11, true},
		{IndVar{Step: -1, Init: C(10), HasInit: true, Limit: C(0), LimitCond: CondGT, HasLimit: true}, 10, true},
		{IndVar{Step: -2, Init: C(10), HasInit: true, Limit: C(0), LimitCond: CondGE, HasLimit: true}, 6, true},
		{IndVar{Step: 1, Init: C(0), HasInit: true, Limit: C(8), LimitCond: CondNE, HasLimit: true}, 8, true},
		{IndVar{Step: 0, Init: C(0), HasInit: true, Limit: C(8), LimitCond: CondLT, HasLimit: true}, 0, false},
		{IndVar{Step: 1, HasLimit: true, Limit: C(8), LimitCond: CondLT}, 0, false},
		{IndVar{Step: 1, Init: L(5), HasInit: true, Limit: C(8), LimitCond: CondLT, HasLimit: true}, 0, false},
	}
	for i, c := range cases {
		n, ok := c.iv.TripCount()
		if ok != c.ok || (ok && n != c.want) {
			t.Errorf("case %d: TripCount = %d,%v want %d,%v", i, n, ok, c.want, c.ok)
		}
	}
}

func TestRecoverShapes(t *testing.T) {
	// Bottom-test loop plus an if-then-else after it.
	blocks := nBlocks(7)
	// b1 latch test
	blocks[2].Instrs = []Instr{{Op: Branch, Cond: CondLT, A: L(8), B: C(4), Target: 0x1010}}
	// b3: if cond
	blocks[3].Instrs = []Instr{{Op: Branch, Cond: CondEQ, A: L(9), B: C(0), Target: 0x1050}}
	blocks[6].Instrs = []Instr{{Op: Ret}}
	// 0->1; 1->2; 2->1,3; 3->4,5; 4->6; 5->6
	f := link(blocks, map[int][]int{0: {1}, 1: {2}, 2: {1, 3}, 3: {4, 5}, 4: {6}, 5: {6}})
	st := Recover(f)
	if len(st.Loops) != 1 || st.Loops[0].Shape != LoopPostTest {
		t.Errorf("loop recovery = %+v", st.Loops)
	}
	if len(st.Ifs) != 1 || st.Ifs[0].Shape != IfThenElse || st.Ifs[0].Merge.Index != 6 {
		t.Errorf("if recovery = %+v", st.Ifs)
	}
	if st.UnstructuredBranches != 0 {
		t.Errorf("unstructured = %d", st.UnstructuredBranches)
	}
	if got := st.RecoveredFraction(); got != 1.0 {
		t.Errorf("recovered fraction = %v", got)
	}
}

func TestRecoverPreTestLoop(t *testing.T) {
	// Top-test: 0->1(header test); 1->2(body),3; 2->1
	blocks := nBlocks(4)
	blocks[1].Instrs = []Instr{{Op: Branch, Cond: CondGE, A: L(8), B: C(4), Target: 0x1030}}
	blocks[3].Instrs = []Instr{{Op: Ret}}
	f := link(blocks, map[int][]int{0: {1}, 1: {2, 3}, 2: {1}})
	st := Recover(f)
	if len(st.Loops) != 1 || st.Loops[0].Shape != LoopPreTest {
		t.Errorf("loop recovery = %+v", st.Loops)
	}
}

func TestRecoverIfThen(t *testing.T) {
	// 0 -> 1, 2; 1 -> 2. Merge is 2.
	blocks := nBlocks(3)
	blocks[0].Instrs = []Instr{{Op: Branch, Cond: CondNE, A: L(8), B: C(0), Target: 0x1020}}
	blocks[2].Instrs = []Instr{{Op: Ret}}
	f := link(blocks, map[int][]int{0: {1, 2}, 1: {2}})
	st := Recover(f)
	if len(st.Ifs) != 1 || st.Ifs[0].Shape != IfThen {
		t.Errorf("if recovery = %+v", st.Ifs)
	}
}

func TestCondHelpers(t *testing.T) {
	for _, c := range []Cond{CondEQ, CondNE, CondLT, CondGE, CondLE, CondGT, CondLTU, CondGEU} {
		n := c.Negate()
		for a := int32(-2); a <= 2; a++ {
			for b := int32(-2); b <= 2; b++ {
				if c.Eval(a, b) == n.Eval(a, b) {
					t.Errorf("%v and its negation agree on (%d,%d)", c, a, b)
				}
			}
		}
	}
}

func TestInstrHelpers(t *testing.T) {
	add := Instr{Op: Add, Dst: 40, A: L(8), B: L(9)}
	if !add.HasDst() || len(add.Uses()) != 2 {
		t.Error("Add helpers wrong")
	}
	st := Instr{Op: Store, A: L(8), B: L(29), Width: 4}
	if st.HasDst() || len(st.Uses()) != 2 {
		t.Error("Store helpers wrong")
	}
	br := Instr{Op: Branch, A: L(8), B: C(0), Cond: CondEQ}
	if br.HasDst() || len(br.Uses()) != 1 {
		t.Error("Branch helpers wrong")
	}
	if !Shl.IsBinary() || Move.IsBinary() || Load.IsBinary() {
		t.Error("IsBinary wrong")
	}
}

func TestFuncHelpers(t *testing.T) {
	f := &Func{}
	l1 := f.NewLoc()
	l2 := f.NewLoc()
	if l1 < FirstVirtual || l2 != l1+1 {
		t.Errorf("NewLoc: %d %d", l1, l2)
	}
	b := &Block{Start: 0x2000, Instrs: []Instr{{Op: Ret}}}
	f.Blocks = append(f.Blocks, b)
	f.Reindex()
	if f.BlockAt(0x2000) != b || f.BlockAt(0x3000) != nil {
		t.Error("BlockAt wrong")
	}
	if f.NumInstrs() != 1 {
		t.Error("NumInstrs wrong")
	}
}

func TestStructureOutline(t *testing.T) {
	blocks := nBlocks(3)
	iv := Loc(40)
	blocks[0].Instrs = []Instr{{Op: Move, Dst: iv, A: C(0)}}
	blocks[1].Instrs = []Instr{
		{Op: Add, Dst: iv, A: L(iv), B: C(1)},
		{Op: Branch, Cond: CondLT, A: L(iv), B: C(10), Target: 0x1010},
	}
	f := link(blocks, map[int][]int{0: {1}, 1: {1, 2}})
	f.Name = "demo"
	st := Recover(f)
	out := st.Outline(f)
	for _, want := range []string{"demo:", "loop @0x1010", "10 iterations", "induction v40", "recovered fraction: 100%"} {
		if !strings.Contains(out, want) {
			t.Errorf("outline missing %q:\n%s", want, out)
		}
	}
}

// TestInstrSize pins the lifted instruction record at 56 bytes: every
// lifted function is an array of them.
func TestInstrSize(t *testing.T) {
	if s := unsafe.Sizeof(Instr{}); s > 56 {
		t.Errorf("Instr is %d bytes, want <= 56", s)
	}
}

// TestFuncString pins the IR printer that test failures report with:
// every instruction shape, locations (registers, hi/lo, virtuals),
// constants, and the block header with its successors.
func TestFuncString(t *testing.T) {
	b0 := &Block{Instrs: []Instr{
		{Op: Nop},
		{Op: Add, Dst: 8, A: L(9), B: C(-4)},
		{Op: Move, Dst: LocHI, A: L(LocLO)},
		{Op: Load, Dst: FirstVirtual, A: L(RegSP), Off: 8, Width: 2, Signed: true},
		{Op: Load, Dst: 3, A: L(4), Off: -4, Width: 1},
		{Op: Store, A: L(3), B: L(RegSP), Off: 4, Width: 4},
		{Op: Call, Target: 0x400},
		{Op: Branch, Cond: CondLT, A: L(8), B: C(10), Target: 0x1020},
	}}
	b1 := &Block{Instrs: []Instr{{Op: IJump, A: L(8)}}}
	b2 := &Block{Instrs: []Instr{{Op: Jump, Target: 0x1030}}}
	b3 := &Block{Instrs: []Instr{{Op: Ret}, {Op: Halt}}}
	f := link([]*Block{b0, b1, b2, b3}, map[int][]int{0: {2, 1}, 1: {3}, 2: {3}})
	f.Name, f.Entry = "f", 0x1000
	want := `func f @0x1000
b0 (0x1000): ->b2 ->b1
	nop
	r8 = add r9, -4
	hi = lo
	v` + fmt.Sprint(int(FirstVirtual)) + ` = load2s [r29+8]
	r3 = load1u [r4-4]
	store4 [r29+4] = r3
	call 0x400
	br r8 < 10 -> 0x1020
b1 (0x1010): ->b3
	ijmp *r8
b2 (0x1020): ->b3
	jmp 0x1030
b3 (0x1030):
	ret
	halt
`
	if got := f.String(); got != want {
		t.Errorf("got\n%s\nwant\n%s", got, want)
	}
}
