package ir

import "testing"

// evalFunc builds a one-block function computing a single op and returns
// the result register value.
func evalOne(t *testing.T, op Op, a, b int32) int32 {
	t.Helper()
	f := &Func{Blocks: []*Block{{
		Instrs: []Instr{
			{Op: op, Dst: RegV0, A: C(a), B: C(b)},
			{Op: Ret},
		},
	}}}
	f.Reindex()
	st := NewEvalState()
	if err := Eval(f, st); err != nil {
		t.Fatal(err)
	}
	return st.Regs[RegV0]
}

func TestEvalBinaryOps(t *testing.T) {
	cases := []struct {
		op   Op
		a, b int32
		want int32
	}{
		{Add, 3, 4, 7},
		{Sub, 3, 4, -1},
		{Mul, -3, 4, -12},
		{MulH, 1 << 30, 1 << 30, 1 << 28},
		{Div, -17, 5, -3},
		{DivU, -1, 2, 0x7fffffff},
		{Rem, -17, 5, -2},
		{RemU, 17, 5, 2},
		{And, 12, 10, 8},
		{Or, 12, 10, 14},
		{Xor, 12, 10, 6},
		{Shl, 1, 35, 8}, // masked shift
		{ShrL, -16, 28, 15},
		{ShrA, -16, 2, -4},
		{SetLT, -1, 0, 1},
		{SetLTU, -1, 0, 0},
		{Div, 5, 0, 0}, // division by zero defined as 0
	}
	for _, c := range cases {
		if got := evalOne(t, c.op, c.a, c.b); got != c.want {
			t.Errorf("%v(%d,%d) = %d, want %d", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestEvalMemoryRoundTrip(t *testing.T) {
	f := &Func{Blocks: []*Block{{
		Instrs: []Instr{
			{Op: Move, Dst: 40, A: C(0x2000)},
			{Op: Store, A: C(-7), B: L(40), Off: 4, Width: 4},
			{Op: Load, Dst: RegV0, A: L(40), Off: 4, Width: 4},
			{Op: Ret},
		},
	}}}
	f.Reindex()
	st := NewEvalState()
	if err := Eval(f, st); err != nil {
		t.Fatal(err)
	}
	if st.Regs[RegV0] != -7 {
		t.Errorf("store/load round trip = %d", st.Regs[RegV0])
	}
}

func TestEvalNarrowLoads(t *testing.T) {
	mk := func(width uint8, signed bool) int32 {
		f := &Func{Blocks: []*Block{{
			Instrs: []Instr{
				{Op: Move, Dst: 40, A: C(0x3000)},
				{Op: Store, A: C(0x8FF0), B: L(40), Width: 4},
				{Op: Load, Dst: RegV0, A: L(40), Width: width, Signed: signed},
				{Op: Ret},
			},
		}}}
		f.Reindex()
		st := NewEvalState()
		if err := Eval(f, st); err != nil {
			t.Fatal(err)
		}
		return st.Regs[RegV0]
	}
	if got := mk(1, false); got != 0xF0 {
		t.Errorf("load1u = %#x", got)
	}
	if got := mk(1, true); got != -16 {
		t.Errorf("load1s = %d", got)
	}
	if got := mk(2, false); got != 0x8FF0 {
		t.Errorf("load2u = %#x", got)
	}
	if got := mk(2, true); got != -28688 { // 0x8FF0 sign-extended
		t.Errorf("load2s = %d", got)
	}
}

func TestEvalControlFlow(t *testing.T) {
	// Count down from 5: two-block loop.
	b0 := &Block{Start: 0x100, Instrs: []Instr{
		{Op: Move, Dst: 40, A: C(5)},
		{Op: Move, Dst: RegV0, A: C(0)},
	}}
	b1 := &Block{Start: 0x110, Instrs: []Instr{
		{Op: Add, Dst: RegV0, A: L(RegV0), B: L(40)},
		{Op: Add, Dst: 40, A: L(40), B: C(-1)},
		{Op: Branch, Cond: CondGT, A: L(40), B: C(0), Target: 0x110},
	}}
	b2 := &Block{Start: 0x120, Instrs: []Instr{{Op: Ret}}}
	f := &Func{Blocks: []*Block{b0, b1, b2}}
	f.Reindex()
	st := NewEvalState()
	if err := Eval(f, st); err != nil {
		t.Fatal(err)
	}
	if st.Regs[RegV0] != 15 {
		t.Errorf("sum 5..1 = %d, want 15", st.Regs[RegV0])
	}
}

func TestEvalErrors(t *testing.T) {
	// Step limit.
	f := &Func{Blocks: []*Block{{Start: 0x100, Instrs: []Instr{
		{Op: Jump, Target: 0x100},
	}}}}
	f.Reindex()
	st := NewEvalState()
	st.MaxSteps = 100
	if err := Eval(f, st); err == nil {
		t.Error("infinite loop did not hit the step limit")
	}
	// Calls are not evaluable.
	f2 := &Func{Blocks: []*Block{{Instrs: []Instr{{Op: Call, Target: 0x100}}}}}
	f2.Reindex()
	if err := Eval(f2, NewEvalState()); err == nil {
		t.Error("call evaluated")
	}
	// Fell off the end.
	f3 := &Func{Blocks: []*Block{{Instrs: []Instr{{Op: Nop}}}}}
	f3.Reindex()
	if err := Eval(f3, NewEvalState()); err == nil {
		t.Error("fallthrough off the end succeeded")
	}
	// Empty function.
	if err := Eval(&Func{}, NewEvalState()); err == nil {
		t.Error("empty function evaluated")
	}
}

func TestEvalWriteReadWordHelpers(t *testing.T) {
	st := NewEvalState()
	st.WriteWord(0x4000, -123456)
	if got := st.ReadWord(0x4000); got != -123456 {
		t.Errorf("ReadWord = %d", got)
	}
}
