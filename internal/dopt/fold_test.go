package dopt

import (
	"math/rand"
	"testing"

	"binpart/internal/ir"
)

// evalOne runs a one-block function computing op over two constants
// through the IR interpreter and returns the result register.
func evalOne(t *testing.T, op ir.Op, a, b int32) int32 {
	t.Helper()
	f := &ir.Func{Blocks: []*ir.Block{{
		Instrs: []ir.Instr{
			{Op: op, Dst: ir.RegV0, A: ir.C(a), B: ir.C(b)},
			{Op: ir.Ret},
		},
	}}}
	f.Reindex()
	st := ir.NewEvalState()
	if err := ir.Eval(f, st); err != nil {
		t.Fatal(err)
	}
	return st.Regs[ir.RegV0]
}

// TestEvalMatchesConstantFolder cross-checks the constant folder's binary
// operators against the IR interpreter on random inputs: wherever the
// folder folds, it must produce what executing the operation produces,
// or constant propagation would change program behaviour. The folder
// declines only division by zero.
func TestEvalMatchesConstantFolder(t *testing.T) {
	ops := []ir.Op{ir.Add, ir.Sub, ir.Mul, ir.MulH, ir.MulHU, ir.Div, ir.DivU, ir.Rem, ir.RemU,
		ir.And, ir.Or, ir.Xor, ir.Shl, ir.ShrL, ir.ShrA, ir.SetLT, ir.SetLTU}
	check := func(op ir.Op, a, b int32) {
		got, ok := evalBinary(op, a, b)
		divByZero := b == 0 && (op == ir.Div || op == ir.DivU || op == ir.Rem || op == ir.RemU)
		switch {
		case !ok && !divByZero:
			t.Errorf("%v %d, %d: folder declined", op, a, b)
		case ok && got != evalOne(t, op, a, b):
			t.Errorf("%v %d, %d: folder %d, interpreter %d", op, a, b, got, evalOne(t, op, a, b))
		}
	}
	r := rand.New(rand.NewSource(99))
	for range 2000 {
		op := ops[r.Intn(len(ops))]
		a, b := int32(r.Uint32()), int32(r.Uint32())
		if r.Intn(4) == 0 {
			b = int32(r.Intn(5)) - 2 // exercise small/zero divisors
		}
		check(op, a, b)
	}
	// The operands random draws almost never reach.
	for _, op := range ops {
		for _, p := range [][2]int32{{-1 << 31, -1}, {-1 << 31, 1}, {-1, -1 << 31}, {7, 0}, {0, 32}, {1, 31}, {-1, 33}} {
			check(op, p[0], p[1])
		}
	}
}
