package dopt

import (
	"fmt"
	"reflect"
	"testing"

	"binpart/internal/bench"
	"binpart/internal/binimg"
	"binpart/internal/decompile"
	"binpart/internal/ir"
	"binpart/internal/mcc"
	"binpart/internal/progen"
)

// oracleConfigs are the dopt configurations: the full pipeline and each
// pass that can be switched off, switched off on its own.
var oracleConfigs = []Config{
	{},
	{NoStackRemoval: true},
	{NoReroll: true},
	{NoPromote: true},
	{NoWidthReduce: true},
}

// uploadConfigs are the progen shapes of the upload corpus.
var uploadConfigs = []progen.Config{
	progen.DefaultConfig(), progen.SwitchConfig(), progen.StraightlineConfig(), progen.BranchyConfig(),
}

// liftFuncs decompiles img as the flow does, with switch-table recovery.
func liftFuncs(t *testing.T, img *binimg.Image) []*ir.Func {
	t.Helper()
	dec, err := decompile.DecompileWith(img, decompile.Options{RecoverJumpTables: true})
	if err != nil {
		t.Fatal(err)
	}
	return dec.Funcs
}

// sameIR reports whether f and g hold the same instructions, CFG edges
// and location allocator state.
func sameIR(f, g *ir.Func) bool {
	if len(f.Blocks) != len(g.Blocks) || f.NextLoc != g.NextLoc {
		return false
	}
	for i, b := range f.Blocks {
		c := g.Blocks[i]
		if len(b.Succs) != len(c.Succs) || !reflect.DeepEqual(b.Instrs, c.Instrs) {
			return false
		}
		for j, s := range b.Succs {
			if s.Index != c.Succs[j].Index {
				return false
			}
		}
	}
	return true
}

// checkAgainstOracle optimizes every function of img under cfg with
// OptimizeWith and with optimizeOracle, and fails t unless the reports
// and the IR agree.
func checkAgainstOracle(t *testing.T, what string, img *binimg.Image, cfg Config) {
	t.Helper()
	got, want := liftFuncs(t, img), liftFuncs(t, img)
	for i, f := range got {
		g := want[i]
		rg, rw := OptimizeWith(f, cfg), optimizeOracle(g, cfg)
		if !reflect.DeepEqual(rg, rw) {
			t.Fatalf("%s %s %+v: report %+v, oracle %+v", what, f.Name, cfg, rg, rw)
		}
		if !sameIR(f, g) {
			t.Fatalf("%s %s %+v: IR differs from the oracle's\n%s\noracle:\n%s", what, f.Name, cfg, f, g)
		}
	}
}

// TestOptimizeMatchesOracleSuite runs the benchmark suite at every opt
// level under each of the oracleConfigs through OptimizeWith
// and through the oracle pipeline.
func TestOptimizeMatchesOracleSuite(t *testing.T) {
	for _, b := range bench.All() {
		for level := 0; level <= mcc.MaxOptLevel; level++ {
			img, err := b.Compile(level)
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range oracleConfigs {
				checkAgainstOracle(t, fmt.Sprintf("%s -O%d", b.Name, level), img, cfg)
			}
		}
	}
}

// TestOptimizeMatchesOracleUploads runs the generated upload corpus
// (progen seeds 1-240 in each upload shape, at every opt level) through
// the full pipeline and the oracle pipeline.
func TestOptimizeMatchesOracleUploads(t *testing.T) {
	for seed := int64(1); seed <= 240; seed++ {
		for ci, pc := range uploadConfigs {
			p := progen.Generate(seed, pc)
			for level := 0; level <= mcc.MaxOptLevel; level++ {
				img, err := mcc.Compile(p.Source, mcc.Options{OptLevel: level})
				if err != nil {
					t.Fatalf("seed %d config %d -O%d: %v", seed, ci, level, err)
				}
				checkAgainstOracle(t, fmt.Sprintf("seed %d config %d -O%d", seed, ci, level), img, Config{})
			}
		}
	}
}

// TestPassesMatchOracles compares each rewritten pass with its oracle on
// its own, pass by pass along the oracle pipeline, so a mismatch names
// the pass.
func TestPassesMatchOracles(t *testing.T) {
	passes := []struct {
		name   string
		run    func(*workspace, *ir.Func) int
		oracle func(*ir.Func) int
	}{
		{"constProp", (*workspace).constProp, constPropOracle},
		{"globalConstProp", (*workspace).globalConstProp, globalConstPropOracle},
		{"foldMoves", afterLiveness((*workspace).foldMoves), foldMovesOracle},
		{"deadCode", afterLiveness((*workspace).deadCode), deadCodeOracle},
		{"reduceWidths", func(ws *workspace, f *ir.Func) int { return ws.reduceWidths(f).BitsSaved },
			func(f *ir.Func) int { return reduceWidthsOracle(f).BitsSaved }},
	}
	for _, b := range bench.All() {
		for level := 0; level <= mcc.MaxOptLevel; level++ {
			img, err := b.Compile(level)
			if err != nil {
				t.Fatal(err)
			}
			subj, orc := liftFuncs(t, img), liftFuncs(t, img)
			for i, f := range subj {
				g := orc[i]
				for round := 0; round < 3; round++ {
					for _, p := range passes {
						if n, m := runPass(f, p.run), p.oracle(g); n != m || !sameIR(f, g) {
							t.Fatalf("%s -O%d %s round %d: %s = %d, oracle %d, same IR %v",
								b.Name, level, f.Name, round, p.name, n, m, sameIR(f, g))
						}
					}
					RemoveStackOps(f)
					RemoveStackOps(g)
				}
			}
		}
	}
}

// TestFoldMovesLiveOutBlocksFold pins foldMoves' deadness rule: a
// location live out of the block blocks the fold even when the block
// redefines it after the move, where true liveness would allow it.
func TestFoldMovesLiveOutBlocksFold(t *testing.T) {
	const x, y, a ir.Loc = 8, 9, 10
	build := func(redefine bool) *ir.Func {
		b0 := &ir.Block{Instrs: []ir.Instr{
			{Op: ir.Add, Dst: x, A: ir.L(a), B: ir.C(1)},
			{Op: ir.Move, Dst: y, A: ir.L(x)},
			{Op: ir.Store, A: ir.L(y), B: ir.L(a)},
		}}
		if redefine {
			b0.Instrs = append(b0.Instrs, ir.Instr{Op: ir.Move, Dst: x, A: ir.C(5)})
		}
		b0.Instrs = append(b0.Instrs, ir.Instr{Op: ir.Jump})
		b1 := &ir.Block{Instrs: []ir.Instr{
			{Op: ir.Store, A: ir.L(x), B: ir.L(a)},
			{Op: ir.Ret},
		}}
		if !redefine {
			b1.Instrs[0].A = ir.L(a)
		}
		b0.Succs = []*ir.Block{b1}
		b1.Preds = []*ir.Block{b0}
		f := &ir.Func{Blocks: []*ir.Block{b0, b1}, NextLoc: ir.FirstVirtual}
		f.Reindex()
		return f
	}
	foldMoves := func(f *ir.Func) int { return runPass(f, afterLiveness((*workspace).foldMoves)) }
	// x is dead after the move and not live out: the pair folds.
	if f := build(false); foldMoves(f) != 1 || f.Blocks[0].Instrs[0].Dst != y {
		t.Errorf("dead temp: want one fold into %v, got\n%s", y, f)
	}
	// x is redefined later in the block but live out of it: no fold,
	// from the new pass and from the oracle alike.
	for name, fold := range map[string]func(*ir.Func) int{"foldMoves": foldMoves, "oracle": foldMovesOracle} {
		if f := build(true); fold(f) != 0 {
			t.Errorf("%s folded a move whose temp is live out of the block:\n%s", name, f)
		}
	}
}

// TestReduceWidthsReachesFixpoint is a program whose width analysis needs
// more than 40 rounds: a 12-stage scalar delay line carries d0's growth
// one stage per round. The xor reading the last stage must be priced at
// the fixpoint's 32 bits; stopping early left it at 30.
func TestReduceWidthsReachesFixpoint(t *testing.T) {
	src := `
		int main() {
			int acc = 0;
			int d0 = 0; int d1 = 0; int d2 = 0; int d3 = 0;
			int d4 = 0; int d5 = 0; int d6 = 0; int d7 = 0;
			int d8 = 0; int d9 = 0; int d10 = 0; int d11 = 0;
			int i;
			for (i = 0; i < 100000; i++) {
				acc = acc + (d11 ^ 5);
				d11 = d10; d10 = d9; d9 = d8; d8 = d7; d7 = d6; d6 = d5;
				d5 = d4; d4 = d3; d3 = d2; d2 = d1; d1 = d0;
				d0 = d0 + 1;
			}
			return acc;
		}
	`
	for level := 1; level <= mcc.MaxOptLevel; level++ {
		f, _ := decompileFunc(t, src, level, "main")
		g, _ := decompileFunc(t, src, level, "main")
		Optimize(f)
		optimizeOracle(g, Config{})
		if !sameIR(f, g) {
			t.Fatalf("-O%d: IR differs from the oracle's", level)
		}
		xors := 0
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if in := &b.Instrs[i]; in.Op == ir.Xor && in.B.IsConst && in.B.Val == 5 {
					xors++
					if in.WidthBits != 32 {
						t.Errorf("-O%d: %s priced at %d bits, want 32", level, in, in.WidthBits)
					}
				}
			}
		}
		if xors == 0 {
			t.Fatalf("-O%d: no xor by 5 left:\n%s", level, f)
		}
	}
}
