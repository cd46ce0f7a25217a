package synth

import (
	"fmt"
	"testing"

	"binpart/internal/alias"
	"binpart/internal/bench"
	"binpart/internal/binimg"
	"binpart/internal/decompile"
	"binpart/internal/dopt"
	"binpart/internal/ir"
	"binpart/internal/mcc"
	"binpart/internal/progen"
)

// checkDFGsAgainstOracle lifts img, optimizes it under cfg, and builds
// the dataflow graph of every block of every function with buildDFG and
// with buildDFGOracle. It fails t unless both graphs have the same edges
// and memory objects, and unless recurrenceII and its oracle agree on the
// scheduled block.
func checkDFGsAgainstOracle(t *testing.T, what string, img *binimg.Image, cfg dopt.Config) {
	t.Helper()
	dec, err := decompile.DecompileWith(img, decompile.Options{RecoverJumpTables: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range dec.Funcs {
		dopt.OptimizeWith(f, cfg)
		am := alias.AnalyzeLoops(f, img, ir.FindLoops(f))
		bd := newDFGBuilder(f.Blocks)
		for _, b := range f.Blocks {
			where := fmt.Sprintf("%s %s block %d", what, f.Name, b.Index)
			g, want := bd.build(b, am), buildDFGOracle(b, am)
			if len(g.nodes) != len(want) {
				t.Fatalf("%s: %d nodes, oracle %d", where, len(g.nodes), len(want))
			}
			succs := make([][]int, len(g.nodes))
			for i := range g.nodes {
				n, o := &g.nodes[i], want[i]
				if fmt.Sprint(n.preds) != fmt.Sprint(o.preds) {
					t.Fatalf("%s node %d: preds %v, oracle %v", where, i, n.preds, o.preds)
				}
				if n.in.Op == ir.Load || n.in.Op == ir.Store {
					if g.objs[n.mem] != o.memObj {
						t.Fatalf("%s node %d: object %q, oracle %q", where, i, g.objs[n.mem], o.memObj)
					}
				}
				for _, d := range n.preds {
					succs[d.from] = append(succs[d.from], i)
				}
			}
			for i, o := range want {
				if fmt.Sprint(succs[i]) != fmt.Sprint(o.succs) {
					t.Fatalf("%s node %d: succs %v, oracle %v", where, i, succs[i], o.succs)
				}
			}
			sr := mustSchedule(t, g, resourceBudget, targetClockNs)
			states := make([]int, len(g.nodes))
			for i := range g.nodes {
				states[i] = g.nodes[i].state
			}
			if got, want := bd.recurrenceII(sr), recurrenceIIOracle(b, states); got != want {
				t.Fatalf("%s: recurrence II %d, oracle %d", where, got, want)
			}
		}
	}
}

// TestDFGMatchesOracleSuite covers the benchmark suite at every opt level
// under the full dopt pipeline and each pass switched off on its own.
func TestDFGMatchesOracleSuite(t *testing.T) {
	cfgs := []dopt.Config{
		{}, {NoStackRemoval: true}, {NoReroll: true}, {NoPromote: true}, {NoWidthReduce: true},
	}
	for _, b := range bench.All() {
		for level := 0; level <= mcc.MaxOptLevel; level++ {
			img, err := b.Compile(level)
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range cfgs {
				checkDFGsAgainstOracle(t, fmt.Sprintf("%s -O%d %+v", b.Name, level, cfg), img, cfg)
			}
		}
	}
}

// TestDFGMatchesOracleUploads covers the generated upload corpus: progen
// seeds 1-240 in each upload shape, at every opt level.
func TestDFGMatchesOracleUploads(t *testing.T) {
	shapes := []progen.Config{
		progen.DefaultConfig(), progen.SwitchConfig(), progen.StraightlineConfig(), progen.BranchyConfig(),
	}
	for seed := int64(1); seed <= 240; seed++ {
		for ci, pc := range shapes {
			p := progen.Generate(seed, pc)
			for level := 0; level <= mcc.MaxOptLevel; level++ {
				img, err := mcc.Compile(p.Source, mcc.Options{OptLevel: level})
				if err != nil {
					t.Fatalf("seed %d config %d -O%d: %v", seed, ci, level, err)
				}
				checkDFGsAgainstOracle(t, fmt.Sprintf("seed %d config %d -O%d", seed, ci, level), img, dopt.Config{})
			}
		}
	}
}
