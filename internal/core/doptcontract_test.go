package core

import (
	"fmt"
	"reflect"
	"testing"

	"binpart/internal/bench"
	"binpart/internal/decompile"
	"binpart/internal/dopt"
	"binpart/internal/ir"
	"binpart/internal/mcc"
)

// doptAblations are the six dopt configurations the experiments run:
// the full pipeline and each pass switched off on its own.
var doptAblations = []dopt.Config{
	{},
	{NoStackRemoval: true},
	{NoReroll: true},
	{NoPromote: true},
	{NoStrengthRed: true},
	{NoWidthReduce: true},
}

// TestDoptChangeReports pins the contract dopt.OptimizeWith's Cleanup
// skipping rests on, over the suite at every opt level and dopt
// ablation. It replays the pipeline pass by pass, running every Cleanup,
// and checks that:
//
//   - RemoveStackOps, Reroll, PromoteStrength and StrengthReduce each
//     report a change exactly when the function's CDFG signature changed;
//   - every Cleanup reaches its fixpoint within its round cap;
//   - a second Cleanup on a Cleanup's output changes nothing;
//   - OptimizeWith, which skips Cleanups, ends at the same IR and report.
func TestDoptChangeReports(t *testing.T) {
	calls, skippable := 0, 0
	for _, b := range bench.All() {
		for level := 0; level <= mcc.MaxOptLevel; level++ {
			img, err := b.Compile(level)
			if err != nil {
				t.Fatal(err)
			}
			for _, cfg := range doptAblations {
				lift := func() []*ir.Func {
					dec, err := decompile.DecompileWith(img, decompile.Options{RecoverJumpTables: true})
					if err != nil {
						t.Fatal(err)
					}
					return dec.Funcs
				}
				replayed, optimized := lift(), lift()
				for i, f := range replayed {
					where := func() string { return fmt.Sprintf("%s -O%d %s", b.Name, level, f.Name) }
					cleanup := func() {
						calls++
						if !dopt.Cleanup(f) {
							t.Fatalf("%s %+v: Cleanup hit its round cap", where(), cfg)
						}
						sig := funcSignature(f)
						if !dopt.Cleanup(f) || funcSignature(f) != sig {
							t.Fatalf("%s %+v: Cleanup changed its own output", where(), cfg)
						}
					}
					pass := func(name string, run func() bool) bool {
						before := funcSignature(f)
						changed := run()
						if moved := funcSignature(f) != before; moved != changed {
							t.Fatalf("%s %+v: %s reports change=%v, IR changed=%v", where(), cfg, name, changed, moved)
						}
						return changed
					}

					var rep dopt.Report
					dopt.ConstProp(f)
					rep.MovesFolded += dopt.FoldMoves(f)
					rep.DeadRemoved += dopt.DeadCode(f)
					cleanup()
					if !cfg.NoStackRemoval {
						if !pass("RemoveStackOps", func() bool { rep.Stack = dopt.RemoveStackOps(f); return rep.Stack.Changed() }) {
							skippable++
						}
						cleanup()
					}
					changed := false
					if !cfg.NoReroll {
						changed = pass("Reroll", func() bool { rep.Reroll = dopt.Reroll(f); return rep.Reroll.Changed() })
					}
					if !cfg.NoPromote {
						changed = pass("PromoteStrength", func() bool { rep.Promote = dopt.PromoteStrength(f); return rep.Promote.Changed() }) || changed
					}
					if !changed {
						skippable++
					}
					cleanup()
					if !cfg.NoStrengthRed {
						if !pass("StrengthReduce", func() bool { rep.StrengthReduced = dopt.StrengthReduce(f); return rep.StrengthReduced > 0 }) {
							skippable++
						}
						cleanup()
					}
					if !cfg.NoWidthReduce {
						rep.Width = dopt.ReduceWidths(f)
					}

					g := optimized[i]
					if got := dopt.OptimizeWith(g, cfg); !reflect.DeepEqual(got, rep) {
						t.Fatalf("%s %+v: OptimizeWith report %+v, replay %+v", where(), cfg, got, rep)
					}
					if funcSignature(g) != funcSignature(f) || g.NextLoc != f.NextLoc {
						t.Fatalf("%s %+v: OptimizeWith IR differs from the replay with every Cleanup", where(), cfg)
					}
				}
			}
		}
	}
	t.Logf("%d Cleanup calls, %d after a pass that reported no change", calls, skippable)
}
