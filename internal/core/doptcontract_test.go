package core

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"binpart/internal/bench"
	"binpart/internal/decompile"
	"binpart/internal/dopt"
	"binpart/internal/ir"
	"binpart/internal/mcc"
)

// doptAblations are the dopt configurations: the full pipeline and each
// pass that can be switched off, switched off on its own.
var doptAblations = []dopt.Config{
	{},
	{NoStackRemoval: true},
	{NoReroll: true},
	{NoPromote: true},
	{NoWidthReduce: true},
}

// TestDoptChangeReports pins the contract dopt.OptimizeWith's Cleanup
// skipping rests on, over the suite at every opt level and dopt
// ablation. It replays the pipeline pass by pass, running every Cleanup,
// and checks that:
//
//   - RemoveStackOps, Reroll, PromoteStrength and StrengthReduce each
//     report a change exactly when the function's IR changed;
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
						sig := irFingerprint(f)
						if !dopt.Cleanup(f) || irFingerprint(f) != sig {
							t.Fatalf("%s %+v: Cleanup changed its own output", where(), cfg)
						}
					}
					pass := func(name string, run func() bool) bool {
						before := irFingerprint(f)
						changed := run()
						if moved := irFingerprint(f) != before; moved != changed {
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
					if !pass("StrengthReduce", func() bool { rep.StrengthReduced = dopt.StrengthReduce(f); return rep.StrengthReduced > 0 }) {
						skippable++
					}
					cleanup()
					if !cfg.NoWidthReduce {
						rep.Width = dopt.ReduceWidths(f)
					}

					g := optimized[i]
					if got := dopt.OptimizeWith(g, cfg); !reflect.DeepEqual(got, rep) {
						t.Fatalf("%s %+v: OptimizeWith report %+v, replay %+v", where(), cfg, got, rep)
					}
					if irFingerprint(g) != irFingerprint(f) || g.NextLoc != f.NextLoc {
						t.Fatalf("%s %+v: OptimizeWith IR differs from the replay with every Cleanup", where(), cfg)
					}
				}
			}
		}
	}
	t.Logf("%d Cleanup calls, %d after a pass that reported no change", calls, skippable)
}

// irFingerprint encodes a function's IR — its name and entry, and per
// block the index, start, every field of every instruction (jump-table
// targets included) and the successor edges — at fixed widths, with a
// length before each variable-length part, so two fingerprints are equal
// exactly when the IR is.
func irFingerprint(f *ir.Func) string {
	le := binary.LittleEndian
	flag := func(b []byte, v bool) []byte {
		if v {
			return append(b, 1)
		}
		return append(b, 0)
	}
	arg := func(b []byte, a ir.Arg) []byte {
		b = flag(b, a.IsConst)
		b = le.AppendUint32(b, uint32(a.Loc))
		return le.AppendUint32(b, uint32(a.Val))
	}
	b := le.AppendUint64(nil, uint64(len(f.Name)))
	b = append(b, f.Name...)
	b = le.AppendUint32(b, f.Entry)
	b = le.AppendUint64(b, uint64(len(f.Blocks)))
	for _, blk := range f.Blocks {
		b = le.AppendUint64(b, uint64(blk.Index))
		b = le.AppendUint32(b, blk.Start)
		b = le.AppendUint64(b, uint64(len(blk.Instrs)))
		for i := range blk.Instrs {
			in := &blk.Instrs[i]
			b = le.AppendUint64(b, uint64(in.Op))
			b = le.AppendUint32(b, uint32(in.Dst))
			b = arg(b, in.A)
			b = arg(b, in.B)
			b = le.AppendUint32(b, uint32(in.Off))
			b = append(b, in.Width, in.WidthBits)
			b = flag(b, in.Signed)
			b = le.AppendUint64(b, uint64(in.Cond))
			b = le.AppendUint32(b, in.Target)
			b = le.AppendUint32(b, in.Addr)
			var table []uint32
			if in.Table != nil {
				table = in.Table.Targets
			}
			b = le.AppendUint64(b, uint64(len(table)))
			for _, t := range table {
				b = le.AppendUint32(b, t)
			}
		}
		b = le.AppendUint64(b, uint64(len(blk.Succs)))
		for _, s := range blk.Succs {
			b = le.AppendUint64(b, uint64(s.Index))
		}
	}
	return string(b)
}
