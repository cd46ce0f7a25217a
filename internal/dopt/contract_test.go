package dopt

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"binpart/internal/bench"
	"binpart/internal/decompile"
	"binpart/internal/ir"
	"binpart/internal/mcc"
)

// doptAblations are the dopt configurations: the full pipeline and each
// pass that can be switched off, switched off on its own.
var doptAblations = []Config{
	{},
	{NoStackRemoval: true},
	{NoReroll: true},
	{NoPromote: true},
	{NoWidthReduce: true},
}

// TestDoptChangeReports pins the contract OptimizeWith's cleanup
// skipping rests on, over the suite at every opt level and dopt
// ablation. It replays the pipeline pass by pass on one workspace, as
// OptimizeWith drives it, running every cleanup, and checks that:
//
//   - RemoveStackOps, reroll, promoteStrength and StrengthReduce each
//     report a change exactly when the function's IR changed;
//   - every cleanup reaches its fixpoint within its round cap;
//   - a second cleanup on a cleanup's output changes nothing;
//   - OptimizeWith, which skips cleanups, ends at the same IR and report.
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
					ws := newWorkspace(f)
					cleanup := func() {
						calls++
						if !ws.cleanup(f) {
							t.Fatalf("%s %+v: cleanup hit its round cap", where(), cfg)
						}
						sig := irFingerprint(f)
						if !ws.cleanup(f) || irFingerprint(f) != sig {
							t.Fatalf("%s %+v: cleanup changed its own output", where(), cfg)
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

					var rep Report
					ws.constProp(f)
					ws.liveness(f)
					rep.MovesFolded += ws.foldMoves(f)
					rep.DeadRemoved += ws.deadCode(f)
					cleanup()
					if !cfg.NoStackRemoval {
						if !pass("RemoveStackOps", func() bool { rep.Stack = RemoveStackOps(f); return rep.Stack.Changed() }) {
							skippable++
						}
						cleanup()
					}
					changed := false
					if !cfg.NoReroll {
						changed = pass("reroll", func() bool { rep.Reroll = ws.reroll(f); return rep.Reroll.Changed() })
					}
					if !cfg.NoPromote {
						changed = pass("promoteStrength", func() bool { rep.Promote = ws.promoteStrength(f); return rep.Promote.Changed() }) || changed
					}
					if !changed {
						skippable++
					}
					cleanup()
					if !pass("StrengthReduce", func() bool { rep.StrengthReduced = StrengthReduce(f); return rep.StrengthReduced > 0 }) {
						skippable++
					}
					cleanup()
					if !cfg.NoWidthReduce {
						rep.Width = ws.reduceWidths(f)
					}
					ws.release()

					g := optimized[i]
					if got := OptimizeWith(g, cfg); !reflect.DeepEqual(got, rep) {
						t.Fatalf("%s %+v: OptimizeWith report %+v, replay %+v", where(), cfg, got, rep)
					}
					if irFingerprint(g) != irFingerprint(f) || g.NextLoc != f.NextLoc {
						t.Fatalf("%s %+v: OptimizeWith IR differs from the replay with every cleanup", where(), cfg)
					}
				}
			}
		}
	}
	t.Logf("%d cleanup calls, %d after a pass that reported no change", calls, skippable)
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
