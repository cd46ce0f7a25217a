package dopt

import "binpart/internal/ir"

// Report aggregates what every decompiler optimization did to a function.
type Report struct {
	// MovesFolded counts temp-and-move pairs collapsed by foldMoves.
	MovesFolded int
	// DeadRemoved counts instructions removed by dead code elimination.
	DeadRemoved int
	Stack       StackReport
	Reroll      RerollReport
	Promote     PromoteReport
	// StrengthReduced counts power-of-two mul/div/rem turned into shifts.
	StrengthReduced int
	Width           WidthReport
}

// Config toggles individual passes off for ablation studies; the zero
// value runs the full pipeline.
type Config struct {
	NoStackRemoval bool
	NoReroll       bool
	NoPromote      bool
	NoWidthReduce  bool
}

// Optimize runs the full decompiler optimization pipeline on f in the
// paper's order: instruction-set overhead removal (constant propagation,
// stack operation removal, strength reduction, operator size reduction)
// and compiler-optimization undoing (loop rerolling, strength promotion).
func Optimize(f *ir.Func) Report {
	return OptimizeWith(f, Config{})
}

// OptimizeWith runs the pipeline with selected passes disabled.
//
// Each pass between two Cleanups reports what it rewrote, and reports
// nothing exactly when it left the IR unchanged. So a cleanup is skipped
// when the previous one reached its fixpoint and every pass since then
// reports no change: it would find nothing to do.
//
// The passes share one workspace of dense tables, taken from the free
// list for this call and given back when it returns.
func OptimizeWith(f *ir.Func, cfg Config) Report {
	var rep Report
	ws := newWorkspace(f)
	defer ws.release()

	// Instruction-set overhead removal.
	ws.constProp(f)
	ws.liveness(f)
	rep.MovesFolded += ws.foldMoves(f)
	rep.DeadRemoved += ws.deadCode(f)
	fixed := ws.cleanup(f)
	if !cfg.NoStackRemoval {
		rep.Stack = RemoveStackOps(f)
		if !fixed || rep.Stack.Changed() {
			fixed = ws.cleanup(f)
		}
	}

	// Undo compiler optimizations.
	changed := false
	if !cfg.NoReroll {
		rep.Reroll = ws.reroll(f)
		changed = rep.Reroll.Changed()
	}
	if !cfg.NoPromote {
		rep.Promote = ws.promoteStrength(f)
		changed = changed || rep.Promote.Changed()
	}
	if !fixed || changed {
		fixed = ws.cleanup(f)
	}

	// Final synthesis-oriented rewrites and annotations.
	rep.StrengthReduced = StrengthReduce(f)
	if !fixed || rep.StrengthReduced > 0 {
		ws.cleanup(f)
	}
	if !cfg.NoWidthReduce {
		rep.Width = ws.reduceWidths(f)
	}
	return rep
}
