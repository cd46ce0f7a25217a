package synth

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"binpart/internal/alias"
	"binpart/internal/fpga"
	"binpart/internal/ir"
)

// buildDFG builds one block's dataflow graph in a builder of its own.
func buildDFG(b *ir.Block, am *alias.Info) *dfg {
	return newDFGBuilder([]*ir.Block{b}).build(b, am)
}

// mustSchedule schedules g, failing the test if schedule returns an error.
func mustSchedule(t *testing.T, g *dfg, res Resources, clockNs float64) *scheduleResult {
	t.Helper()
	sr, err := schedule(g, res, clockNs)
	if err != nil {
		t.Fatal(err)
	}
	return sr
}

// randomBlock builds a random but well-formed straight-line block over
// virtual locations, ending in a Ret.
func randomBlock(r *rand.Rand, n int) *ir.Block {
	b := &ir.Block{}
	var defined []ir.Loc
	next := ir.FirstVirtual
	arg := func() ir.Arg {
		if len(defined) == 0 || r.Intn(3) == 0 {
			return ir.C(int32(r.Intn(64) + 1))
		}
		return ir.L(defined[r.Intn(len(defined))])
	}
	ops := []ir.Op{ir.Add, ir.Sub, ir.Mul, ir.And, ir.Or, ir.Xor, ir.Shl, ir.ShrL, ir.Div}
	for i := 0; i < n; i++ {
		switch r.Intn(10) {
		case 0: // load
			base := next
			next++
			b.Instrs = append(b.Instrs,
				ir.Instr{Op: ir.Move, Dst: base, A: ir.C(0x1000_0000)},
				ir.Instr{Op: ir.Load, Dst: next, A: ir.L(base), Off: int32(4 * r.Intn(16)), Width: 4})
			defined = append(defined, base, next)
			next++
		case 1: // store
			if len(defined) > 0 {
				base := next
				next++
				b.Instrs = append(b.Instrs,
					ir.Instr{Op: ir.Move, Dst: base, A: ir.C(0x1000_0100)},
					ir.Instr{Op: ir.Store, A: arg(), B: ir.L(base), Off: int32(4 * r.Intn(16)), Width: 4})
				defined = append(defined, base)
			}
		default:
			op := ops[r.Intn(len(ops))]
			in := ir.Instr{Op: op, Dst: next, A: arg(), B: arg()}
			if r.Intn(2) == 0 {
				in.WidthBits = uint8(4 + r.Intn(29))
			}
			b.Instrs = append(b.Instrs, in)
			defined = append(defined, next)
			next++
		}
	}
	b.Instrs = append(b.Instrs, ir.Instr{Op: ir.Ret})
	return b
}

// TestScheduleRespectsConstraints is the scheduler's core property test:
// on random blocks, every data dependence must be ordered (chained
// same-state or strictly earlier) and per-state resource usage must stay
// within the configured limits.
func TestScheduleRespectsConstraints(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	res := Resources{MemPorts: 1, Multipliers: 2, Dividers: 1}
	for trial := 0; trial < 200; trial++ {
		b := randomBlock(r, 3+r.Intn(25))
		b.Index = 0
		g := buildDFG(b, nil)
		sr := mustSchedule(t, g, res, targetClockNs)

		// Dependence order.
		for _, n := range sr.g.nodes {
			for _, d := range n.preds {
				p := sr.g.nodes[d.from]
				if d.chainable {
					if p.state > n.state {
						t.Fatalf("trial %d: pred state %d after consumer %d\n%s",
							trial, p.state, n.state, sr.debugString())
					}
				} else if p.state >= n.state {
					t.Fatalf("trial %d: non-chainable pred state %d not before %d\n%s",
						trial, p.state, n.state, sr.debugString())
				}
			}
		}

		// Resource usage per state. Multicycle nodes occupy their start
		// state (state - span + 1); recompute conservatively by class.
		usage := map[int]map[fpga.OpClass]int{}
		for _, n := range sr.g.nodes {
			if _, counts := opClass(n.in); !counts {
				continue
			}
			if usage[n.state] == nil {
				usage[n.state] = map[fpga.OpClass]int{}
			}
			switch n.class {
			case fpga.ClassMemPort, fpga.ClassMult, fpga.ClassDiv:
				usage[n.state][n.class]++
			}
		}
		for s, byClass := range usage {
			if byClass[fpga.ClassMemPort] > res.MemPorts {
				t.Fatalf("trial %d state %d: %d mem ops > %d ports",
					trial, s, byClass[fpga.ClassMemPort], res.MemPorts)
			}
			if byClass[fpga.ClassMult] > res.Multipliers {
				t.Fatalf("trial %d state %d: mult overuse", trial, s)
			}
		}

		// Chain delays never exceed the budget.
		if sr.maxChain > targetClockNs+1e-9 {
			t.Fatalf("trial %d: chain %.2f ns over budget", trial, sr.maxChain)
		}
		if sr.states < 1 {
			t.Fatalf("trial %d: %d states", trial, sr.states)
		}
	}
}

func TestChainingPacksIndependentOps(t *testing.T) {
	// A short chain of cheap logic ops fits one state.
	b := &ir.Block{Instrs: []ir.Instr{
		{Op: ir.And, Dst: 40, A: ir.C(1), B: ir.C(2)},
		{Op: ir.Or, Dst: 41, A: ir.L(40), B: ir.C(4)},
		{Op: ir.Xor, Dst: 42, A: ir.L(41), B: ir.C(8)},
		{Op: ir.Ret},
	}}
	b.Index = 0
	sr := mustSchedule(t, buildDFG(b, nil), resourceBudget, targetClockNs)
	if sr.states != 1 {
		t.Errorf("3 chained logic ops took %d states, want 1\n%s", sr.states, sr.debugString())
	}
}

func TestMulticycleDivider(t *testing.T) {
	// A 32-bit divider exceeds any reasonable clock budget and must span
	// multiple states, delaying its consumer.
	b := &ir.Block{Instrs: []ir.Instr{
		{Op: ir.Div, Dst: 40, A: ir.C(100), B: ir.C(7)},
		{Op: ir.Add, Dst: 41, A: ir.L(40), B: ir.C(1)},
		{Op: ir.Ret},
	}}
	b.Index = 0
	sr := mustSchedule(t, buildDFG(b, nil), resourceBudget, targetClockNs)
	if sr.states < 3 {
		t.Errorf("divider + consumer in %d states; expected multicycle span\n%s",
			sr.states, sr.debugString())
	}
	div, add := sr.g.nodes[0], sr.g.nodes[1]
	if add.state <= div.state {
		t.Errorf("consumer at state %d not after divider completion %d", add.state, div.state)
	}
}

func TestMemoryDependenceOrdering(t *testing.T) {
	// Store then load of the same (unknown) object must serialize.
	b := &ir.Block{Instrs: []ir.Instr{
		{Op: ir.Move, Dst: 40, A: ir.C(0x1000_0000)},
		{Op: ir.Store, A: ir.C(7), B: ir.L(40), Width: 4},
		{Op: ir.Load, Dst: 41, A: ir.L(40), Width: 4},
		{Op: ir.Ret},
	}}
	b.Index = 0
	sr := mustSchedule(t, buildDFG(b, nil), resourceBudget, targetClockNs)
	st, ld := sr.g.nodes[1], sr.g.nodes[2]
	if ld.state <= st.state {
		t.Errorf("load at state %d not after conflicting store at %d", ld.state, st.state)
	}
}

func TestWidthBucketing(t *testing.T) {
	cases := map[int]int{1: 4, 4: 4, 5: 8, 8: 8, 9: 16, 16: 16, 17: 32, 32: 32}
	for w, want := range cases {
		if got := widthBuckets[widthBucketIndex(w)]; got != want {
			t.Errorf("bucket of width %d = %d, want %d", w, got, want)
		}
	}
}

func TestAllocationCountsPeakConcurrency(t *testing.T) {
	// Two adds in one state need two adders; a third add in a later
	// state shares them (plus mux overhead).
	b := &ir.Block{Instrs: []ir.Instr{
		{Op: ir.Add, Dst: 40, A: ir.C(1), B: ir.C(2)},
		{Op: ir.Add, Dst: 41, A: ir.C(3), B: ir.C(4)},
		{Op: ir.Mul, Dst: 42, A: ir.L(40), B: ir.L(41)},
		{Op: ir.Add, Dst: 43, A: ir.L(42), B: ir.C(5)},
		{Op: ir.Ret},
	}}
	b.Index = 0
	sr := mustSchedule(t, buildDFG(b, nil), resourceBudget, targetClockNs)
	al := new(dfgBuilder).allocate([]*scheduleResult{sr})
	addUnits := 0
	for _, c := range al.units[fpga.ClassAdd] {
		addUnits += c
	}
	if addUnits < 1 || addUnits > 3 {
		t.Errorf("adder allocation = %d", addUnits)
	}
	area := al.area(sr.states)
	if area.Slices <= 0 {
		t.Errorf("area = %+v", area)
	}
	if al.regs == 0 {
		t.Error("no registers allocated despite cross-state values")
	}
}

func TestDesignScheduleAccessor(t *testing.T) {
	f := &ir.Func{Blocks: []*ir.Block{{Instrs: []ir.Instr{
		{Op: ir.Add, Dst: 40, A: ir.C(1), B: ir.C(2)},
		{Op: ir.Ret},
	}}}}
	f.Reindex()
	d, err := Synthesize(FuncRegion(f), nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Schedule) != 1 {
		t.Fatalf("%d schedule entries, want 1", len(d.Schedule))
	}
	s := d.Schedule[0]
	if s.Block != f.Blocks[0] || s.States < 1 || len(s.StepOf) != 2 || s.II != 0 || s.Folded {
		t.Errorf("Schedule[0] = %+v", s)
	}
	for i, step := range s.StepOf {
		if step < 0 || step >= s.States {
			t.Errorf("instruction %d in step %d of %d", i, step, s.States)
		}
	}
}

// TestScheduleFailsWhenNoStateFits schedules a load with no memory port
// at all: no state can take it, so schedule must return an error naming
// the block and the load instead of moving it later forever. It runs in
// a goroutine so that a scheduler that spins fails the test rather than
// hanging it.
func TestScheduleFailsWhenNoStateFits(t *testing.T) {
	b := &ir.Block{Start: 0x400, Instrs: []ir.Instr{
		{Op: ir.Load, Dst: ir.FirstVirtual, A: ir.C(0x1000_0000), Width: 4, Addr: 0x400},
		{Op: ir.Ret, Addr: 0x404},
	}}
	done := make(chan error, 1)
	go func() {
		_, err := schedule(buildDFG(b, nil), Resources{MemPorts: 0, Multipliers: 1, Dividers: 1}, targetClockNs)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "block 0x400") || !strings.Contains(err.Error(), "load4") ||
			!strings.Contains(err.Error(), "at 0x400") {
			t.Errorf("schedule error = %v, want one naming block 0x400 and its load at 0x400", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("schedule did not return for a load with no memory port")
	}
}

func TestDesignCyclesPipelined(t *testing.T) {
	body, header := &ir.Block{Index: 1}, &ir.Block{Index: 2}
	d := &Design{Schedule: []BlockSchedule{
		{Block: body, States: 4, II: 2},
		{Block: header, States: 1, Folded: true},
	}}
	execs := []uint64{100, 101} // in Schedule's order
	// Pipelined body: 100*2 + 4 = 204; header folded into control.
	if got := d.Cycles(execs); got != 204 {
		t.Errorf("Cycles = %v, want 204", got)
	}
	// Without pipelines: 100*4 + 101*1.
	d2 := &Design{Schedule: []BlockSchedule{{Block: body, States: 4}, {Block: header, States: 1}}}
	if got := d2.Cycles(execs); got != 501 {
		t.Errorf("sequential Cycles = %v, want 501", got)
	}
	// A pipelined body that never runs costs nothing, not its depth.
	if got := d.Cycles([]uint64{0, 1}); got != 0 {
		t.Errorf("idle pipeline Cycles = %v, want 0", got)
	}
}

// debugString renders a schedule for test failures.
func (sr *scheduleResult) debugString() string {
	maxS := 0
	for i := range sr.g.nodes {
		maxS = max(maxS, sr.g.nodes[i].state)
	}
	out := ""
	for s := 0; s <= maxS; s++ {
		out += fmt.Sprintf("state %d:\n", s)
		for i := range sr.g.nodes {
			if n := &sr.g.nodes[i]; n.state == s {
				out += fmt.Sprintf("\t%s (w%d, end %.2fns)\n", n.in, n.width, n.finish)
			}
		}
	}
	return out
}
