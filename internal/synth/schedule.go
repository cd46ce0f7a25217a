// Package synth implements the behavioral synthesis tool of the
// reproduced paper ("a behavioral synthesis tool that we implemented
// ourselves"): decompiled CDFG in, register-transfer-level design out.
// The stages are classic high-level synthesis:
//
//   - dataflow graph construction per basic block, with memory edges
//     pruned by alias analysis;
//   - resource-constrained list scheduling with operator chaining under a
//     target clock period;
//   - functional-unit allocation/binding by peak concurrency, with
//     multiplexer and register overheads;
//   - modulo-style loop pipelining for single-block inner loops
//     (II = max(resource II, recurrence II));
//   - area/clock estimation against the Virtex-II model (internal/fpga)
//     and VHDL emission (internal/vhdl).
package synth

import (
	"fmt"
	"sort"

	"binpart/internal/alias"
	"binpart/internal/fpga"
	"binpart/internal/ir"
)

// Resources bounds the expensive shared units available to a design.
type Resources struct {
	MemPorts    int // concurrent block-RAM accesses per cycle (per object)
	Multipliers int
	Dividers    int
	// MemBanks partitions each known data object stride-interleaved
	// across this many block RAMs, multiplying its effective ports.
	// 1 (or 0) means no banking. Banking adds address-decode logic and
	// extra BRAM blocks but relieves port-bound loop pipelines.
	MemBanks int
}

// effectivePorts is the per-object concurrent access budget.
func (r Resources) effectivePorts() int {
	banks := r.MemBanks
	if banks < 1 {
		banks = 1
	}
	return r.MemPorts * banks
}

// DefaultResources matches a mid-size Virtex-II deployment.
var DefaultResources = Resources{MemPorts: 2, Multipliers: 8, Dividers: 1}

// node is one operation in a block's dataflow graph.
type node struct {
	idx    int // instruction index within the block
	in     *ir.Instr
	preds  []dep
	succs  []int
	state  int     // assigned control step
	finish float64 // accumulated combinational delay at end of its state
	class  fpga.OpClass
	width  int
	isMem  bool
	// memObj is the resolved data object of a memory op. Each known
	// object lives in its own dual-ported block RAM (the paper's step 2
	// moves arrays into FPGA memory "increasing parallelism"), so port
	// contention is per object; unresolved accesses share one default
	// port pair.
	memObj string
}

// dep is a dependence edge; chainable edges allow same-state execution.
type dep struct {
	from      int
	chainable bool
}

// dfg is the per-block dataflow graph.
type dfg struct {
	nodes []*node
	block *ir.Block
}

// opClass maps an IR operation to its FPGA cost class. The bool result is
// false for operations that consume no datapath resources (moves are
// wiring, constants are literals).
func opClass(in *ir.Instr) (fpga.OpClass, bool) {
	switch in.Op {
	case ir.Add, ir.Sub:
		return fpga.ClassAdd, true
	case ir.And, ir.Or, ir.Xor:
		return fpga.ClassLogic, true
	case ir.Shl, ir.ShrL, ir.ShrA:
		if in.B.IsConst {
			return fpga.ClassShiftC, true
		}
		return fpga.ClassShiftV, true
	case ir.SetLT, ir.SetLTU:
		return fpga.ClassCompare, true
	case ir.Mul, ir.MulH, ir.MulHU:
		return fpga.ClassMult, true
	case ir.Div, ir.DivU, ir.Rem, ir.RemU:
		return fpga.ClassDiv, true
	case ir.Load, ir.Store:
		return fpga.ClassMemPort, true
	case ir.Branch:
		return fpga.ClassCompare, true
	}
	return fpga.ClassLogic, false
}

// buildDFG constructs the dataflow graph of a block: true data
// dependences via reaching definitions, plus ordering edges between
// conflicting memory operations (alias-pruned), plus edges keeping the
// terminator last.
func buildDFG(b *ir.Block, am *alias.Info) *dfg {
	g := &dfg{block: b}
	lastDef := map[ir.Loc]int{}
	var memOps []int

	addDep := func(n *node, from int, chainable bool) {
		for _, d := range n.preds {
			if d.from == from {
				return
			}
		}
		n.preds = append(n.preds, dep{from: from, chainable: chainable})
		g.nodes[from].succs = append(g.nodes[from].succs, n.idx)
	}

	for i := range b.Instrs {
		in := &b.Instrs[i]
		cls, _ := opClass(in)
		n := &node{idx: i, in: in, class: cls, width: opWidth(in)}
		g.nodes = append(g.nodes, n)

		for _, u := range in.Uses() {
			if d, ok := lastDef[u]; ok {
				n.preds = append(n.preds, dep{from: d, chainable: true})
				g.nodes[d].succs = append(g.nodes[d].succs, i)
			}
		}
		if in.Op == ir.Load || in.Op == ir.Store {
			n.isMem = true
			if am != nil {
				if r := am.RefOf(in); r.Known {
					n.memObj = r.Sym
				}
			}
			for _, m := range memOps {
				mn := g.nodes[m]
				if mn.in.Op == ir.Store || in.Op == ir.Store {
					if am == nil || am.RefOf(mn.in).Conflicts(am.RefOf(in)) {
						addDep(n, m, false)
					}
				}
			}
			memOps = append(memOps, i)
		}
		if in.Op == ir.Branch || in.Op == ir.Jump || in.Op == ir.IJump || in.Op == ir.Ret || in.Op == ir.Halt {
			// Terminators run after everything with a side effect.
			for _, m := range memOps {
				addDep(n, m, false)
			}
		}
		if in.HasDst() {
			lastDef[in.Dst] = i
		}
	}
	return g
}

// opWidth returns the operator width assigned by size reduction, or 32.
func opWidth(in *ir.Instr) int {
	if in.WidthBits > 0 {
		return int(in.WidthBits)
	}
	if in.Op == ir.Load || in.Op == ir.Store {
		return 8 * int(in.Width)
	}
	return 32
}

// scheduleResult is the outcome of list scheduling one block.
type scheduleResult struct {
	g      *dfg
	states int
	// maxChain is the longest combinational chain in any state (ns).
	maxChain float64
}

// DefaultTargetClockNs is the default chaining budget: operations chain
// combinationally within a state while the accumulated delay stays under
// this period.
const DefaultTargetClockNs = 8.0

// schedule performs resource-constrained list scheduling with chaining
// under the given clock budget (ns).
func schedule(g *dfg, res Resources, clockNs float64) *scheduleResult {
	if clockNs <= 0 {
		clockNs = DefaultTargetClockNs
	}
	type slot struct {
		mem  map[string]int // per data object; "" = shared default pair
		mult int
		div  int
	}
	usage := []slot{{mem: map[string]int{}}}
	ensure := func(s int) {
		for len(usage) <= s {
			usage = append(usage, slot{mem: map[string]int{}})
		}
	}
	hasRoom := func(s int, n *node) bool {
		ensure(s)
		switch n.class {
		case fpga.ClassMemPort:
			return usage[s].mem[n.memObj] < res.effectivePorts()
		case fpga.ClassMult:
			return usage[s].mult < res.Multipliers
		case fpga.ClassDiv:
			return usage[s].div < res.Dividers
		}
		return true
	}
	take := func(s int, n *node) {
		ensure(s)
		switch n.class {
		case fpga.ClassMemPort:
			usage[s].mem[n.memObj]++
		case fpga.ClassMult:
			usage[s].mult++
		case fpga.ClassDiv:
			usage[s].div++
		}
	}

	// Process in instruction order — already a topological order of the
	// DFG since edges point backwards.
	maxState := 0
	var maxChain float64
	for _, n := range g.nodes {
		cost := fpga.CostOf(n.class, n.width)
		if _, counts := opClass(n.in); !counts {
			cost.DelayNs = 0.05 // moves and nops are wiring
		}
		// Operations slower than the clock budget become multicycle
		// units spanning several states.
		span := 1
		delay := cost.DelayNs
		if delay > clockNs {
			span = int(delay/clockNs) + 1
			delay = clockNs // occupies whole states; nothing chains after
		}

		earliest := 0
		var chainIn float64
		for {
			moved := false
			chainIn = 0
			for _, d := range n.preds {
				p := g.nodes[d.from]
				min := p.state
				if !d.chainable {
					min = p.state + 1
				}
				if min > earliest {
					earliest = min
					moved = true
				}
				if d.chainable && p.state == earliest && p.finish > chainIn {
					chainIn = p.finish
				}
			}
			if span > 1 && chainIn > 0 {
				// Multicycle units start on a register boundary.
				earliest++
				moved = true
				continue
			}
			if span == 1 && chainIn+delay > clockNs {
				earliest++
				moved = true
				continue
			}
			if !hasRoom(earliest, n) {
				earliest++
				moved = true
				continue
			}
			if !moved {
				break
			}
		}
		take(earliest, n)
		// n.state records the completion state so successors wait for
		// multicycle units.
		n.state = earliest + span - 1
		n.finish = chainIn + delay
		if span > 1 {
			n.finish = clockNs
		}
		if n.state > maxState {
			maxState = n.state
		}
		if n.finish > maxChain {
			maxChain = n.finish
		}
	}
	// Control leaves the block when its terminator fires, so the
	// terminator must sit in the final state even when its operands are
	// ready earlier (an unconditional jump has no data dependences at all
	// and would otherwise schedule into state 0, truncating the block's
	// FSM).
	if len(g.nodes) > 0 {
		last := g.nodes[len(g.nodes)-1]
		switch last.in.Op {
		case ir.Branch, ir.Jump, ir.IJump, ir.Ret, ir.Halt:
			last.state = maxState
		}
	}
	return &scheduleResult{g: g, states: maxState + 1, maxChain: maxChain}
}

// allocation summarizes functional-unit binding for area estimation.
type allocation struct {
	// units[class] = per-width peak concurrency.
	units map[fpga.OpClass]map[int]int
	// sharedOps[class] counts ops beyond the unit count (mux overhead).
	muxes int
	// regs is the number of 32-bit-equivalent registers needed for
	// values crossing state boundaries.
	regs int
}

// allocate derives the unit allocation from a set of scheduled blocks.
func allocate(scheds []*scheduleResult) *allocation {
	al := &allocation{units: map[fpga.OpClass]map[int]int{}}
	totalOps := map[fpga.OpClass]int{}
	// counts[(state*classes+class)*len(widthBuckets)+bucket] is one
	// block's op count per state, class and width bucket.
	const classes = int(fpga.ClassMemPort) + 1
	var counts []int32
	for _, sr := range scheds {
		if n := sr.states * classes * len(widthBuckets); cap(counts) < n {
			counts = make([]int32, n)
		} else {
			counts = counts[:n]
			clear(counts)
		}
		for _, n := range sr.g.nodes {
			if _, ok := opClass(n.in); !ok {
				continue
			}
			counts[(n.state*classes+int(n.class))*len(widthBuckets)+widthBucketIndex(n.width)]++
			totalOps[n.class]++
		}
		for i, c := range counts {
			if c == 0 {
				continue
			}
			cls := fpga.OpClass(i / len(widthBuckets) % classes)
			w := widthBuckets[i%len(widthBuckets)]
			if al.units[cls] == nil {
				al.units[cls] = map[int]int{}
			}
			if int(c) > al.units[cls][w] {
				al.units[cls][w] = int(c)
			}
		}
		// Registers: producer values consumed in a later state.
		for _, n := range sr.g.nodes {
			crossing := false
			for _, s := range n.succs {
				if sr.g.nodes[s].state > n.state {
					crossing = true
				}
			}
			if crossing {
				al.regs++
			}
		}
	}
	// Multiplexer overhead: each op beyond its unit's first binding needs
	// operand steering.
	for cls, widths := range al.units {
		unitCount := 0
		for _, c := range widths {
			unitCount += c
		}
		if extra := totalOps[cls] - unitCount; extra > 0 {
			al.muxes += extra
		}
	}
	return al
}

// widthBuckets are the hardware-friendly unit widths operator widths
// round up to, so that ops of similar width share a unit.
var widthBuckets = [...]int{4, 8, 16, 32}

// widthBucketIndex returns the index in widthBuckets of the bucket that
// width w rounds up to.
func widthBucketIndex(w int) int {
	switch {
	case w <= 4:
		return 0
	case w <= 8:
		return 1
	case w <= 16:
		return 2
	default:
		return 3
	}
}

// area converts an allocation plus control overhead into an area vector.
func (al *allocation) area(states int) fpga.Area {
	var a fpga.Area
	for cls, widths := range al.units {
		for w, count := range widths {
			c := fpga.CostOf(cls, w)
			for i := 0; i < count; i++ {
				a = a.Add(c.Area)
			}
		}
	}
	for i := 0; i < al.muxes; i++ {
		a = a.Add(fpga.CostOf(fpga.ClassMux, 32).Area)
	}
	for i := 0; i < al.regs; i++ {
		a = a.Add(fpga.CostOf(fpga.ClassReg, 32).Area)
	}
	// FSM: one-hot state register plus next-state/decode logic.
	a = a.Add(fpga.Area{Slices: states/2 + 8})
	return a
}

// debugString renders a schedule for tests and tooling.
func (sr *scheduleResult) debugString() string {
	byState := map[int][]*node{}
	maxS := 0
	for _, n := range sr.g.nodes {
		byState[n.state] = append(byState[n.state], n)
		if n.state > maxS {
			maxS = n.state
		}
	}
	out := ""
	for s := 0; s <= maxS; s++ {
		out += fmt.Sprintf("state %d:\n", s)
		ns := byState[s]
		sort.Slice(ns, func(i, j int) bool { return ns[i].idx < ns[j].idx })
		for _, n := range ns {
			out += fmt.Sprintf("\t%s (w%d, end %.2fns)\n", n.in, n.width, n.finish)
		}
	}
	return out
}
