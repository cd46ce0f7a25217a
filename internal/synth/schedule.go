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

	"binpart/internal/alias"
	"binpart/internal/fpga"
	"binpart/internal/freelist"
	"binpart/internal/ir"
)

// Resources bounds the expensive shared units available to a design.
type Resources struct {
	MemPorts    int // concurrent block-RAM accesses per cycle (per object)
	Multipliers int
	Dividers    int
}

// resourceBudget is the platform's fixed unit budget, a mid-size
// Virtex-II deployment: Synthesize schedules every design under it.
var resourceBudget = Resources{MemPorts: 2, Multipliers: 8, Dividers: 1}

// node is one operation in a block's dataflow graph. A node's index in
// dfg.nodes is its instruction's index in the block.
type node struct {
	in     *ir.Instr
	preds  []dep
	state  int     // assigned control step
	finish float64 // accumulated combinational delay at end of its state
	width  int
	class  fpga.OpClass
	// mem indexes the dfg's objs: the resolved data object of a memory
	// op. Each known object lives in its own dual-ported block RAM (the
	// paper's step 2 moves arrays into FPGA memory "increasing
	// parallelism"), so port contention is per object; unresolved
	// accesses share one default port pair, the object "".
	mem int32
}

// dep is a dependence edge; chainable edges allow same-state execution.
type dep struct {
	from      int
	chainable bool
}

// dfg is the per-block dataflow graph.
type dfg struct {
	nodes []node
	block *ir.Block
	// objs lists the data objects the block's memory ops touch.
	objs []string
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

// dfgBuilder carries dataflow-graph construction across the blocks of
// one synthesis call: one node array for all of them, and dense scratch
// tables indexed by location that every block reuses. Builders come
// from a free list and go back to it when Synthesize returns; a Design
// keeps only its step tables, never a builder's nodes or edges.
type dfgBuilder struct {
	nodes []node // the part of all not yet handed to a block
	all   []node
	edges []dep
	// lastDef is each location's reaching definition in the block being
	// built, -1 for none; it is all -1 between blocks.
	lastDef []int32
	memOps  []int32
	refs    []alias.Ref
	rec     []recEntry
	// allocate's per-block tables.
	counts   []int32
	crossing []bool
}

// builders keeps DFG builders between Synthesize calls.
var builders freelist.List[dfgBuilder]

// newDFGBuilder sizes a builder for blocks, reusing a kept one's tables.
func newDFGBuilder(blocks []*ir.Block) *dfgBuilder {
	total, space := 0, 0
	for _, b := range blocks {
		total += len(b.Instrs)
		for i := range b.Instrs {
			in := &b.Instrs[i]
			space = max(space, int(in.Dst)+1, int(in.A.Loc)+1, int(in.B.Loc)+1)
		}
	}
	bd := builders.Get()
	bd.all = freelist.Resize(bd.all, total)
	bd.nodes = bd.all
	if cap(bd.edges) < 2*total {
		bd.edges = make([]dep, 0, 2*total)
	}
	bd.edges = bd.edges[:0]
	bd.lastDef = freelist.Resize(bd.lastDef, space)
	for i := range bd.lastDef {
		bd.lastDef[i] = -1
	}
	return bd
}

// release drops bd's pointers into the IR and returns it to the free
// list; bd and the graphs it built must not be used after.
func (bd *dfgBuilder) release() {
	clear(bd.all)
	clear(bd.refs[:cap(bd.refs)])
	builders.Put(bd)
}

// build constructs the dataflow graph of a block: true data dependences
// via reaching definitions, plus ordering edges between conflicting
// memory operations (alias-pruned), plus edges keeping the terminator
// last. Each memory op's alias reference is fetched once.
func (bd *dfgBuilder) build(b *ir.Block, am *alias.Info) *dfg {
	n := len(b.Instrs)
	g := &dfg{block: b, nodes: bd.nodes[:n:n]}
	bd.nodes = bd.nodes[n:]
	bd.memOps, bd.refs = bd.memOps[:0], bd.refs[:0]
	// Every edge into a node is added while that node is current, so its
	// preds are the tail of the edge list from first. A later append that
	// moves the list leaves earlier nodes' preds on the old array, which
	// nothing writes again.
	first := 0
	addDep := func(from int32, chainable bool) {
		for _, d := range bd.edges[first:] {
			if d.from == int(from) {
				return
			}
		}
		bd.edges = append(bd.edges, dep{from: int(from), chainable: chainable})
	}
	var ub [2]ir.Loc
	for i := range b.Instrs {
		in := &b.Instrs[i]
		cls, _ := opClass(in)
		nd := &g.nodes[i]
		*nd = node{in: in, class: cls, width: opWidth(in)}
		first = len(bd.edges)

		for _, u := range in.AppendUses(ub[:0]) {
			if d := bd.lastDef[u]; d >= 0 {
				bd.edges = append(bd.edges, dep{from: int(d), chainable: true})
			}
		}
		if in.Op == ir.Load || in.Op == ir.Store {
			var r alias.Ref
			if am != nil {
				r = am.RefOf(in)
			}
			sym := ""
			if r.Known {
				sym = r.Sym
			}
			nd.mem = g.object(sym)
			for k, m := range bd.memOps {
				if b.Instrs[m].Op == ir.Store || in.Op == ir.Store {
					if am == nil || bd.refs[k].Conflicts(r) {
						addDep(m, false)
					}
				}
			}
			bd.memOps = append(bd.memOps, int32(i))
			bd.refs = append(bd.refs, r)
		}
		if in.Op == ir.Branch || in.Op == ir.Jump || in.Op == ir.IJump || in.Op == ir.Ret || in.Op == ir.Halt {
			// Terminators run after everything with a side effect.
			for _, m := range bd.memOps {
				addDep(m, false)
			}
		}
		if in.HasDst() {
			bd.lastDef[in.Dst] = int32(i)
		}
		end := len(bd.edges)
		nd.preds = bd.edges[first:end:end]
	}
	for i := range b.Instrs {
		if in := &b.Instrs[i]; in.HasDst() {
			bd.lastDef[in.Dst] = -1
		}
	}
	return g
}

// object returns the index of data object sym in g.objs, adding it.
func (g *dfg) object(sym string) int32 {
	for i, o := range g.objs {
		if o == sym {
			return int32(i)
		}
	}
	g.objs = append(g.objs, sym)
	return int32(len(g.objs) - 1)
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

// targetClockNs is the platform's chaining budget: operations chain
// combinationally within a state while the accumulated delay stays under
// this period. Synthesize schedules every design against it.
const targetClockNs = 8.0

// schedule performs resource-constrained list scheduling with chaining
// under the given clock budget (ns). An op that no state can take — one
// needing a unit res has none of — is an error naming the block and the
// op.
func schedule(g *dfg, res Resources, clockNs float64) (*scheduleResult, error) {
	// usage[s*stride+k] counts state s's uses of shared resource k: the
	// port pair of each data object in g.objs, then the multipliers, then
	// the dividers.
	nobj := len(g.objs)
	stride := nobj + 2
	var usage []int32
	// resource returns n's shared resource and its per-state budget, or
	// -1 when n uses none.
	resource := func(n *node) (k, budget int) {
		switch n.class {
		case fpga.ClassMemPort:
			return int(n.mem), res.MemPorts
		case fpga.ClassMult:
			return nobj, res.Multipliers
		case fpga.ClassDiv:
			return nobj + 1, res.Dividers
		}
		return -1, 0
	}
	// count returns the usage counter of resource k in state s, growing
	// the table to reach it.
	count := func(s, k int) *int32 {
		if n := (s + 1) * stride; len(usage) < n {
			usage = append(usage, make([]int32, n-len(usage))...)
		}
		return &usage[s*stride+k]
	}
	hasRoom := func(s int, n *node) bool {
		k, budget := resource(n)
		return k < 0 || int(*count(s, k)) < budget
	}
	take := func(s int, n *node) {
		if k, _ := resource(n); k >= 0 {
			*count(s, k)++
		}
	}

	// Process in instruction order — already a topological order of the
	// DFG since edges point backwards.
	maxState := 0
	var maxChain float64
	for i := range g.nodes {
		n := &g.nodes[i]
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

		// The op starts no earlier than all of its operands allow: in a
		// chained operand's state, after any other operand's.
		earliest := 0
		for _, d := range n.preds {
			min := g.nodes[d.from].state
			if !d.chainable {
				min++
			}
			earliest = max(earliest, min)
		}
		// Then it moves later while the delay chained into its state
		// overruns the clock, or the state has no free shared unit. The
		// chain delay is read at the state it would start in, never kept
		// from one it has left. A state past every scheduled op has no
		// chained inputs and idle units, so an op that does not fit there
		// fits nowhere.
		var chainIn float64
		for ; ; earliest++ {
			if earliest > maxState+1 {
				return nil, fmt.Errorf("synth: block 0x%x: no state can take %v at 0x%x", g.block.Start, n.in, n.in.Addr)
			}
			chainIn = 0
			for _, d := range n.preds {
				if p := &g.nodes[d.from]; d.chainable && p.state == earliest && p.finish > chainIn {
					chainIn = p.finish
				}
			}
			// Multicycle units start on a register boundary.
			if span > 1 && chainIn > 0 || span == 1 && chainIn+delay > clockNs || !hasRoom(earliest, n) {
				continue
			}
			break
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
		last := &g.nodes[len(g.nodes)-1]
		switch last.in.Op {
		case ir.Branch, ir.Jump, ir.IJump, ir.Ret, ir.Halt:
			last.state = maxState
		}
	}
	return &scheduleResult{g: g, states: maxState + 1, maxChain: maxChain}, nil
}

// allocation summarizes functional-unit binding for area estimation.
type allocation struct {
	// units[class][bucket] is the peak concurrency of the class's ops in
	// width bucket widthBuckets[bucket].
	units [numClasses][len(widthBuckets)]int
	// sharedOps[class] counts ops beyond the unit count (mux overhead).
	muxes int
	// regs is the number of 32-bit-equivalent registers needed for
	// values crossing state boundaries.
	regs int
}

// allocate derives the unit allocation from a set of scheduled blocks.
func (bd *dfgBuilder) allocate(scheds []*scheduleResult) *allocation {
	al := new(allocation)
	var totalOps [numClasses]int
	// counts[(state*classes+class)*len(widthBuckets)+bucket] is one
	// block's op count per state, class and width bucket.
	const classes = numClasses
	counts, crossing := bd.counts, bd.crossing
	defer func() { bd.counts, bd.crossing = counts, crossing }()
	for _, sr := range scheds {
		if n := sr.states * classes * len(widthBuckets); cap(counts) < n {
			counts = make([]int32, n)
		} else {
			counts = counts[:n]
			clear(counts)
		}
		for i := range sr.g.nodes {
			n := &sr.g.nodes[i]
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
			cls, w := i/len(widthBuckets)%classes, i%len(widthBuckets)
			al.units[cls][w] = max(al.units[cls][w], int(c))
		}
		// Registers: producer values consumed in a later state.
		if n := len(sr.g.nodes); cap(crossing) < n {
			crossing = make([]bool, n)
		} else {
			crossing = crossing[:n]
			clear(crossing)
		}
		for i := range sr.g.nodes {
			n := &sr.g.nodes[i]
			for _, d := range n.preds {
				if n.state > sr.g.nodes[d.from].state && !crossing[d.from] {
					crossing[d.from] = true
					al.regs++
				}
			}
		}
	}
	// Multiplexer overhead: each op beyond its unit's first binding needs
	// operand steering.
	for cls, widths := range &al.units {
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

// numClasses counts the operation classes a datapath op can have.
const numClasses = int(fpga.ClassMemPort) + 1

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
	for cls, widths := range &al.units {
		for w, count := range widths {
			c := fpga.CostOf(fpga.OpClass(cls), widthBuckets[w])
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
