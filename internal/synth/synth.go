package synth

import (
	"fmt"
	"slices"

	"binpart/internal/alias"
	"binpart/internal/binimg"
	"binpart/internal/fpga"
	"binpart/internal/freelist"
	"binpart/internal/ir"
)

// Options configures synthesis of one region. The unit budget and the
// target clock are the platform's and fixed (resourceBudget,
// targetClockNs).
type Options struct {
	// Pipeline enables modulo-style loop pipelining of single-block
	// inner loops (on by default through DefaultOptions).
	Pipeline bool
}

// DefaultOptions returns the configuration used by the experiments.
func DefaultOptions() Options {
	return Options{Pipeline: true}
}

// MemObject is a data object moved into on-chip block RAM.
type MemObject struct {
	Sym   string
	Bytes int
}

// Design is the synthesized RTL-level result for one region.
type Design struct {
	Name       string
	ClockNs    float64
	Area       fpga.Area
	MemObjects []MemObject
	// Schedule is the design's one account of its timing: an entry per
	// region block, in block-index order. Cycles and the VHDL backend
	// both read it. The dataflow graphs the schedule came from are
	// dropped when Synthesize returns.
	Schedule []BlockSchedule
}

// BlockSchedule is the timing of one block of a design.
type BlockSchedule struct {
	Block *ir.Block
	// States is the block's control-step count, and StepOf[i] the step
	// its instruction i executes in. StepOf is the design's own; treat
	// it as read-only.
	States int
	StepOf []int
	// II is the initiation interval of a pipelined loop body and 0 for
	// every other block. A pipelined body's depth (the states of one
	// iteration) is its States.
	II int
	// Folded marks the header of a pipelined loop whose body is another
	// block. Cycles charges it nothing: its states are taken to run in
	// the pipeline's control.
	Folded bool
}

// ClockMHz returns the design's achievable clock in MHz.
func (d *Design) ClockMHz() float64 { return fpga.MHz(d.ClockNs) }

// GateEquivalent returns the conventional equivalent-gate area metric.
func (d *Design) GateEquivalent() int { return d.Area.GateEquivalent() }

// Region selects the blocks of a function to synthesize.
type Region struct {
	Func   *ir.Func
	Blocks []*ir.Block // in block-index order
	Name   string
	// Loops and Alias are facts about Func that a caller synthesizing
	// several regions of one function computes once and shares:
	// ir.FindLoops(Func) and alias.Analyze(Func, img). Synthesize only
	// reads them, and computes either one itself when it is nil.
	Loops []*ir.Loop
	Alias *alias.Info
}

// LoopRegion builds a Region from a recovered loop.
func LoopRegion(f *ir.Func, l *ir.Loop) Region {
	return Region{
		Func:   f,
		Blocks: l.Blocks,
		Name:   fmt.Sprintf("%s_loop_0x%x", f.Name, l.Header.Start),
	}
}

// FuncRegion builds a Region covering an entire function, supporting the
// paper's "synthesizing an entire software application" use.
func FuncRegion(f *ir.Func) Region {
	return Region{Func: f, Blocks: f.Blocks, Name: f.Name}
}

// Unsynthesizable returns the first instruction of b that no design can
// implement — a call, or an indirect jump whose table was not recovered —
// or nil when there is none.
func Unsynthesizable(b *ir.Block) *ir.Instr {
	for i := range b.Instrs {
		in := &b.Instrs[i]
		if in.Op == ir.Call || in.Op == ir.IJump && in.Table == nil {
			return in
		}
	}
	return nil
}

// Synthesize maps a region onto an FSM-with-datapath design. img provides
// data symbols for alias-driven memory disambiguation and block-RAM
// sizing; it may be nil (conservative aliasing, no array migration).
func Synthesize(r Region, img *binimg.Image, opts Options) (*Design, error) {
	blocks := r.Blocks
	if len(blocks) == 0 {
		return nil, fmt.Errorf("synth: empty region %q", r.Name)
	}
	for _, b := range blocks {
		switch in := Unsynthesizable(b); {
		case in == nil:
		case in.Op == ir.Call:
			return nil, fmt.Errorf("synth: region %q contains a call at 0x%x; inline or exclude it", r.Name, in.Addr)
		default:
			return nil, fmt.Errorf("synth: region %q contains an unresolved indirect jump at 0x%x", r.Name, in.Addr)
		}
	}
	am := r.Alias
	if am == nil && img != nil {
		am = alias.Analyze(r.Func, img)
	}

	d := &Design{Name: r.Name, Schedule: make([]BlockSchedule, len(blocks))}
	bd := newDFGBuilder(blocks)
	defer bd.release()
	scheds := make([]*scheduleResult, len(blocks))
	steps := make([]int, len(bd.all))
	var maxChain float64
	maxStates := 0
	for i, b := range blocks {
		sr, err := schedule(bd.build(b, am), resourceBudget, targetClockNs)
		if err != nil {
			return nil, err
		}
		scheds[i] = sr
		stepOf := steps[:len(sr.g.nodes):len(sr.g.nodes)]
		steps = steps[len(sr.g.nodes):]
		for j := range sr.g.nodes {
			stepOf[j] = sr.g.nodes[j].state
		}
		d.Schedule[i] = BlockSchedule{Block: b, States: sr.states, StepOf: stepOf}
		maxChain = max(maxChain, sr.maxChain)
		maxStates = max(maxStates, sr.states)
	}
	d.ClockNs = fpga.ClockFromCriticalPath(maxChain)
	d.Area = bd.allocate(scheds).area(maxStates)

	// Loop pipelining of single-block inner loops.
	if opts.Pipeline {
		pipelineLoops(r, d.Schedule, scheds, bd, resourceBudget)
	}

	// Array migration into block RAM, one or more BRAMs per object.
	if am != nil {
		for _, s := range am.Footprint(blocks) {
			if sym, ok := findSymbol(img, s); ok {
				d.MemObjects = append(d.MemObjects, MemObject{Sym: s, Bytes: int(sym.Size)})
				d.Area = d.Area.Add(fpga.Area{BRAM: max(fpga.BRAMsFor(int(sym.Size)), 1)})
			}
		}
	}
	return d, nil
}

func findSymbol(img *binimg.Image, name string) (binimg.Symbol, bool) {
	if img == nil {
		return binimg.Symbol{}, false
	}
	return img.Lookup(name)
}

// pipelineLoops sets the initiation interval of every pipelinable loop
// in the region — a loop of at most two blocks whose larger block (the
// first in index order on a tie) is taken as the body — and folds its
// other block, the rotated test header, into the pipeline control.
// Nothing checks that the header is a pure test: at -O0 it reloads the
// counter from the stack before comparing it, and its 2–3 states are
// folded all the same. II = max(resource II, recurrence II). sched and
// scheds are the region's schedule table and the block schedules bd
// built for it, in the same order.
func pipelineLoops(r Region, sched []BlockSchedule, scheds []*scheduleResult, bd *dfgBuilder, res Resources) {
	loops := r.Loops
	if loops == nil {
		loops = ir.FindLoops(r.Func)
	}
	// at returns the position of block index idx in the table.
	at := func(idx int) (int, bool) {
		return slices.BinarySearchFunc(sched, idx, func(s BlockSchedule, idx int) int { return s.Block.Index - idx })
	}
	for _, l := range loops {
		if len(l.Blocks) > 2 {
			continue
		}
		var body *ir.Block
		inRegion := true
		for _, b := range l.Blocks {
			_, ok := at(b.Index)
			inRegion = inRegion && ok
			if body == nil || len(b.Instrs) > len(body.Instrs) {
				body = b
			}
		}
		if !inRegion {
			continue
		}
		i, _ := at(body.Index)
		sr := scheds[i]
		sched[i].II = max(resourceII(sr, res), bd.recurrenceII(sr), 1)
		if h, _ := at(l.Header.Index); h != i {
			sched[h].Folded = true
		}
	}
}

// resourceII is the initiation interval forced by shared resources. Each
// known data object owns a dual-ported block RAM (partitioning step 2
// moved it on chip), so memory pressure is per object. Every unit count
// of res must be positive.
func resourceII(sr *scheduleResult, res Resources) int {
	perObj := make([]int, len(sr.g.objs))
	mult, div := 0, 0
	for i := range sr.g.nodes {
		n := &sr.g.nodes[i]
		if _, counts := opClass(n.in); !counts {
			continue
		}
		switch n.class {
		case fpga.ClassMemPort:
			perObj[n.mem]++
		case fpga.ClassMult:
			mult++
		case fpga.ClassDiv:
			div++
		}
	}
	ii := max(1, ceilDiv(mult, res.Multipliers), ceilDiv(div, res.Dividers))
	for _, c := range perObj {
		ii = max(ii, ceilDiv(c, res.MemPorts))
	}
	return ii
}

// recEntry is recurrenceII's per-location record.
type recEntry struct {
	firstRead int32 // state of the first read before any write; -1 none
	written   int32 // completion state of the final write; -1 none
	reads     int32
	def       bool
	// selfAssoc reports that the final write is an associative
	// self-update (x = x op y).
	selfAssoc bool
}

// recurrenceII is the initiation interval forced by loop-carried scalar
// dependences: for each location both read-before-write and written in
// the block, the chain from first read to last write must fit in II.
// Pure accumulators — a location read exactly once, by the associative
// self-update that writes it — are re-associated into a reduction tree
// and contribute no recurrence. Its table over the locations is the
// builder's, so the block must be one the builder was sized for.
func (bd *dfgBuilder) recurrenceII(sr *scheduleResult) int {
	bd.rec = freelist.Resize(bd.rec, len(bd.lastDef))
	rec := bd.rec
	for i := range rec {
		rec[i] = recEntry{firstRead: -1, written: -1}
	}
	b := sr.g.block
	var ub [2]ir.Loc
	for i := range sr.g.nodes {
		state := int32(sr.g.nodes[i].state)
		in := &b.Instrs[i]
		for _, u := range in.AppendUses(ub[:0]) {
			e := &rec[u]
			e.reads++
			if !e.def && e.firstRead < 0 {
				e.firstRead = state
			}
		}
		if in.HasDst() {
			e := &rec[in.Dst]
			e.def = true
			e.written = state
			isAssoc := in.Op == ir.Add || in.Op == ir.Xor || in.Op == ir.Or || in.Op == ir.And
			readsSelf := (!in.A.IsConst && in.A.Loc == in.Dst) || (!in.B.IsConst && in.B.Loc == in.Dst)
			e.selfAssoc = isAssoc && readsSelf
		}
	}
	ii := 1
	for i := range rec {
		e := &rec[i]
		if e.firstRead < 0 || e.written < 0 {
			continue
		}
		if e.selfAssoc && e.reads == 1 {
			continue // tree-reducible accumulator
		}
		if span := int(e.written - e.firstRead + 1); span > ii {
			ii = span
		}
	}
	return ii
}

// Cycles estimates the hardware cycles to execute the region once, given
// per-block execution counts (from profiling) in Schedule's order. A
// pipelined loop body contributes iterations*II + depth, its folded
// header nothing, and every other block executions*states.
func (d *Design) Cycles(blockExecs []uint64) float64 {
	var total float64
	for i := range d.Schedule {
		s := &d.Schedule[i]
		execs := blockExecs[i]
		switch {
		case s.II > 0:
			if execs > 0 {
				total += float64(execs)*float64(s.II) + float64(s.States)
			}
		case !s.Folded:
			total += float64(execs) * float64(s.States)
		}
	}
	return total
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
