// Package sim implements a functional MIPS simulator with a cycle model
// and an execution profiler. It stands in for the hypothetical-platform
// simulation infrastructure of the reproduced paper: software execution
// times come from instruction counts weighted by a published-CPI-style
// cost model, and the profiler's per-address and per-edge counts drive the
// partitioner's "most frequent loops" step.
//
// One fast engine is checked against one oracle (see Engine):
//
//   - EngineThreaded (the default) predecodes text into pinst records,
//     then translates each basic block once, on first execution, into a
//     flat run of tag-dispatched superops (translate.go) executed by a
//     threaded inner loop (exec.go) that accounts steps and cycles per
//     block instead of per instruction. Per-instruction profile counts
//     are reconstructed from per-block execution counters. Faults and a
//     step budget that expires mid-block rewind the block's up-front
//     charge, so truncation lands on exactly the instruction the
//     reference would report.
//   - EngineReference is the original per-instruction stepper
//     (reference.go), preserved as the semantic oracle.
//
// Memory is a sparse two-level page directory with direct little-endian
// word accesses (binimg.Mem); profile counters are dense slices indexed by
// text position, converted to the map-shaped Profile only when a run
// completes. The differential tests (simdiff_test.go and the progen
// engine differentials) assert both engines produce identical Steps,
// Cycles, ExitCode, and profile maps.
package sim

import (
	"fmt"
	"sync"

	"binpart/internal/binimg"
	"binpart/internal/mips"
)

// CycleModel gives the cost in CPU cycles of each instruction class,
// loosely following an R3000-class integer pipeline.
type CycleModel struct {
	ALU         uint64
	Load        uint64
	Store       uint64
	BranchTaken uint64
	BranchNot   uint64
	Jump        uint64
	Mult        uint64
	Div         uint64
}

// DefaultCycleModel is the model used throughout the experiments.
var DefaultCycleModel = CycleModel{
	ALU:         1,
	Load:        2,
	Store:       1,
	BranchTaken: 2,
	BranchNot:   1,
	Jump:        2,
	Mult:        10,
	Div:         35,
}

// Config controls a simulation run.
type Config struct {
	StackTop uint32
	MaxSteps uint64
	Cycles   CycleModel
	Profile  bool
	// Engine selects the execution engine (default EngineThreaded). Both
	// engines are bit-identical; Execute dispatches EngineReference to
	// the preserved stepper, everything else to Machine.Run.
	Engine Engine
}

// DefaultConfig returns a Config suitable for the benchmark suite.
func DefaultConfig() Config {
	return Config{
		StackTop: binimg.DefaultStackTop,
		MaxSteps: 500_000_000,
		Cycles:   DefaultCycleModel,
		Profile:  false,
	}
}

// Profile holds execution counts gathered during a run.
type Profile struct {
	// InstCount maps instruction address to execution count.
	InstCount map[uint32]uint64
	// EdgeCount maps taken control-flow edges (branches and jumps only)
	// to counts; fallthroughs are not recorded.
	EdgeCount map[Edge]uint64
}

// Edge is one control transfer from From to To (byte addresses).
type Edge struct{ From, To uint32 }

// Result summarizes a completed run.
type Result struct {
	Steps    uint64 // instructions executed
	Cycles   uint64 // modeled CPU cycles
	ExitCode int32  // $v0 at the halting BREAK
	Profile  *Profile
}

// pinst is both a predecoded instruction and a translated superop — the
// two share one struct so a single backing array can hold the decoded
// text in its first half and the superop runs appended behind it.
//
// As a predecoded instruction (Machine.code), everything the engine
// needs per step is resolved once: register numbers as direct indices,
// the immediate in both sign- and op-specific form, the absolute target
// of static control transfers, the cycle-model cost of the instruction's
// class, the indices of this site's edge-counter slots (-1 when not
// profiling), and tix, the lazily-filled index of the translated block
// starting here (-1 until first execution).
//
// As a superop (Machine.fops), idx is the instruction's text index — the
// anchor for fault PCs and step rewinds — and tix caches a static
// transfer's target block. cost is not read on the superop path: block
// translation precomputes the whole block's cost.
type pinst struct {
	op         mips.Op
	rd, rs, rt uint8
	imm        int32  // raw signed immediate (SLTI compare)
	immU       uint32 // op-specific operand: sign- or zero-extended, or LUI-shifted
	target     uint32 // absolute taken target for branches, J, JAL
	edge       int32  // static-target edge slot (branch/J/JAL), -1 if none
	jr         int32  // dynamic-target site (JR/JALR), -1 if none
	tix        int32  // code[] only: translated-block index, -1 untranslated
	idx        int32  // fops[] only: text index of the instruction
	cost       uint64 // predecoded cycle cost (branches resolve taken/not at run time)
}

// edgeSite is one static-target control-transfer site's profile slot.
type edgeSite struct {
	from, to uint32
	n        uint64
}

// jrSite is one dynamic-target (JR/JALR) site's profile slot; targets is
// allocated on first taken transfer.
type jrSite struct {
	from    uint32
	targets map[uint32]uint64
}

// Machine is a MIPS machine instance. Create with New, execute with Run.
type Machine struct {
	cfg  Config
	cm   CycleModel // cfg.Cycles with the default applied
	img  *binimg.Image
	code []pinst
	Regs [32]uint32
	HI   uint32
	LO   uint32
	PC   uint32
	mem  binimg.Mem

	// Threaded-code translation state. back is the shared backing array
	// for code and fops (kept across pooled reuse), tblocks is the
	// per-entry-point translation cache indexed by pinst.tix.
	back    []pinst
	fops    []pinst
	tblocks []tblock

	// Dense profile counters, allocated only when cfg.Profile is set.
	// instCount is indexed by text position; control-transfer sites own
	// flat slots handed out at predecode time (exact-counted, so the
	// slices never grow). The threaded engine does not touch instCount in
	// its hot loop — buildProfile overlays per-block execution counters
	// onto it before converting everything to the map-shaped Profile.
	instCount []uint64
	edges     []edgeSite
	jrs       []jrSite
}

// New loads an image into a fresh machine.
func New(img *binimg.Image, cfg Config) (*Machine, error) {
	m := &Machine{}
	if err := m.init(img, cfg); err != nil {
		return nil, err
	}
	return m, nil
}

// init (re)initializes a machine for img and cfg. On a pooled machine it
// reuses the pinst backing, translation cache, and profile-slot buffers
// when they are large enough; every retained buffer is either fully
// rewritten (code, appended slices) or explicitly cleared (instCount).
func (m *Machine) init(img *binimg.Image, cfg Config) error {
	m.cfg, m.img = cfg, img
	m.cm = cfg.Cycles
	if m.cm == (CycleModel{}) {
		m.cm = DefaultCycleModel
	}
	m.Regs = [32]uint32{}
	m.HI, m.LO, m.PC = 0, 0, 0
	m.mem.Reset() // keeps allocated pages for pooled reuse
	n := len(img.Text)
	// One backing array for the decoded text and the superop runs the
	// translator appends behind it. Translations are per entry point, so
	// only mid-block entries duplicate text; n extra records cover
	// typical programs, and overflow just reallocates fops.
	if cap(m.back) < 2*n+1 {
		m.back = make([]pinst, 2*n+1)
	}
	m.code = m.back[:n:n]
	m.fops = m.back[n:n]
	for i, w := range img.Text {
		in, err := mips.Decode(w)
		if err != nil {
			return fmt.Errorf("sim: text word %d: %w", i, err)
		}
		m.code[i] = predecode(in, img.TextBase+uint32(4*i), m.cm)
	}
	// Count control-transfer sites: block terminators bound the
	// translation cache (plus static targets, which may enter runs
	// mid-way), and when profiling, the edge-slot slices are allocated
	// exactly once at their final size.
	terms, statics, branches, jrsites := 0, 0, 0, 0
	for i := range m.code {
		op := m.code[i].op
		if op.EndsBlock() {
			terms++
		}
		switch {
		case op.IsCondBranch(), op == mips.J, op == mips.JAL:
			statics++
			branches++
		case op == mips.JR, op == mips.JALR:
			jrsites++
		}
	}
	tcap := terms + statics + 1
	if tcap > n {
		tcap = n
	}
	if cap(m.tblocks) < tcap {
		m.tblocks = make([]tblock, 0, tcap)
	} else {
		m.tblocks = m.tblocks[:0]
	}
	if !cfg.Profile {
		m.instCount, m.edges, m.jrs = nil, nil, nil
	} else {
		if cap(m.instCount) >= n {
			m.instCount = m.instCount[:n]
			clear(m.instCount)
		} else {
			m.instCount = make([]uint64, n)
		}
		if branches > 0 {
			if cap(m.edges) >= branches {
				m.edges = m.edges[:0]
			} else {
				m.edges = make([]edgeSite, 0, branches)
			}
		} else {
			m.edges = nil
		}
		if jrsites > 0 {
			m.jrs = make([]jrSite, 0, jrsites)
		} else {
			m.jrs = nil
		}
		for i := range m.code {
			p := &m.code[i]
			pc := img.TextBase + uint32(4*i)
			switch {
			case p.op.IsCondBranch(), p.op == mips.J, p.op == mips.JAL:
				p.edge = int32(len(m.edges))
				m.edges = append(m.edges, edgeSite{from: pc, to: p.target})
			case p.op == mips.JR, p.op == mips.JALR:
				p.jr = int32(len(m.jrs))
				m.jrs = append(m.jrs, jrSite{from: pc})
			}
		}
	}
	m.mem.WriteBytes(img.DataBase, img.Data)
	m.PC = img.Entry
	m.Regs[mips.SP] = cfg.StackTop
	return nil
}

// predecode resolves one instruction at address pc into its hot-loop
// record. Edge-counter slots are assigned in a separate pass by New so
// their slices can be allocated at exact size.
func predecode(in mips.Inst, pc uint32, cm CycleModel) pinst {
	p := pinst{
		op: in.Op,
		rd: uint8(in.Rd), rs: uint8(in.Rs), rt: uint8(in.Rt),
		imm: in.Imm, immU: uint32(in.Imm),
		edge: -1, jr: -1, tix: -1, idx: -1,
	}
	switch in.Op {
	case mips.ANDI, mips.ORI, mips.XORI:
		p.immU = uint32(uint16(in.Imm))
	case mips.LUI:
		p.immU = uint32(in.Imm) << 16
	}
	switch in.Op.Cost() {
	case mips.CostLoad:
		p.cost = cm.Load
	case mips.CostStore:
		p.cost = cm.Store
	case mips.CostJump:
		p.cost = cm.Jump
	case mips.CostMult:
		p.cost = cm.Mult
	case mips.CostDiv:
		p.cost = cm.Div
	case mips.CostBranch:
		// taken/not-taken resolved in the hot loop
	default:
		p.cost = cm.ALU
	}
	switch {
	case in.IsBranch():
		p.target = pc + 4 + uint32(in.Imm)*4
	case in.Op == mips.J || in.Op == mips.JAL:
		p.target = in.Target
	}
	return p
}

// blockTermIndex returns the text index of the basic-block terminator at
// or after entry: the first control transfer or BREAK, or the last text
// index when the block runs off the end of text (executing past it then
// faults at the loop top exactly like the reference).
func (m *Machine) blockTermIndex(entry int32) int32 {
	last := int32(len(m.code)) - 1
	end := entry
	for end < last && !m.code[end].op.EndsBlock() {
		end++
	}
	return end
}

// buildProfile converts the dense counters back to the map-shaped
// Profile consumed by the partitioner and cycle attribution. Per-block
// execution counters from the threaded engine are overlaid first: each
// completed execution of a translation retired every instruction in its
// text range exactly once.
func (m *Machine) buildProfile() *Profile {
	if m.instCount == nil {
		return nil
	}
	for bi := range m.tblocks {
		blk := &m.tblocks[bi]
		if blk.exec == 0 {
			continue
		}
		for j := blk.start; j <= blk.end; j++ {
			m.instCount[j] += blk.exec
		}
	}
	nInst, nEdge := 0, 0
	for _, c := range m.instCount {
		if c != 0 {
			nInst++
		}
	}
	for i := range m.edges {
		if m.edges[i].n != 0 {
			nEdge++
		}
	}
	p := &Profile{
		InstCount: make(map[uint32]uint64, nInst),
		EdgeCount: make(map[Edge]uint64, nEdge),
	}
	tb := m.img.TextBase
	for i, c := range m.instCount {
		if c != 0 {
			p.InstCount[tb+uint32(4*i)] = c
		}
	}
	for i := range m.edges {
		if e := &m.edges[i]; e.n != 0 {
			p.EdgeCount[Edge{From: e.from, To: e.to}] += e.n
		}
	}
	for i := range m.jrs {
		for to, c := range m.jrs[i].targets {
			p.EdgeCount[Edge{From: m.jrs[i].from, To: to}] += c
		}
	}
	return p
}

// ReadWord returns the 32-bit little-endian word at addr (for tests and
// result extraction).
func (m *Machine) ReadWord(addr uint32) uint32 { return m.mem.ReadWord(addr) }

// WriteWord stores a 32-bit little-endian word at addr.
func (m *Machine) WriteWord(addr uint32, v uint32) { m.mem.WriteWord(addr, v) }

// loadFault builds the error for a rejected load, preserving the
// reference stepper's check order: near-null before misalignment.
func loadFault(addr uint32, width int) error {
	if addr < 0x1000 {
		return fmt.Errorf("sim: load from near-null address 0x%x", addr)
	}
	return fmt.Errorf("sim: misaligned %d-byte load at 0x%x", width, addr)
}

// storeFault builds the error for a rejected store: near-null, then
// misalignment, then text-section protection.
func storeFault(addr uint32, width int) error {
	if addr < 0x1000 {
		return fmt.Errorf("sim: store to near-null address 0x%x", addr)
	}
	if width > 1 && addr%uint32(width) != 0 {
		return fmt.Errorf("sim: misaligned %d-byte store at 0x%x", width, addr)
	}
	return fmt.Errorf("sim: store into text section at 0x%x", addr)
}

// fail finalizes an erroring run: the machine PC is left at the faulting
// instruction and the partial step/cycle counts are reported.
func (m *Machine) fail(res *Result, steps, cycles uint64, pc uint32, err error) (Result, error) {
	m.PC = pc
	res.Steps, res.Cycles = steps, cycles
	return *res, err
}

// recordDynEdge counts one taken dynamic-target transfer (JR/JALR).
func (m *Machine) recordDynEdge(site int32, to uint32) {
	s := &m.jrs[site]
	if s.targets == nil {
		s.targets = make(map[uint32]uint64)
	}
	s.targets[to]++
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// machinePool recycles Machines between Execute calls. The predecoded
// text, superop runs, translation cache, and profile slots dominate
// per-run allocation, and init fully rewrites or clears every retained
// buffer, so pooled reuse is invisible to results. Memory pages are not
// retained (each run starts from a fresh sparse Mem).
var machinePool sync.Pool

// acquire returns a Machine initialized for img/cfg, reusing a pooled
// machine's buffers when they are large enough.
func acquire(img *binimg.Image, cfg Config) (*Machine, error) {
	m, _ := machinePool.Get().(*Machine)
	if m == nil {
		m = &Machine{}
	}
	if err := m.init(img, cfg); err != nil {
		machinePool.Put(m)
		return nil, err
	}
	return m, nil
}

// release returns a Machine to the pool. The caller must be completely
// done with it: the next acquire rewrites every buffer.
func release(m *Machine) {
	machinePool.Put(m)
}

// Execute is a convenience wrapper: load img and run with cfg, dispatching
// on cfg.Engine. EngineReference runs the preserved per-instruction
// stepper; EngineThreaded runs the threaded-code engine.
// Nothing in the returned Result aliases machine state, so Execute runs
// on pooled machines.
func Execute(img *binimg.Image, cfg Config) (Result, error) {
	if cfg.Engine == EngineReference {
		return ExecuteReference(img, cfg)
	}
	m, err := acquire(img, cfg)
	if err != nil {
		return Result{}, err
	}
	res, rerr := m.Run()
	release(m)
	return res, rerr
}
