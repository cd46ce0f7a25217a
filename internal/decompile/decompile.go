// Package decompile converts a MIPS binary into the instruction-set
// independent IR of package ir: binary parsing, lifting, and CDFG creation.
// It implements the first stages of the reproduced paper's decompilation
// pipeline. Control structure recovery lives in package ir (ir.Recover);
// the instruction-set-overhead and compiler-optimization-undoing passes
// live in package dopt.
//
// Per the paper, CDFG recovery fails in the presence of indirect jumps
// (e.g. switch jump tables): the jump's target set cannot be recovered
// from the binary alone. Such functions are reported in Result.Failed
// with ErrIndirectJump.
package decompile

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"binpart/internal/binimg"
	"binpart/internal/freelist"
	"binpart/internal/ir"
	"binpart/internal/mips"
)

// ErrIndirectJump marks functions whose CDFG could not be recovered
// because the binary contains a register-indirect jump.
var ErrIndirectJump = errors.New("decompile: indirect jump defeats CDFG recovery")

// IndirectJumpError is the concrete failure attached to Result.Failed
// when a register-indirect jump defeats CDFG recovery. It carries the
// faulting site so T4-style failure rows and fuzz-corpus triage are
// self-explanatory, and unwraps to ErrIndirectJump so existing
// errors.Is checks keep working.
type IndirectJumpError struct {
	// PC is the byte address of the faulting jr/jalr instruction.
	PC uint32
	// Func is the enclosing function's name.
	Func string
	// Inst renders the faulting instruction ("jr $t2", "jalr").
	Inst string
	// Reason says why jump-table recovery did not apply: the
	// resolver's rejection when it ran, or empty when recovery was
	// disabled (the paper's flow) or impossible (jalr).
	Reason string
}

// Error renders the site: "... (jr $t2 at 0x400128 in kernel: no
// plausible bound check)".
func (e *IndirectJumpError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v (%s at 0x%x in %s", ErrIndirectJump, e.Inst, e.PC, e.Func)
	if e.Reason != "" {
		fmt.Fprintf(&b, ": %s", e.Reason)
	}
	b.WriteString(")")
	return b.String()
}

// Unwrap makes errors.Is(err, ErrIndirectJump) hold.
func (e *IndirectJumpError) Unwrap() error { return ErrIndirectJump }

// Options configures decompilation.
type Options struct {
	// RecoverJumpTables enables the extension to the paper's failing
	// indirect-jump cases: when a register-indirect jump follows the
	// standard jump-table idiom (bound check, scaled index, load from a
	// constant table in the data section), the table entries are read
	// from the binary and the jump becomes a resolved multi-way branch.
	// Off by default, reproducing the paper's two CDFG-recovery failures.
	RecoverJumpTables bool
}

// Result is the outcome of decompiling a whole image.
type Result struct {
	// Funcs are the successfully recovered functions, sorted by entry.
	Funcs []*ir.Func
	// Failed maps function names to the reason recovery failed.
	Failed map[string]error
}

// Func returns the recovered function with the given name.
func (r *Result) Func(name string) *ir.Func {
	for _, f := range r.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Decompile lifts every function of the image into IR with a recovered
// CFG. Functions are identified from the symbol table when present, and
// otherwise discovered from the entry point and direct call targets.
func Decompile(img *binimg.Image) (*Result, error) {
	return DecompileWith(img, Options{})
}

// DecompileWith is Decompile with explicit options.
func DecompileWith(img *binimg.Image, opts Options) (*Result, error) {
	funcs := findFunctions(img)
	if len(funcs) == 0 {
		return nil, fmt.Errorf("decompile: no functions found in image")
	}
	res := &Result{Failed: make(map[string]error)}
	ws := scratches.Get()
	for _, fn := range funcs {
		f, err := ws.liftFunction(img, fn, opts)
		if err != nil {
			res.Failed[fn.Name] = err
			continue
		}
		res.Funcs = append(res.Funcs, f)
	}
	scratches.Put(ws)
	slices.SortFunc(res.Funcs, func(a, b *ir.Func) int { return cmp.Compare(a.Entry, b.Entry) })
	return res, nil
}

// scratch is the per-function working memory of liftFunction: the
// decoded instructions, the leader and reach marks, the block index of each
// instruction slot and the CFG edges before they are carved into the
// blocks. The lifted IR itself is the result and is never kept here.
type scratch struct {
	insts   []mips.Inst
	leader  []bool
	reached []bool
	work    []int32    // the control-flow walk's pending instruction slots
	blockOf []int32    // by instruction slot: index of the block starting there, or -1
	edges   [][2]int32 // (from, to) block indices
	deg     []int32
}

// scratches keeps lift scratch between DecompileWith calls.
var scratches freelist.List[scratch]

type funcSpan struct {
	Name  string
	Start uint32
	End   uint32
}

// findFunctions derives function extents from text symbols, or from direct
// call targets when the image is stripped.
func findFunctions(img *binimg.Image) []funcSpan {
	var starts []binimg.Symbol
	for _, s := range img.Symbols {
		if img.InText(s.Addr) {
			starts = append(starts, s)
		}
	}
	if len(starts) == 0 {
		// Stripped binary: entry plus every JAL target starts a function.
		targets := map[uint32]bool{img.Entry: true}
		for _, w := range img.Text {
			in, err := mips.Decode(w)
			if err == nil && in.Op == mips.JAL && img.InText(in.Target) {
				targets[in.Target] = true
			}
		}
		for addr := range targets {
			starts = append(starts, binimg.Symbol{Name: fmt.Sprintf("fn_%x", addr), Addr: addr})
		}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i].Addr < starts[j].Addr })
	spans := make([]funcSpan, len(starts))
	for i, s := range starts {
		end := img.TextEnd()
		if s.Size > 0 {
			end = s.Addr + s.Size
		} else if i+1 < len(starts) {
			end = starts[i+1].Addr
		}
		spans[i] = funcSpan{Name: s.Name, Start: s.Addr, End: end}
	}
	return spans
}

// liftFunction lifts one function's text into an ir.Func with basic blocks
// and CFG edges.
func (ws *scratch) liftFunction(img *binimg.Image, fn funcSpan, opts Options) (*ir.Func, error) {
	if fn.End <= fn.Start || fn.Start%4 != 0 {
		return nil, fmt.Errorf("decompile: %s: bad extent [0x%x,0x%x)", fn.Name, fn.Start, fn.End)
	}
	n := int(fn.End-fn.Start) / 4
	insts := freelist.Resize(ws.insts, n)
	ws.insts = insts
	var undecodable map[int]error // by slot; a fault only where the walk reaches it
	for i := 0; i < n; i++ {
		w, err := img.WordAt(fn.Start + uint32(4*i))
		if err != nil {
			return nil, err
		}
		in, err := mips.Decode(w)
		if err != nil {
			if undecodable == nil {
				undecodable = make(map[int]error)
			}
			undecodable[i] = fmt.Errorf("decompile: %s+%#x: %w", fn.Name, 4*i, err)
		}
		insts[i] = in
	}

	// Walk the control flow from the entry, marking the instructions some
	// path reaches and the leaders among them: the entry, branch, jump
	// and jump-table targets, and the instruction after any control
	// transfer. Only reached instructions are lifted, so a block no path
	// enters (mcc's fall-through return after a return, at -O0) is never
	// built, and a fault inside one, an undecodable word included, fails
	// nothing. Of the faults the walk meets, the one at the lowest address
	// is reported.
	leader := freelist.Resize(ws.leader, n)
	ws.leader = leader
	clear(leader)
	reached := freelist.Resize(ws.reached, n)
	ws.reached = reached
	clear(reached)
	work := ws.work[:0]
	visit := func(i int) {
		if !reached[i] {
			reached[i] = true
			work = append(work, int32(i))
		}
	}
	var tables map[uint32]*ir.JumpTable // by IJump pc
	errAt, ferr := n, error(nil)
	fail := func(i int, err error) {
		if i < errAt {
			errAt, ferr = i, err
		}
	}
	leader[0] = true
	visit(0)
	for len(work) > 0 {
		i := int(work[len(work)-1])
		work = work[:len(work)-1]
		if err := undecodable[i]; err != nil {
			fail(i, err)
			continue
		}
		in := insts[i]
		pc := fn.Start + uint32(4*i)
		// beq x, x is the unconditional-branch idiom ("b"), lifted as a
		// jump: like j, it does not fall through.
		always := in.Op == mips.BEQ && in.Rs == in.Rt
		falls := !in.EndsBlock() || in.Op == mips.JAL || in.IsBranch() && !always
		switch {
		case in.IsBranch(), in.Op == mips.J:
			t, what := in.Target, "jump"
			if in.IsBranch() {
				t, what = pc+4+uint32(in.Imm)*4, "branch"
			}
			if t < fn.Start || t >= fn.End {
				fail(i, fmt.Errorf("decompile: %s: %s at 0x%x targets 0x%x outside function", fn.Name, what, pc, t))
				continue
			}
			leader[(t-fn.Start)/4] = true
			visit(int(t-fn.Start) / 4)
		case in.Op == mips.JR && in.Rs != mips.RA:
			// Indirect jump: recovery fails, as in the paper — unless the
			// jump-table extension can resolve the target set.
			var reason string
			if opts.RecoverJumpTables {
				targets, jerr := resolveJumpTable(img, insts, i, fn)
				if jerr == nil {
					if tables == nil {
						tables = make(map[uint32]*ir.JumpTable)
					}
					tables[pc] = &ir.JumpTable{Targets: targets}
					for _, tgt := range targets {
						leader[(tgt-fn.Start)/4] = true
						visit(int(tgt-fn.Start) / 4)
					}
					break
				}
				reason = jerr.Error()
			}
			fail(i, &IndirectJumpError{
				PC: pc, Func: fn.Name,
				Inst: fmt.Sprintf("jr %s", in.Rs), Reason: reason,
			})
		case in.Op == mips.JALR:
			fail(i, &IndirectJumpError{PC: pc, Func: fn.Name, Inst: "jalr"})
		}
		if i+1 < n {
			if in.EndsBlock() && in.Op != mips.JAL {
				leader[i+1] = true
			}
			if falls {
				visit(i + 1)
			}
		}
	}
	ws.work = work
	if ferr != nil {
		return nil, ferr
	}

	f := &ir.Func{Name: fn.Name, Entry: fn.Start, NextLoc: ir.FirstVirtual}
	// Build blocks. The function lifts into one presized array; each
	// block's instructions are a capacity-capped window of it, so a later
	// append to one block reallocates that block instead of overwriting
	// the next. The blocks themselves come from one array too, counted
	// before it is made.
	nb, ended := 0, true
	for i, in := range insts {
		if reached[i] && (leader[i] || ended) {
			nb++
		}
		ended = !reached[i] || in.EndsBlock() && in.Op != mips.JAL
	}
	blocks := make([]ir.Block, nb)
	f.Blocks = make([]*ir.Block, 0, nb)
	buf := make([]ir.Instr, 0, liftedLen(insts))
	blockOf := freelist.Resize(ws.blockOf, n)
	ws.blockOf = blockOf
	for i := range blockOf {
		blockOf[i] = -1
	}
	var cur *ir.Block
	first := 0
	endBlock := func() {
		if cur != nil {
			cur.Instrs = buf[first:len(buf):len(buf)]
			cur = nil
		}
	}
	for i, in := range insts {
		if !reached[i] {
			endBlock()
			continue
		}
		pc := fn.Start + uint32(4*i)
		if leader[i] || cur == nil {
			endBlock()
			cur = &blocks[len(f.Blocks)]
			cur.Start = pc
			blockOf[i] = int32(len(f.Blocks))
			f.Blocks = append(f.Blocks, cur)
			first = len(buf)
		}
		buf = lift(buf, in, pc, tables)
		if in.EndsBlock() && in.Op != mips.JAL {
			endBlock()
		}
	}
	endBlock()
	f.Reindex()

	// Wire edges: list them in block order, then carve every block's
	// Succs and Preds from one array. The windows are capacity-capped,
	// so a later append to one reallocates it.
	blockAt := func(addr uint32) (int32, bool) {
		if addr < fn.Start || addr >= fn.End || (addr-fn.Start)%4 != 0 {
			return -1, false
		}
		bi := blockOf[(addr-fn.Start)/4]
		return bi, bi >= 0
	}
	edges := ws.edges[:0]
	for i, b := range f.Blocks {
		t := b.Terminator()
		fall := int32(-1)
		if i+1 < len(f.Blocks) {
			fall = int32(i + 1)
		}
		from := int32(i)
		if t == nil {
			if fall >= 0 {
				edges = append(edges, [2]int32{from, fall})
			}
			continue
		}
		switch t.Op {
		case ir.Branch:
			target, ok := blockAt(t.Target)
			if !ok {
				return nil, fmt.Errorf("decompile: %s: branch target 0x%x is not a block leader", fn.Name, t.Target)
			}
			edges = append(edges, [2]int32{from, target})
			if fall >= 0 {
				edges = append(edges, [2]int32{from, fall})
			}
		case ir.Jump:
			target, ok := blockAt(t.Target)
			if !ok {
				return nil, fmt.Errorf("decompile: %s: jump target 0x%x is not a block leader", fn.Name, t.Target)
			}
			edges = append(edges, [2]int32{from, target})
		case ir.IJump:
			mine := len(edges)
		targets:
			for _, tgt := range t.Table.Targets {
				target, ok := blockAt(tgt)
				if !ok {
					return nil, fmt.Errorf("decompile: %s: jump-table target 0x%x is not a block leader", fn.Name, tgt)
				}
				for _, e := range edges[mine:] {
					if e[1] == target {
						continue targets
					}
				}
				edges = append(edges, [2]int32{from, target})
			}
		case ir.Ret, ir.Halt:
		default:
			if fall >= 0 {
				edges = append(edges, [2]int32{from, fall})
			}
		}
	}
	ws.edges = edges
	deg := freelist.Resize(ws.deg, 2*nb) // succ count, then pred count, per block
	ws.deg = deg
	clear(deg)
	for _, e := range edges {
		deg[2*e[0]]++
		deg[2*e[1]+1]++
	}
	arr := make([]*ir.Block, 2*len(edges))
	for i := range blocks {
		b := &blocks[i]
		if ns := deg[2*i]; ns > 0 {
			b.Succs, arr = arr[:0:ns], arr[ns:]
		}
		if np := deg[2*i+1]; np > 0 {
			b.Preds, arr = arr[:0:np], arr[np:]
		}
	}
	for _, e := range edges {
		from, to := &blocks[e[0]], &blocks[e[1]]
		from.Succs = append(from.Succs, to)
		to.Preds = append(to.Preds, from)
	}
	return f, nil
}

// liftedLen bounds the number of IR instructions lift emits for insts:
// one each, two for the instructions that lift to a pair.
func liftedLen(insts []mips.Inst) int {
	n := len(insts)
	for _, in := range insts {
		switch in.Op {
		case mips.MULT, mips.MULTU, mips.DIV, mips.DIVU, mips.NOR:
			n++
		}
	}
	return n
}

// lift translates one MIPS instruction to IR, appending to out.
func lift(out []ir.Instr, in mips.Inst, pc uint32, tables map[uint32]*ir.JumpTable) []ir.Instr {
	emit := func(i ir.Instr) {
		i.Addr = pc
		out = append(out, i)
	}
	rl := func(r mips.Reg) ir.Arg { return ir.L(ir.Loc(r)) }
	dst := func(r mips.Reg) ir.Loc { return ir.Loc(r) }

	// Writes to $zero are architectural no-ops.
	if d, ok := in.Dest(); ok && d == mips.Zero && in.Op != mips.JAL {
		emit(ir.Instr{Op: ir.Nop})
		return out
	}

	switch in.Op {
	case mips.NOP:
		emit(ir.Instr{Op: ir.Nop})
	case mips.ADD, mips.ADDU:
		emit(ir.Instr{Op: ir.Add, Dst: dst(in.Rd), A: rl(in.Rs), B: rl(in.Rt)})
	case mips.SUB, mips.SUBU:
		emit(ir.Instr{Op: ir.Sub, Dst: dst(in.Rd), A: rl(in.Rs), B: rl(in.Rt)})
	case mips.AND:
		emit(ir.Instr{Op: ir.And, Dst: dst(in.Rd), A: rl(in.Rs), B: rl(in.Rt)})
	case mips.OR:
		emit(ir.Instr{Op: ir.Or, Dst: dst(in.Rd), A: rl(in.Rs), B: rl(in.Rt)})
	case mips.XOR:
		emit(ir.Instr{Op: ir.Xor, Dst: dst(in.Rd), A: rl(in.Rs), B: rl(in.Rt)})
	case mips.NOR:
		// nor rd, rs, rt = ~(rs|rt): lift as or + xor -1.
		emit(ir.Instr{Op: ir.Or, Dst: dst(in.Rd), A: rl(in.Rs), B: rl(in.Rt)})
		emit(ir.Instr{Op: ir.Xor, Dst: dst(in.Rd), A: rl(in.Rd), B: ir.C(-1)})
	case mips.SLT:
		emit(ir.Instr{Op: ir.SetLT, Dst: dst(in.Rd), A: rl(in.Rs), B: rl(in.Rt)})
	case mips.SLTU:
		emit(ir.Instr{Op: ir.SetLTU, Dst: dst(in.Rd), A: rl(in.Rs), B: rl(in.Rt)})
	case mips.SLL:
		emit(ir.Instr{Op: ir.Shl, Dst: dst(in.Rd), A: rl(in.Rt), B: ir.C(in.Imm)})
	case mips.SRL:
		emit(ir.Instr{Op: ir.ShrL, Dst: dst(in.Rd), A: rl(in.Rt), B: ir.C(in.Imm)})
	case mips.SRA:
		emit(ir.Instr{Op: ir.ShrA, Dst: dst(in.Rd), A: rl(in.Rt), B: ir.C(in.Imm)})
	case mips.SLLV:
		emit(ir.Instr{Op: ir.Shl, Dst: dst(in.Rd), A: rl(in.Rt), B: rl(in.Rs)})
	case mips.SRLV:
		emit(ir.Instr{Op: ir.ShrL, Dst: dst(in.Rd), A: rl(in.Rt), B: rl(in.Rs)})
	case mips.SRAV:
		emit(ir.Instr{Op: ir.ShrA, Dst: dst(in.Rd), A: rl(in.Rt), B: rl(in.Rs)})
	case mips.MULT:
		emit(ir.Instr{Op: ir.Mul, Dst: ir.LocLO, A: rl(in.Rs), B: rl(in.Rt)})
		emit(ir.Instr{Op: ir.MulH, Dst: ir.LocHI, A: rl(in.Rs), B: rl(in.Rt)})
	case mips.MULTU:
		emit(ir.Instr{Op: ir.Mul, Dst: ir.LocLO, A: rl(in.Rs), B: rl(in.Rt)})
		emit(ir.Instr{Op: ir.MulHU, Dst: ir.LocHI, A: rl(in.Rs), B: rl(in.Rt)})
	case mips.DIV:
		emit(ir.Instr{Op: ir.Div, Dst: ir.LocLO, A: rl(in.Rs), B: rl(in.Rt)})
		emit(ir.Instr{Op: ir.Rem, Dst: ir.LocHI, A: rl(in.Rs), B: rl(in.Rt)})
	case mips.DIVU:
		emit(ir.Instr{Op: ir.DivU, Dst: ir.LocLO, A: rl(in.Rs), B: rl(in.Rt)})
		emit(ir.Instr{Op: ir.RemU, Dst: ir.LocHI, A: rl(in.Rs), B: rl(in.Rt)})
	case mips.MFHI:
		emit(ir.Instr{Op: ir.Move, Dst: dst(in.Rd), A: ir.L(ir.LocHI)})
	case mips.MFLO:
		emit(ir.Instr{Op: ir.Move, Dst: dst(in.Rd), A: ir.L(ir.LocLO)})
	case mips.MTHI:
		emit(ir.Instr{Op: ir.Move, Dst: ir.LocHI, A: rl(in.Rs)})
	case mips.MTLO:
		emit(ir.Instr{Op: ir.Move, Dst: ir.LocLO, A: rl(in.Rs)})
	case mips.ADDI, mips.ADDIU:
		emit(ir.Instr{Op: ir.Add, Dst: dst(in.Rt), A: rl(in.Rs), B: ir.C(in.Imm)})
	case mips.SLTI:
		emit(ir.Instr{Op: ir.SetLT, Dst: dst(in.Rt), A: rl(in.Rs), B: ir.C(in.Imm)})
	case mips.SLTIU:
		emit(ir.Instr{Op: ir.SetLTU, Dst: dst(in.Rt), A: rl(in.Rs), B: ir.C(in.Imm)})
	case mips.ANDI:
		emit(ir.Instr{Op: ir.And, Dst: dst(in.Rt), A: rl(in.Rs), B: ir.C(in.Imm)})
	case mips.ORI:
		emit(ir.Instr{Op: ir.Or, Dst: dst(in.Rt), A: rl(in.Rs), B: ir.C(in.Imm)})
	case mips.XORI:
		emit(ir.Instr{Op: ir.Xor, Dst: dst(in.Rt), A: rl(in.Rs), B: ir.C(in.Imm)})
	case mips.LUI:
		emit(ir.Instr{Op: ir.Move, Dst: dst(in.Rt), A: ir.C(in.Imm << 16)})
	case mips.LB:
		emit(ir.Instr{Op: ir.Load, Dst: dst(in.Rt), A: rl(in.Rs), Off: in.Imm, Width: 1, Signed: true})
	case mips.LBU:
		emit(ir.Instr{Op: ir.Load, Dst: dst(in.Rt), A: rl(in.Rs), Off: in.Imm, Width: 1})
	case mips.LH:
		emit(ir.Instr{Op: ir.Load, Dst: dst(in.Rt), A: rl(in.Rs), Off: in.Imm, Width: 2, Signed: true})
	case mips.LHU:
		emit(ir.Instr{Op: ir.Load, Dst: dst(in.Rt), A: rl(in.Rs), Off: in.Imm, Width: 2})
	case mips.LW:
		emit(ir.Instr{Op: ir.Load, Dst: dst(in.Rt), A: rl(in.Rs), Off: in.Imm, Width: 4})
	case mips.SB:
		emit(ir.Instr{Op: ir.Store, A: rl(in.Rt), B: rl(in.Rs), Off: in.Imm, Width: 1})
	case mips.SH:
		emit(ir.Instr{Op: ir.Store, A: rl(in.Rt), B: rl(in.Rs), Off: in.Imm, Width: 2})
	case mips.SW:
		emit(ir.Instr{Op: ir.Store, A: rl(in.Rt), B: rl(in.Rs), Off: in.Imm, Width: 4})
	case mips.BEQ:
		if in.Rs == in.Rt {
			// beq x, x is the standard unconditional-branch idiom ("b").
			emit(ir.Instr{Op: ir.Jump, Target: pc + 4 + uint32(in.Imm)*4})
			return out
		}
		emit(ir.Instr{Op: ir.Branch, Cond: ir.CondEQ, A: rl(in.Rs), B: rl(in.Rt), Target: pc + 4 + uint32(in.Imm)*4})
	case mips.BNE:
		emit(ir.Instr{Op: ir.Branch, Cond: ir.CondNE, A: rl(in.Rs), B: rl(in.Rt), Target: pc + 4 + uint32(in.Imm)*4})
	case mips.BLEZ:
		emit(ir.Instr{Op: ir.Branch, Cond: ir.CondLE, A: rl(in.Rs), B: ir.C(0), Target: pc + 4 + uint32(in.Imm)*4})
	case mips.BGTZ:
		emit(ir.Instr{Op: ir.Branch, Cond: ir.CondGT, A: rl(in.Rs), B: ir.C(0), Target: pc + 4 + uint32(in.Imm)*4})
	case mips.BLTZ:
		emit(ir.Instr{Op: ir.Branch, Cond: ir.CondLT, A: rl(in.Rs), B: ir.C(0), Target: pc + 4 + uint32(in.Imm)*4})
	case mips.BGEZ:
		emit(ir.Instr{Op: ir.Branch, Cond: ir.CondGE, A: rl(in.Rs), B: ir.C(0), Target: pc + 4 + uint32(in.Imm)*4})
	case mips.J:
		emit(ir.Instr{Op: ir.Jump, Target: in.Target})
	case mips.JAL:
		emit(ir.Instr{Op: ir.Call, Target: in.Target})
	case mips.JR:
		if in.Rs != mips.RA {
			// A resolved jump table (unresolved ones failed earlier).
			emit(ir.Instr{Op: ir.IJump, A: rl(in.Rs), Table: tables[pc]})
			return out
		}
		emit(ir.Instr{Op: ir.Ret})
	case mips.BREAK:
		emit(ir.Instr{Op: ir.Halt})
	default:
		emit(ir.Instr{Op: ir.Nop})
	}
	return out
}
