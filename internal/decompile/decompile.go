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
	"errors"
	"fmt"
	"sort"
	"strings"

	"binpart/internal/binimg"
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
	// Calls records the static call graph over recovered functions:
	// caller name -> callee entry addresses.
	Calls map[string][]uint32
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
	res := &Result{Failed: make(map[string]error), Calls: make(map[string][]uint32)}
	for _, fn := range funcs {
		f, calls, err := liftFunction(img, fn, opts)
		if err != nil {
			res.Failed[fn.Name] = err
			continue
		}
		res.Funcs = append(res.Funcs, f)
		res.Calls[fn.Name] = calls
	}
	sort.Slice(res.Funcs, func(i, j int) bool { return res.Funcs[i].Entry < res.Funcs[j].Entry })
	return res, nil
}

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
		for i, w := range img.Text {
			in, err := mips.Decode(w)
			if err == nil && in.Op == mips.JAL && img.InText(in.Target) {
				targets[in.Target] = true
			}
			_ = i
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
// and CFG edges, returning the direct call targets it makes.
func liftFunction(img *binimg.Image, fn funcSpan, opts Options) (*ir.Func, []uint32, error) {
	if fn.End <= fn.Start || fn.Start%4 != 0 {
		return nil, nil, fmt.Errorf("decompile: %s: bad extent [0x%x,0x%x)", fn.Name, fn.Start, fn.End)
	}
	n := int(fn.End-fn.Start) / 4
	insts := make([]mips.Inst, n)
	for i := 0; i < n; i++ {
		w, err := img.WordAt(fn.Start + uint32(4*i))
		if err != nil {
			return nil, nil, err
		}
		in, err := mips.Decode(w)
		if err != nil {
			return nil, nil, fmt.Errorf("decompile: %s+%#x: %w", fn.Name, 4*i, err)
		}
		insts[i] = in
	}

	// Leaders: function entry, branch targets, instruction after any
	// control transfer.
	leader := make([]bool, n)
	leader[0] = true
	var tables map[uint32]*ir.JumpTable // by IJump pc
	var calls []uint32
	for i, in := range insts {
		pc := fn.Start + uint32(4*i)
		switch {
		case in.IsBranch():
			t := pc + 4 + uint32(in.Imm)*4
			if t < fn.Start || t >= fn.End {
				return nil, nil, fmt.Errorf("decompile: %s: branch at 0x%x targets 0x%x outside function", fn.Name, pc, t)
			}
			leader[(t-fn.Start)/4] = true
			if i+1 < n {
				leader[i+1] = true
			}
		case in.Op == mips.J:
			t := in.Target
			if t < fn.Start || t >= fn.End {
				return nil, nil, fmt.Errorf("decompile: %s: jump at 0x%x targets 0x%x outside function", fn.Name, pc, t)
			}
			leader[(t-fn.Start)/4] = true
			if i+1 < n {
				leader[i+1] = true
			}
		case in.Op == mips.JAL:
			calls = append(calls, in.Target)
			// A call does not end a block (control returns).
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
					}
					if i+1 < n {
						leader[i+1] = true
					}
					break
				}
				reason = jerr.Error()
			}
			return nil, nil, &IndirectJumpError{
				PC: pc, Func: fn.Name,
				Inst: fmt.Sprintf("jr %s", in.Rs), Reason: reason,
			}
		case in.Op == mips.JALR:
			return nil, nil, &IndirectJumpError{PC: pc, Func: fn.Name, Inst: "jalr"}
		case in.Op == mips.JR || in.Op == mips.BREAK:
			if i+1 < n {
				leader[i+1] = true
			}
		}
	}

	f := &ir.Func{Name: fn.Name, Entry: fn.Start, NextLoc: ir.FirstVirtual}
	// Build blocks. The function lifts into one presized array; each
	// block's instructions are a capacity-capped window of it, so a later
	// append to one block reallocates that block instead of overwriting
	// the next.
	buf := make([]ir.Instr, 0, liftedLen(insts))
	var cur *ir.Block
	first := 0
	endBlock := func() {
		if cur != nil {
			cur.Instrs = buf[first:len(buf):len(buf)]
			cur = nil
		}
	}
	for i, in := range insts {
		pc := fn.Start + uint32(4*i)
		if leader[i] || cur == nil {
			endBlock()
			cur = &ir.Block{Start: pc}
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

	// Wire edges.
	blockAt := make(map[uint32]*ir.Block, len(f.Blocks))
	for _, b := range f.Blocks {
		blockAt[b.Start] = b
	}
	addEdge := func(from, to *ir.Block) {
		from.Succs = append(from.Succs, to)
		to.Preds = append(to.Preds, from)
	}
	for i, b := range f.Blocks {
		t := b.Terminator()
		fall := (*ir.Block)(nil)
		if i+1 < len(f.Blocks) {
			fall = f.Blocks[i+1]
		}
		if t == nil {
			if fall != nil {
				addEdge(b, fall)
			}
			continue
		}
		switch t.Op {
		case ir.Branch:
			target, ok := blockAt[t.Target]
			if !ok {
				return nil, nil, fmt.Errorf("decompile: %s: branch target 0x%x is not a block leader", fn.Name, t.Target)
			}
			addEdge(b, target)
			if fall != nil {
				addEdge(b, fall)
			}
		case ir.Jump:
			target, ok := blockAt[t.Target]
			if !ok {
				return nil, nil, fmt.Errorf("decompile: %s: jump target 0x%x is not a block leader", fn.Name, t.Target)
			}
			addEdge(b, target)
		case ir.IJump:
			seen := map[uint32]bool{}
			for _, tgt := range t.Table.Targets {
				if seen[tgt] {
					continue
				}
				seen[tgt] = true
				target, ok := blockAt[tgt]
				if !ok {
					return nil, nil, fmt.Errorf("decompile: %s: jump-table target 0x%x is not a block leader", fn.Name, tgt)
				}
				addEdge(b, target)
			}
		case ir.Ret, ir.Halt:
		default:
			if fall != nil {
				addEdge(b, fall)
			}
		}
	}
	return f, calls, nil
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
