// Package vhdl emits register-transfer-level VHDL for synthesized designs
// (the output format of the reproduced paper's synthesis tool) and reads
// it back with one strict parser — the stand-in for "Xilinx ISE accepts
// the VHDL and maps it to a netlist" — whose tree SimulateDesign runs.
//
// The generated style is a classic single-process FSMD: one clocked
// process holding the state register and datapath variables, a case over
// control steps, and a two-port memory interface for block-RAM access.
package vhdl

import (
	"fmt"
	"sort"
	"strings"

	"binpart/internal/ir"
	"binpart/internal/synth"
)

// port is one port of every design entity. Emit's port clause and
// EmitTestbench's signals and port map are all rendered from ports.
type port struct{ name, mode, typ string }

const word = "std_logic_vector(31 downto 0)"

var ports = []port{
	{"clk", "in", "std_logic"},
	{"rst", "in", "std_logic"},
	{"start", "in", "std_logic"},
	{"done", "out", "std_logic"},
	{"arg0", "in", word},
	{"arg1", "in", word},
	{"result", "out", word},
	{"mem0_addr", "out", word},
	{"mem0_wdata", "out", word},
	{"mem0_rdata", "in", word},
	{"mem0_we", "out", "std_logic"},
	{"mem0_size", "out", "std_logic_vector(1 downto 0)"},
	{"mem1_addr", "out", word},
	{"mem1_rdata", "in", word},
	{"mem1_size", "out", "std_logic_vector(1 downto 0)"},
	{"mem1_sx", "out", "std_logic"},
}

// blockNames assigns every in-block definition its own datapath variable
// (per-definition renaming, as hardware binding does) and resolves each
// operand to either the producing definition's variable or the
// architectural location register when the value is live-in. Without
// renaming, the scheduler's dataflow freedom (it only orders true
// dependences) could let a later write clobber a location variable that
// an op scheduled in an earlier state still reads.
type blockNames struct {
	defName   []string
	useA      []string // resolved name for the A operand when it is a loc
	useB      []string
	lastDefOf map[ir.Loc]int
}

func renameBlock(blk *ir.Block) *blockNames {
	n := len(blk.Instrs)
	bn := &blockNames{
		defName:   make([]string, n),
		useA:      make([]string, n),
		useB:      make([]string, n),
		lastDefOf: map[ir.Loc]int{},
	}
	reach := map[ir.Loc]int{}
	resolve := func(a ir.Arg) string {
		if a.IsConst || a.Loc == ir.RegZero {
			return ""
		}
		if d, ok := reach[a.Loc]; ok {
			return bn.defName[d]
		}
		return varName(a.Loc)
	}
	for i := range blk.Instrs {
		in := &blk.Instrs[i]
		bn.useA[i] = resolve(in.A)
		bn.useB[i] = resolve(in.B)
		if in.HasDst() {
			bn.defName[i] = fmt.Sprintf("t_b%d_i%d", blk.Index, i)
			reach[in.Dst] = i
			bn.lastDefOf[in.Dst] = i
		}
	}
	return bn
}

// Emit renders the design as RT-level VHDL.
func Emit(d *synth.Design) (string, error) {
	var b strings.Builder
	name := sanitize(d.Name)

	fmt.Fprintf(&b, "-- Generated by binpart behavioral synthesis\n")
	fmt.Fprintf(&b, "-- design: %s  clock: %.2f ns (%.1f MHz)  area: %d slices, %d mult18, %d bram\n",
		d.Name, d.ClockNs, d.ClockMHz(), d.Area.Slices, d.Area.Mult18, d.Area.BRAM)
	for _, m := range d.MemObjects {
		fmt.Fprintf(&b, "-- block ram: %s (%d bytes)\n", m.Sym, m.Bytes)
	}
	b.WriteString("library ieee;\n")
	b.WriteString("use ieee.std_logic_1164.all;\n")
	b.WriteString("use ieee.numeric_std.all;\n\n")

	fmt.Fprintf(&b, "entity %s is\n", name)
	b.WriteString("  port (\n")
	for i, p := range ports {
		sep := ";"
		if i == len(ports)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "    %-10s : %-3s %s%s\n", p.name, p.mode, p.typ, sep)
	}
	b.WriteString("  );\n")
	fmt.Fprintf(&b, "end %s;\n\n", name)

	fmt.Fprintf(&b, "architecture rtl of %s is\n", name)

	// State enumeration: idle plus (block, step) states.
	states := []string{"st_idle", "st_done"}
	for _, bs := range d.Schedule {
		for s := 0; s < max(bs.States, 1); s++ {
			states = append(states, stateName(bs.Block.Index, s))
		}
	}
	fmt.Fprintf(&b, "  type state_t is (%s);\n", strings.Join(states, ", "))
	b.WriteString("  signal state : state_t;\n")

	// One register per architectural location used by the region.
	locs := usedLocs(d)
	for _, l := range locs {
		fmt.Fprintf(&b, "  signal %s : signed(31 downto 0);\n", locName(l))
	}
	names := make([]*blockNames, len(d.Schedule))
	for i, bs := range d.Schedule {
		names[i] = renameBlock(bs.Block)
	}
	b.WriteString("begin\n")
	b.WriteString("  fsmd : process (clk)\n")
	for _, l := range locs {
		fmt.Fprintf(&b, "    variable %s : signed(31 downto 0);\n", varName(l))
	}
	for _, bn := range names {
		for _, dn := range bn.defName {
			if dn != "" {
				fmt.Fprintf(&b, "    variable %s : signed(31 downto 0);\n", dn)
			}
		}
	}
	b.WriteString("  begin\n")
	b.WriteString("    if rising_edge(clk) then\n")
	b.WriteString("      if rst = '1' then\n")
	b.WriteString("        state <= st_idle;\n")
	b.WriteString("        done <= '0';\n")
	b.WriteString("      else\n")
	for _, l := range locs {
		fmt.Fprintf(&b, "        %s := %s;\n", varName(l), locName(l))
	}
	b.WriteString("        mem0_we <= '0';\n")
	b.WriteString("        case state is\n")
	b.WriteString("          when st_idle =>\n")
	b.WriteString("            done <= '0';\n")
	b.WriteString("            if start = '1' then\n")
	if len(locs) > 0 {
		fmt.Fprintf(&b, "              %s := signed(arg0);\n", varName(ir.RegA0))
	}
	fmt.Fprintf(&b, "              state <= %s;\n", stateName(d.Schedule[0].Block.Index, 0))
	b.WriteString("            end if;\n")
	b.WriteString("          when st_done =>\n")
	b.WriteString("            done <= '1';\n")
	fmt.Fprintf(&b, "            result <= std_logic_vector(%s);\n", varName(ir.RegV0))

	inRegion := map[int]bool{}
	for _, bs := range d.Schedule {
		inRegion[bs.Block.Index] = true
	}
	for k, bs := range d.Schedule {
		blk, n, bn := bs.Block, max(bs.States, 1), names[k]
		for s := 0; s < n; s++ {
			fmt.Fprintf(&b, "          when %s =>\n", stateName(blk.Index, s))
			transferred := false
			// Data operations of this step.
			termIdx := -1
			for i := range blk.Instrs {
				if bs.StepOf[i] != s {
					continue
				}
				if isTransfer(&blk.Instrs[i]) {
					termIdx = i
					continue
				}
				if _, err := emitInstr(&b, blk, i, inRegion, bn); err != nil {
					return "", err
				}
			}
			// In the block's final state, commit each location's last
			// definition back to its architectural register before
			// control leaves.
			if s == n-1 {
				emitWritebacks(&b, bn)
			}
			if termIdx >= 0 {
				t, err := emitInstr(&b, blk, termIdx, inRegion, bn)
				if err != nil {
					return "", err
				}
				transferred = t
			}
			if !transferred {
				if s+1 < n {
					fmt.Fprintf(&b, "            state <= %s;\n", stateName(blk.Index, s+1))
				} else {
					// Fall through to the next region block or finish.
					next := fallthroughTarget(blk, inRegion)
					fmt.Fprintf(&b, "            state <= %s;\n", next)
				}
			}
		}
	}
	b.WriteString("        end case;\n")
	for _, l := range locs {
		fmt.Fprintf(&b, "        %s <= %s;\n", locName(l), varName(l))
	}
	b.WriteString("      end if;\n")
	b.WriteString("    end if;\n")
	b.WriteString("  end process fsmd;\n")
	b.WriteString("end rtl;\n")
	return b.String(), nil
}

// sameArg reports whether two operand values are the identical operand.
func sameArg(x, y ir.Arg) bool { return x == y }

// isTransfer reports whether the instruction moves control.
func isTransfer(in *ir.Instr) bool {
	switch in.Op {
	case ir.Branch, ir.Jump, ir.IJump, ir.Ret, ir.Halt:
		return true
	}
	return false
}

// emitWritebacks commits the block's final value of every written
// location to its architectural register variable, in location order.
func emitWritebacks(b *strings.Builder, bn *blockNames) {
	locs := make([]ir.Loc, 0, len(bn.lastDefOf))
	for l := range bn.lastDefOf {
		locs = append(locs, l)
	}
	sort.Slice(locs, func(i, j int) bool { return locs[i] < locs[j] })
	for _, l := range locs {
		fmt.Fprintf(b, "            %s := %s;\n", varName(l), bn.defName[bn.lastDefOf[l]])
	}
}

// emitInstr renders one instruction inside its state. Returns true if it
// emitted a state transfer.
func emitInstr(b *strings.Builder, blk *ir.Block, i int, inRegion map[int]bool, bn *blockNames) (bool, error) {
	in := &blk.Instrs[i]
	ind := "            "
	resolved := func(name string, a ir.Arg) string {
		if a.IsConst {
			return fmt.Sprintf("to_signed(%d, 32)", a.Val)
		}
		if a.Loc == ir.RegZero {
			return "to_signed(0, 32)"
		}
		if name != "" {
			return name
		}
		return varName(a.Loc)
	}
	argA := func() string { return resolved(bn.useA[i], in.A) }
	argB := func() string { return resolved(bn.useB[i], in.B) }
	arg := func(a ir.Arg) string {
		// Positional resolution: A and B map to their renamed sources.
		if sameArg(a, in.A) {
			return argA()
		}
		return argB()
	}
	uarg := func(a ir.Arg) string { return fmt.Sprintf("unsigned(%s)", arg(a)) }
	dst := bn.defName[i]
	if dst == "" {
		dst = varName(in.Dst)
	}

	switch in.Op {
	case ir.Nop:
	case ir.Add:
		fmt.Fprintf(b, "%s%s := %s + %s;\n", ind, dst, arg(in.A), arg(in.B))
	case ir.Sub:
		fmt.Fprintf(b, "%s%s := %s - %s;\n", ind, dst, arg(in.A), arg(in.B))
	case ir.Mul:
		fmt.Fprintf(b, "%s%s := resize(%s * %s, 32);\n", ind, dst, arg(in.A), arg(in.B))
	case ir.MulH:
		fmt.Fprintf(b, "%s%s := resize(shift_right(%s * %s, 32), 32);\n", ind, dst, arg(in.A), arg(in.B))
	case ir.MulHU:
		fmt.Fprintf(b, "%s%s := signed(resize(shift_right(%s * %s, 32), 32));\n", ind, dst, uarg(in.A), uarg(in.B))
	case ir.Div:
		fmt.Fprintf(b, "%s%s := %s / %s;\n", ind, dst, arg(in.A), arg(in.B))
	case ir.DivU:
		fmt.Fprintf(b, "%s%s := signed(%s / %s);\n", ind, dst, uarg(in.A), uarg(in.B))
	case ir.Rem:
		fmt.Fprintf(b, "%s%s := %s rem %s;\n", ind, dst, arg(in.A), arg(in.B))
	case ir.RemU:
		fmt.Fprintf(b, "%s%s := signed(%s rem %s);\n", ind, dst, uarg(in.A), uarg(in.B))
	case ir.And:
		fmt.Fprintf(b, "%s%s := %s and %s;\n", ind, dst, arg(in.A), arg(in.B))
	case ir.Or:
		fmt.Fprintf(b, "%s%s := %s or %s;\n", ind, dst, arg(in.A), arg(in.B))
	case ir.Xor:
		fmt.Fprintf(b, "%s%s := %s xor %s;\n", ind, dst, arg(in.A), arg(in.B))
	case ir.Shl:
		fmt.Fprintf(b, "%s%s := shift_left(%s, to_integer(%s(4 downto 0)));\n", ind, dst, arg(in.A), uarg(in.B))
	case ir.ShrL:
		fmt.Fprintf(b, "%s%s := signed(shift_right(%s, to_integer(%s(4 downto 0))));\n", ind, dst, uarg(in.A), uarg(in.B))
	case ir.ShrA:
		fmt.Fprintf(b, "%s%s := shift_right(%s, to_integer(%s(4 downto 0)));\n", ind, dst, arg(in.A), uarg(in.B))
	case ir.SetLT:
		fmt.Fprintf(b, "%sif %s < %s then %s := to_signed(1, 32); else %s := to_signed(0, 32); end if;\n",
			ind, arg(in.A), arg(in.B), dst, dst)
	case ir.SetLTU:
		fmt.Fprintf(b, "%sif %s < %s then %s := to_signed(1, 32); else %s := to_signed(0, 32); end if;\n",
			ind, uarg(in.A), uarg(in.B), dst, dst)
	case ir.Move:
		fmt.Fprintf(b, "%s%s := %s;\n", ind, dst, arg(in.A))
	case ir.Load:
		fmt.Fprintf(b, "%smem1_addr <= std_logic_vector(%s + to_signed(%d, 32));\n", ind, arg(in.A), in.Off)
		fmt.Fprintf(b, "%smem1_size <= \"%s\";\n", ind, sizeBits(int(in.Width)))
		sx := "0"
		if in.Signed {
			sx = "1"
		}
		fmt.Fprintf(b, "%smem1_sx <= '%s';\n", ind, sx)
		fmt.Fprintf(b, "%s%s := signed(mem1_rdata);\n", ind, dst)
	case ir.Store:
		fmt.Fprintf(b, "%smem0_addr <= std_logic_vector(%s + to_signed(%d, 32));\n", ind, arg(in.B), in.Off)
		fmt.Fprintf(b, "%smem0_wdata <= std_logic_vector(%s);\n", ind, arg(in.A))
		fmt.Fprintf(b, "%smem0_size <= \"%s\";\n", ind, sizeBits(int(in.Width)))
		fmt.Fprintf(b, "%smem0_we <= '1';\n", ind)
	case ir.Branch:
		taken, ftarget := branchTargets(blk, in, inRegion)
		cond := vhdlCond(in, argA(), argB())
		fmt.Fprintf(b, "%sif %s then state <= %s; else state <= %s; end if;\n", ind, cond, taken, ftarget)
		return true, nil
	case ir.Jump:
		target := "st_done"
		for _, s := range blk.Succs {
			if s.Start == in.Target && inRegion[s.Index] {
				target = stateName(s.Index, 0)
			}
		}
		fmt.Fprintf(b, "%sstate <= %s;\n", ind, target)
		return true, nil
	case ir.IJump:
		// Resolved jump table: dispatch on the computed target address.
		var table []uint32
		if in.Table != nil {
			table = in.Table.Targets
		}
		emitted := false
		seen := map[uint32]bool{}
		for _, tgt := range table {
			if seen[tgt] {
				continue
			}
			seen[tgt] = true
			st := "st_done"
			for _, s := range blk.Succs {
				if s.Start == tgt && inRegion[s.Index] {
					st = stateName(s.Index, 0)
				}
			}
			kw := "if"
			if emitted {
				kw = "elsif"
			}
			fmt.Fprintf(b, "%s%s %s = to_signed(%d, 32) then state <= %s;\n",
				ind, kw, arg(in.A), int32(tgt), st)
			emitted = true
		}
		if emitted {
			fmt.Fprintf(b, "%selse state <= st_done; end if;\n", ind)
		} else {
			fmt.Fprintf(b, "%sstate <= st_done;\n", ind)
		}
		return true, nil
	case ir.Ret, ir.Halt:
		fmt.Fprintf(b, "%sstate <= st_done;\n", ind)
		return true, nil
	default:
		return false, fmt.Errorf("vhdl: cannot emit %v", in)
	}
	return false, nil
}

func vhdlCond(in *ir.Instr, a, b string) string {
	switch in.Cond {
	case ir.CondEQ:
		return fmt.Sprintf("%s = %s", a, b)
	case ir.CondNE:
		return fmt.Sprintf("%s /= %s", a, b)
	case ir.CondLT:
		return fmt.Sprintf("%s < %s", a, b)
	case ir.CondGE:
		return fmt.Sprintf("%s >= %s", a, b)
	case ir.CondLE:
		return fmt.Sprintf("%s <= %s", a, b)
	case ir.CondGT:
		return fmt.Sprintf("%s > %s", a, b)
	case ir.CondLTU:
		return fmt.Sprintf("unsigned(%s) < unsigned(%s)", a, b)
	case ir.CondGEU:
		return fmt.Sprintf("unsigned(%s) >= unsigned(%s)", a, b)
	}
	return "false"
}

// branchTargets resolves a conditional branch's taken and fallthrough
// states, exiting to st_done when control leaves the region.
func branchTargets(blk *ir.Block, in *ir.Instr, inRegion map[int]bool) (taken, fall string) {
	taken, fall = "st_done", "st_done"
	for _, s := range blk.Succs {
		if s.Start == in.Target {
			if inRegion[s.Index] {
				taken = stateName(s.Index, 0)
			}
		} else if inRegion[s.Index] {
			fall = stateName(s.Index, 0)
		}
	}
	return taken, fall
}

// fallthroughTarget finds the state after a block without a terminator.
func fallthroughTarget(blk *ir.Block, inRegion map[int]bool) string {
	for _, s := range blk.Succs {
		if inRegion[s.Index] {
			return stateName(s.Index, 0)
		}
	}
	return "st_done"
}

// sizeBits encodes an access width for the byte-enable-style size port.
func sizeBits(width int) string {
	switch width {
	case 1:
		return "00"
	case 2:
		return "01"
	default:
		return "10"
	}
}

func stateName(block, step int) string { return fmt.Sprintf("st_b%d_s%d", block, step) }

func locName(l ir.Loc) string { return "loc_" + locSuffix(l) }
func varName(l ir.Loc) string { return "v_" + locSuffix(l) }

func locSuffix(l ir.Loc) string {
	switch {
	case l == ir.LocHI:
		return "hi"
	case l == ir.LocLO:
		return "lo"
	case l < 32:
		return fmt.Sprintf("r%d", int(l))
	default:
		return fmt.Sprintf("v%d", int(l))
	}
}

// usedLocs collects every location the region touches, plus the ABI
// argument and result registers.
func usedLocs(d *synth.Design) []ir.Loc {
	set := map[ir.Loc]bool{ir.RegA0: true, ir.RegV0: true}
	for _, bs := range d.Schedule {
		for i := range bs.Block.Instrs {
			in := &bs.Block.Instrs[i]
			if in.HasDst() {
				set[in.Dst] = true
			}
			for _, u := range in.Uses() {
				if u != ir.RegZero {
					set[u] = true
				}
			}
		}
	}
	out := make([]ir.Loc, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sanitize(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b.WriteRune(r)
		default:
			b.WriteRune('_')
		}
	}
	out := b.String()
	if out == "" || out[0] >= '0' && out[0] <= '9' {
		out = "dsn_" + out
	}
	return out
}
