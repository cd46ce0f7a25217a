package mips

import (
	"fmt"
	"strconv"
	"strings"
)

// Assemble translates MIPS assembly text into instructions. It is a small
// two-pass assembler intended for tests and hand-written fixtures; the
// MicroC compiler emits Inst values directly and does not go through text.
//
// Supported syntax, one instruction per line:
//
//	label:
//	addu $t0, $t1, $t2
//	addiu $sp, $sp, -8
//	lw $t0, 4($sp)
//	beq $t0, $zero, done
//	j loop
//	nop / break
//	# comment or ; comment
//
// base is the byte address of the first instruction; it is used to resolve
// J/JAL label targets to absolute addresses. The returned map gives the
// byte address of every label.
func Assemble(src string, base uint32) ([]Inst, map[string]uint32, error) {
	type line struct {
		n    int // 1-based source line for diagnostics
		text string
	}
	var lines []line
	labels := make(map[string]uint32)

	// Pass 1: strip comments, record labels, collect instruction lines.
	pc := base
	for n, raw := range strings.Split(src, "\n") {
		s := raw
		if i := strings.IndexAny(s, "#;"); i >= 0 {
			s = s[:i]
		}
		s = strings.TrimSpace(s)
		for {
			colon := strings.Index(s, ":")
			if colon < 0 {
				break
			}
			name := strings.TrimSpace(s[:colon])
			if name == "" || strings.ContainsAny(name, " \t,()") {
				return nil, nil, fmt.Errorf("mips: line %d: bad label %q", n+1, name)
			}
			if _, dup := labels[name]; dup {
				return nil, nil, fmt.Errorf("mips: line %d: duplicate label %q", n+1, name)
			}
			labels[name] = pc
			s = strings.TrimSpace(s[colon+1:])
		}
		if s == "" {
			continue
		}
		lines = append(lines, line{n + 1, s})
		pc += 4
	}

	// Pass 2: parse instructions with label resolution.
	insts := make([]Inst, 0, len(lines))
	pc = base
	for _, ln := range lines {
		inst, err := parseInst(ln.text, pc, labels)
		if err != nil {
			return nil, nil, fmt.Errorf("mips: line %d: %w", ln.n, err)
		}
		insts = append(insts, inst)
		pc += 4
	}
	return insts, labels, nil
}

// AssembleWords assembles src and encodes the result to machine words.
func AssembleWords(src string, base uint32) ([]uint32, error) {
	insts, _, err := Assemble(src, base)
	if err != nil {
		return nil, err
	}
	words := make([]uint32, len(insts))
	for i, inst := range insts {
		w, err := Encode(inst)
		if err != nil {
			return nil, err
		}
		words[i] = w
	}
	return words, nil
}

// pseudo gives each pseudo-instruction the real instruction it stands for
// and the operands it takes; the operand it leaves out is $zero.
var pseudo = map[string]struct {
	op     Op
	layout string
}{
	"move": {ADDU, "ds"},
	"li":   {ADDIU, "ti"},
}

func parseInst(s string, pc uint32, labels map[string]uint32) (Inst, error) {
	fields := strings.Fields(s)
	mn := strings.ToLower(fields[0])
	rest := strings.TrimSpace(s[len(fields[0]):])
	var args []string
	if rest != "" {
		args = strings.Split(rest, ",")
		for i := range args {
			args[i] = strings.TrimSpace(args[i])
		}
	}

	in := Inst{Op: numOps}
	var layout string
	for o := Op(0); o < numOps; o++ {
		if ops[o].name == mn {
			in.Op, layout = o, ops[o].layout
			break
		}
	}
	if p, ok := pseudo[mn]; ok {
		in.Op, layout = p.op, p.layout
	}
	if in.Op == numOps {
		return Inst{}, fmt.Errorf("unknown mnemonic %q", mn)
	}
	if in.Op == JALR && len(args) == 1 {
		args = append([]string{"$ra"}, args...) // jalr rs links through $ra
	}
	if len(args) != len(layout) {
		return Inst{}, fmt.Errorf("%s needs %d operands, got %d", mn, len(layout), len(args))
	}
	for k, arg := range args {
		if err := parseOperand(&in, layout[k], arg, pc, labels); err != nil {
			return Inst{}, err
		}
	}
	if mn == "li" && (in.Imm < -32768 || in.Imm > 32767) {
		return Inst{}, fmt.Errorf("li immediate %d out of 16-bit range (use lui/ori)", in.Imm)
	}
	return in, nil
}

// parseOperand parses arg as the operand the layout letter c names and
// stores it in in.
func parseOperand(in *Inst, c byte, arg string, pc uint32, labels map[string]uint32) (err error) {
	switch c {
	case 'd':
		in.Rd, err = parseReg(arg)
	case 's':
		in.Rs, err = parseReg(arg)
	case 't':
		in.Rt, err = parseReg(arg)
	case 'a', 'i', 'u':
		in.Imm, err = parseImm(arg)
	case 'm':
		in.Imm, in.Rs, err = parseMem(arg)
	case 'b':
		in.Imm, err = branchOffset(arg, pc, labels)
	case 'j':
		addr, ok := labels[arg]
		if !ok {
			v, err := parseImm(arg)
			if err != nil {
				return fmt.Errorf("unknown jump target %q", arg)
			}
			addr = uint32(v)
		}
		in.Target = addr
	}
	return err
}

func branchOffset(arg string, pc uint32, labels map[string]uint32) (int32, error) {
	if addr, ok := labels[arg]; ok {
		return (int32(addr) - int32(pc+4)) / 4, nil
	}
	return parseImm(arg)
}

func parseReg(s string) (Reg, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "$") {
		return 0, fmt.Errorf("bad register %q", s)
	}
	name := s[1:]
	if n, err := strconv.Atoi(name); err == nil {
		if n < 0 || n > 31 {
			return 0, fmt.Errorf("register number %d out of range", n)
		}
		return Reg(n), nil
	}
	for i, rn := range regNames {
		if rn == name {
			return Reg(i), nil
		}
	}
	// Accept $s8 as an alias for $fp, as some toolchains print it.
	if name == "s8" {
		return FP, nil
	}
	return 0, fmt.Errorf("unknown register %q", s)
}

func parseImm(s string) (int32, error) {
	v, err := strconv.ParseInt(strings.TrimSpace(s), 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", s)
	}
	if v < -(1<<31) || v > (1<<32)-1 {
		return 0, fmt.Errorf("immediate %d out of 32-bit range", v)
	}
	return int32(v), nil
}

func parseMem(s string) (int32, Reg, error) {
	s = strings.TrimSpace(s)
	open := strings.Index(s, "(")
	if open < 0 || !strings.HasSuffix(s, ")") {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	var off int32
	if open > 0 {
		v, err := parseImm(s[:open])
		if err != nil {
			return 0, 0, err
		}
		off = v
	}
	r, err := parseReg(s[open+1 : len(s)-1])
	return off, r, err
}
