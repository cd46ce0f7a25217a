package vhdl

import (
	"cmp"
	"fmt"
)

// This file implements a simulator for the designs Emit generates: one
// clocked FSMD process with variables, signal assignments, if/elsif
// chains, a case over the state enum, and ieee.numeric_std arithmetic.
// It executes the tree the package's one VHDL reader (parse.go) builds,
// so the generated text itself — not the in-memory design — is parsed,
// checked and run without an external toolchain, and differential tests
// compare it against the IR interpreter. The reader resolves every name
// and keeps enumeration values apart from numbers, so evaluation cannot
// fail.

// SimConfig drives one simulation.
type SimConfig struct {
	// Arg0 is presented on the arg0 port while start is high.
	Arg0 int32
	// Mem holds the initial byte-addressed memory contents (the data
	// section of the program the region came from).
	Mem map[uint32]byte
	// MaxCycles bounds the run (default 10M).
	MaxCycles int
}

// SimResult is the outcome of a simulation.
type SimResult struct {
	// Result is the value on the result port when done rose.
	Result int32
	// Cycles is the number of clock cycles executed.
	Cycles int
	// Mem is the final memory state.
	Mem map[uint32]byte
}

// ---------------------------------------------------------------------
// Values.

type vkind int

const (
	vNum vkind = iota
	vBit
	vEnum
	vBool
)

type vval struct {
	kind vkind
	n    int64 // vNum (bit pattern, interpretation per uns) / vBit 0..1
	uns  bool
	s    string // vEnum literal
}

func num32(n int32) vval { return vval{kind: vNum, n: int64(n)} }

// ---------------------------------------------------------------------
// Interpreter.

type vmachine struct {
	signals map[string]vval // ports and signals
	pending map[string]vval
	vars    map[string]vval
	inputs  map[string]vval
	mem     map[uint32]byte
	// stores queues write requests raised this cycle. The scheduler may
	// issue up to two accesses per object per state (dual-ported block
	// RAM); the single top-level port is time-multiplexed within the
	// state, so each mem0_we <= '1' latches one request.
	stores []storeReq
}

type storeReq struct {
	addr uint32
	data uint32
	size int64
}

// combinational memory-port inputs are functions of this cycle's pending
// outputs.
func (m *vmachine) portRead(name string) (vval, bool) {
	switch name {
	case "mem1_rdata":
		addr := uint32(m.sig("mem1_addr").n)
		size := m.sig("mem1_size").n
		sx := m.sig("mem1_sx").n
		return num32(m.readMem(addr, size, sx == 1)), true
	case "mem0_rdata":
		return num32(0), true
	}
	return vval{}, false
}

// sig reads a signal preferring this cycle's pending write (used for the
// combinational memory ports only).
func (m *vmachine) sig(name string) vval {
	if v, ok := m.pending[name]; ok {
		return v
	}
	return m.signals[name]
}

// accessWidth decodes the size port: 0 byte, 1 halfword, else word.
func accessWidth(size int64) int {
	switch size {
	case 0:
		return 1
	case 1:
		return 2
	}
	return 4
}

func (m *vmachine) readMem(addr uint32, size int64, signed bool) int32 {
	width := accessWidth(size)
	var v uint32
	for i := 0; i < width; i++ {
		v |= uint32(m.mem[addr+uint32(i)]) << (8 * i)
	}
	if signed {
		switch width {
		case 1:
			return int32(int8(v))
		case 2:
			return int32(int16(v))
		}
	}
	return int32(v)
}

func (m *vmachine) writeMem(addr uint32, v uint32, size int64) {
	for i := 0; i < accessWidth(size); i++ {
		m.mem[addr+uint32(i)] = byte(v >> (8 * i))
	}
}

func (m *vmachine) eval(e vexpr) vval {
	switch e := e.(type) {
	case *vLit:
		return e.v
	case *vIdent:
		if v, ok := m.vars[e.name]; ok {
			return v
		}
		if v, ok := m.inputs[e.name]; ok {
			return v
		}
		if v, ok := m.portRead(e.name); ok {
			return v
		}
		return m.signals[e.name]
	case *vNeg:
		x := m.eval(e.x)
		x.n = int64(int32(-x.n))
		return x
	case *vSlice:
		x := m.eval(e.x)
		width := e.hi - e.lo + 1
		mask := int64(1)<<uint(width) - 1
		return vval{kind: vNum, n: (x.n >> uint(e.lo)) & mask, uns: true}
	case *vCall:
		argv := make([]vval, len(e.args))
		for i, a := range e.args {
			argv[i] = m.eval(a)
		}
		return e.f.call(argv)
	case *vBin:
		return evalBin(e.op, m.eval(e.l), m.eval(e.r))
	}
	panic(fmt.Sprintf("vhdl-sim: cannot evaluate %T", e))
}

// predef is one name from the ieee packages: a type, a function, or an
// array type that also converts.
type predef struct {
	scalar bool // a type declared without a constraint
	array  bool // a type declared with a (hi downto lo) constraint
	arity  int
	call   func(argv []vval) vval // nil: not callable
}

// predefined lists what the reader knows of std_logic_1164 and
// numeric_std: the types a declaration may name and the functions, type
// conversions included, an expression may call. The parser accepts a
// call only to a name listed here with a call, and the evaluator runs
// exactly that call.
var predefined = map[string]predef{
	"std_logic":        {scalar: true},
	"std_logic_vector": {array: true, arity: 1, call: first},
	// The machine only steps on rising edges.
	"rising_edge": {arity: 1, call: func([]vval) vval { return vval{kind: vBool, n: 1} }},
	"signed": {array: true, arity: 1, call: func(a []vval) vval {
		return vval{kind: vNum, n: int64(int32(a[0].n))}
	}},
	"unsigned": {array: true, arity: 1, call: func(a []vval) vval {
		return vval{kind: vNum, n: int64(uint32(a[0].n)), uns: true}
	}},
	"to_signed":  {arity: 2, call: func(a []vval) vval { return num32(int32(a[0].n)) }},
	"to_integer": {arity: 1, call: first},
	"resize": {arity: 2, call: func(a []vval) vval {
		v := a[0]
		if v.uns {
			v.n = int64(uint32(v.n))
		} else {
			v.n = int64(int32(v.n))
		}
		return v
	}},
	"shift_left": {arity: 2, call: func(a []vval) vval {
		v := a[0]
		v.n <<= uint(a[1].n) & 63
		return v
	}},
	"shift_right": {arity: 2, call: func(a []vval) vval {
		v, sh := a[0], uint(a[1].n)&63
		if v.uns {
			v.n = int64(uint64(v.n) >> sh)
		} else {
			v.n >>= sh
		}
		return v
	}},
}

func first(a []vval) vval { return a[0] }

func trunc32(v vval) vval {
	if v.kind != vNum {
		return v
	}
	if v.uns {
		v.n = int64(uint32(v.n))
	} else {
		v.n = int64(int32(v.n))
	}
	return v
}

func evalBin(op string, l, r vval) vval {
	uns := l.uns || r.uns
	b2v := func(b bool) vval { return vval{kind: vBool, n: boolN(b)} }

	// The reader lets enumeration values meet only in = and /=.
	if l.kind == vEnum {
		if op == "=" {
			return b2v(l.s == r.s)
		}
		return b2v(l.s != r.s)
	}
	switch op {
	case "+":
		return vval{kind: vNum, n: l.n + r.n, uns: uns}
	case "-":
		return vval{kind: vNum, n: l.n - r.n, uns: uns}
	case "*":
		// Keep the exact 64-bit product for mulh patterns; 32-bit users
		// immediately resize.
		if uns {
			return vval{kind: vNum, n: int64(uint64(uint32(l.n)) * uint64(uint32(r.n))), uns: true}
		}
		return vval{kind: vNum, n: int64(int32(l.n)) * int64(int32(r.n))}
	case "/":
		if uint32(r.n) == 0 && int32(r.n) == 0 {
			return vval{kind: vNum, n: 0, uns: uns}
		}
		if uns {
			return vval{kind: vNum, n: int64(uint32(l.n) / uint32(r.n)), uns: true}
		}
		if int32(l.n) == -1<<31 && int32(r.n) == -1 {
			return num32(-1 << 31)
		}
		return vval{kind: vNum, n: int64(int32(l.n) / int32(r.n))}
	case "rem":
		if uint32(r.n) == 0 && int32(r.n) == 0 {
			return vval{kind: vNum, n: 0, uns: uns}
		}
		if uns {
			return vval{kind: vNum, n: int64(uint32(l.n) % uint32(r.n)), uns: true}
		}
		if int32(l.n) == -1<<31 && int32(r.n) == -1 {
			return num32(0)
		}
		return vval{kind: vNum, n: int64(int32(l.n) % int32(r.n))}
	case "and":
		return vval{kind: l.kind, n: l.n & r.n, uns: uns}
	case "or":
		return vval{kind: l.kind, n: l.n | r.n, uns: uns}
	case "xor":
		return vval{kind: l.kind, n: l.n ^ r.n, uns: uns}
	case "=":
		return b2v(trunc32(l).n == trunc32(r).n)
	case "/=":
		return b2v(trunc32(l).n != trunc32(r).n)
	}
	var c int
	if uns {
		c = cmp.Compare(uint32(l.n), uint32(r.n))
	} else {
		c = cmp.Compare(int32(l.n), int32(r.n))
	}
	switch op {
	case "<":
		return b2v(c < 0)
	case "<=":
		return b2v(c <= 0)
	case ">":
		return b2v(c > 0)
	}
	return b2v(c >= 0)
}

func boolN(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (m *vmachine) exec(stmts []vstmt) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *vAssign:
			v := trunc32(m.eval(s.rhs))
			if s.signal {
				m.pending[s.dst] = v
				if s.dst == "mem0_we" && v.n == 1 {
					m.stores = append(m.stores, storeReq{
						addr: uint32(m.sig("mem0_addr").n),
						data: uint32(m.sig("mem0_wdata").n),
						size: m.sig("mem0_size").n,
					})
				}
			} else {
				m.vars[s.dst] = v
			}
		case *vIf:
			taken := false
			for i, c := range s.conds {
				if m.eval(c).n != 0 {
					m.exec(s.arms[i])
					taken = true
					break
				}
			}
			if !taken {
				m.exec(s.els)
			}
		case *vCase:
			m.exec(s.arms[m.eval(s.sel).s])
		}
	}
}

// step runs one rising clock edge.
func (m *vmachine) step(body []vstmt, rst, start bool, arg0 int32) {
	m.pending = map[string]vval{}
	m.inputs = map[string]vval{
		"clk":   {kind: vBit, n: 1},
		"rst":   {kind: vBit, n: boolN(rst)},
		"start": {kind: vBit, n: boolN(start)},
		"arg0":  num32(arg0),
		"arg1":  num32(0),
	}
	m.exec(body)
	// Commit queued stores in issue order, then signal updates.
	for _, st := range m.stores {
		m.writeMem(st.addr, st.data, st.size)
	}
	m.stores = m.stores[:0]
	for k, v := range m.pending {
		m.signals[k] = v
	}
}

// initial is the value an object of type typ starts with: the first
// literal of an enumeration, zero otherwise.
func (u *unit) initial(typ string) vval {
	if lits := u.enums[typ]; lits != nil {
		return vval{kind: vEnum, s: lits[0]}
	}
	return num32(0)
}

// SimulateDesign parses generated VHDL text and executes it: reset, start
// pulse, then clocking until done. The text must be one entity whose
// architecture is a single process clocked by clk, as Emit writes; a
// testbench is not.
func SimulateDesign(text string, cfg SimConfig) (*SimResult, error) {
	u, err := parse(text)
	if err != nil {
		return nil, err
	}
	if len(u.procs) != 1 || u.insts != 0 || u.procs[0].clock != "clk" {
		return nil, fmt.Errorf("vhdl-sim: %s is not one FSMD process clocked by clk", u.entity)
	}
	proc := u.procs[0]
	m := &vmachine{
		signals: map[string]vval{},
		vars:    map[string]vval{},
		mem:     map[uint32]byte{},
	}
	for name, s := range u.names {
		if s.kind == symIn || s.kind == symOut || s.kind == symSignal {
			m.signals[name] = u.initial(s.typ)
		}
	}
	for _, v := range proc.vars {
		m.vars[v.name] = u.initial(v.typ)
	}
	for a, b := range cfg.Mem {
		m.mem[a] = b
	}
	max := cfg.MaxCycles
	if max <= 0 {
		max = 10_000_000
	}

	res := &SimResult{}
	m.step(proc.body, true, false, cfg.Arg0)
	res.Cycles++
	for res.Cycles < max {
		m.step(proc.body, false, true, cfg.Arg0)
		res.Cycles++
		if m.signals["done"].n == 1 {
			res.Result = int32(m.signals["result"].n)
			res.Mem = m.mem
			return res, nil
		}
	}
	return nil, fmt.Errorf("vhdl-sim: no done after %d cycles", max)
}
