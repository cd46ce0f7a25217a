package ir

import "fmt"

// EvalState is the machine state for the IR interpreter. The interpreter
// exists to validate transformations: a decompiler pass is semantics-
// preserving iff evaluation before and after yields the same state.
type EvalState struct {
	Regs     map[Loc]int32
	Mem      map[uint32]byte
	MaxSteps int
	Steps    int
}

// NewEvalState returns an empty state with a generous step budget.
func NewEvalState() *EvalState {
	return &EvalState{
		Regs:     make(map[Loc]int32),
		Mem:      make(map[uint32]byte),
		MaxSteps: 10_000_000,
	}
}

// WriteWord stores a little-endian word in interpreter memory.
func (st *EvalState) WriteWord(addr uint32, v int32) {
	for i := uint32(0); i < 4; i++ {
		st.Mem[addr+i] = byte(uint32(v) >> (8 * i))
	}
}

// ReadWord loads a little-endian word from interpreter memory.
func (st *EvalState) ReadWord(addr uint32) int32 {
	var v uint32
	for i := uint32(0); i < 4; i++ {
		v |= uint32(st.Mem[addr+i]) << (8 * i)
	}
	return int32(v)
}

func (st *EvalState) arg(a Arg) int32 {
	if a.IsConst {
		return a.Val
	}
	if a.Loc == RegZero {
		return 0
	}
	return st.Regs[a.Loc]
}

// Eval interprets the function until Ret or Halt. Calls are unsupported
// (kernels selected for hardware never contain them in this system) and
// raise an error, as do indirect jumps.
func Eval(f *Func, st *EvalState) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("ir: empty function")
	}
	b := f.Blocks[0]
	for {
		next := (*Block)(nil)
		jumped := false
		for i := range b.Instrs {
			in := &b.Instrs[i]
			st.Steps++
			if st.Steps > st.MaxSteps {
				return fmt.Errorf("ir: step limit exceeded in %s", f.Name)
			}
			switch {
			case in.Op == Nop:
			case in.Op.IsBinary():
				v, ok := evalBinaryIR(in.Op, st.arg(in.A), st.arg(in.B))
				if !ok {
					v = 0 // division by zero: defined as 0 for evaluation
				}
				if in.Dst != RegZero {
					st.Regs[in.Dst] = v
				}
			case in.Op == Move:
				if in.Dst != RegZero {
					st.Regs[in.Dst] = st.arg(in.A)
				}
			case in.Op == Load:
				addr := uint32(st.arg(in.A)) + uint32(in.Off)
				var v uint32
				for k := 0; k < int(in.Width); k++ {
					v |= uint32(st.Mem[addr+uint32(k)]) << (8 * k)
				}
				res := int32(v)
				if in.Signed {
					switch in.Width {
					case 1:
						res = int32(int8(v))
					case 2:
						res = int32(int16(v))
					}
				}
				if in.Dst != RegZero {
					st.Regs[in.Dst] = res
				}
			case in.Op == Store:
				addr := uint32(st.arg(in.B)) + uint32(in.Off)
				v := uint32(st.arg(in.A))
				for k := 0; k < int(in.Width); k++ {
					st.Mem[addr+uint32(k)] = byte(v >> (8 * k))
				}
			case in.Op == Branch:
				if in.Cond.Eval(st.arg(in.A), st.arg(in.B)) {
					t := f.BlockAt(in.Target)
					if t == nil {
						return fmt.Errorf("ir: branch target 0x%x has no block", in.Target)
					}
					next, jumped = t, true
				}
			case in.Op == Jump:
				t := f.BlockAt(in.Target)
				if t == nil {
					return fmt.Errorf("ir: jump target 0x%x has no block", in.Target)
				}
				next, jumped = t, true
			case in.Op == Ret || in.Op == Halt:
				return nil
			case in.Op == Call:
				return fmt.Errorf("ir: cannot evaluate call at 0x%x", in.Addr)
			case in.Op == IJump:
				if in.Table == nil {
					return fmt.Errorf("ir: cannot evaluate unresolved indirect jump at 0x%x", in.Addr)
				}
				t := f.BlockAt(uint32(st.arg(in.A)))
				if t == nil {
					return fmt.Errorf("ir: indirect jump to 0x%x has no block", uint32(st.arg(in.A)))
				}
				next, jumped = t, true
			default:
				return fmt.Errorf("ir: cannot evaluate %v", in)
			}
			if jumped {
				break
			}
		}
		if !jumped {
			if b.Index+1 >= len(f.Blocks) {
				return fmt.Errorf("ir: fell off the end of %s", f.Name)
			}
			next = f.Blocks[b.Index+1]
		}
		b = next
	}
}

// evalBinaryIR is the interpreter's table of binary operators. It is
// written independently of dopt's constant folder (dopt imports ir, so
// the folder could call this one): dopt's TestEvalMatchesConstantFolder
// checks the two against each other, which a shared table could not.
func evalBinaryIR(op Op, a, b int32) (int32, bool) {
	ua, ub := uint32(a), uint32(b)
	switch op {
	case Add:
		return a + b, true
	case Sub:
		return a - b, true
	case Mul:
		return a * b, true
	case MulH:
		return int32(uint64(int64(a)*int64(b)) >> 32), true
	case MulHU:
		return int32(uint64(ua) * uint64(ub) >> 32), true
	case Div:
		if b == 0 {
			return 0, false
		}
		if a == -1<<31 && b == -1 {
			return a, true
		}
		return a / b, true
	case DivU:
		if b == 0 {
			return 0, false
		}
		return int32(ua / ub), true
	case Rem:
		if b == 0 {
			return 0, false
		}
		if a == -1<<31 && b == -1 {
			return 0, true
		}
		return a % b, true
	case RemU:
		if b == 0 {
			return 0, false
		}
		return int32(ua % ub), true
	case And:
		return a & b, true
	case Or:
		return a | b, true
	case Xor:
		return a ^ b, true
	case Shl:
		return a << (ub & 31), true
	case ShrL:
		return int32(ua >> (ub & 31)), true
	case ShrA:
		return a >> (ub & 31), true
	case SetLT:
		if a < b {
			return 1, true
		}
		return 0, true
	case SetLTU:
		if ua < ub {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}
