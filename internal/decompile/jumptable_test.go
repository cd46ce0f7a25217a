package decompile

import (
	"testing"

	"binpart/internal/bench"
	"binpart/internal/dopt"
	"binpart/internal/ir"
	"binpart/internal/mcc"
	"binpart/internal/sim"
)

const dispatchSrc = `
	int weights[8] = {3, 1, 4, 1, 5, 9, 2, 6};
	int kernel(int n) {
		int s = 0;
		int i;
		for (i = 0; i < 64; i++) {
			int v;
			switch (i & 7) {
			case 0: v = weights[0] + i; break;
			case 1: v = weights[1] - i; break;
			case 2: v = weights[2] ^ i; break;
			case 3: v = weights[3] << 1; break;
			case 4: v = weights[4] >> 1; break;
			case 5: v = weights[5] * 3; break;
			case 6: v = weights[6] | i; break;
			default: v = weights[7] & i; break;
			}
			s += v;
		}
		return s & 0xffff;
	}
	int main() { return kernel(0); }
`

func TestJumpTableRecoveryOffByDefault(t *testing.T) {
	img, err := mcc.Compile(dispatchSrc, mcc.Options{OptLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Decompile(img)
	if err != nil {
		t.Fatal(err)
	}
	if _, failed := res.Failed["kernel"]; !failed {
		t.Fatal("kernel recovered without the jump-table option; the paper's failure mode is gone")
	}
}

func TestJumpTableRecovery(t *testing.T) {
	for lvl := 0; lvl <= 3; lvl++ {
		img, err := mcc.Compile(dispatchSrc, mcc.Options{OptLevel: lvl})
		if err != nil {
			t.Fatal(err)
		}
		res, err := DecompileWith(img, Options{RecoverJumpTables: true})
		if err != nil {
			t.Fatal(err)
		}
		if ferr, failed := res.Failed["kernel"]; failed {
			t.Fatalf("O%d: recovery failed despite option: %v", lvl, ferr)
		}
		f := res.Func("kernel")

		// The indirect jump must be resolved with 8 entries.
		found := false
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				in := &b.Instrs[i]
				if in.Op == ir.IJump {
					if in.Table == nil {
						t.Fatalf("O%d: IJump left unresolved", lvl)
					}
					// The table spans the explicit cases 0..6; the default
					// arm goes through the bound check instead.
					if len(in.Table.Targets) != 7 {
						t.Errorf("O%d: table has %d entries, want 7", lvl, len(in.Table.Targets))
					}
					found = true
					// The switch head must have edges to every distinct
					// target.
					if len(b.Succs) < 2 {
						t.Errorf("O%d: switch head has %d successors", lvl, len(b.Succs))
					}
				}
			}
		}
		if !found {
			t.Fatalf("O%d: no IJump in recovered kernel", lvl)
		}

		// Differential: the recovered, optimized CDFG must compute what
		// the binary computes.
		simRes, err := sim.Execute(img, sim.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		dopt.Optimize(f)
		st := ir.NewEvalState()
		st.Regs[ir.RegSP] = 0x7fff0000
		for i, bv := range img.Data {
			st.Mem[img.DataBase+uint32(i)] = bv
		}
		if err := ir.Eval(f, st); err != nil {
			t.Fatalf("O%d: eval: %v\n%s", lvl, err, f)
		}
		if st.Regs[ir.RegV0] != simRes.ExitCode {
			t.Errorf("O%d: recovered kernel = %d, binary = %d", lvl, st.Regs[ir.RegV0], simRes.ExitCode)
		}
	}
}

func TestJumpTableRecoveryOnEEMBCBenchmarks(t *testing.T) {
	// The two benchmarks the paper loses become recoverable.
	for _, name := range []string{"routelookup", "ttsprk"} {
		b, _ := bench.ByName(name)
		img, err := b.Compile(1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := DecompileWith(img, Options{RecoverJumpTables: true})
		if err != nil {
			t.Fatal(err)
		}
		if ferr, failed := res.Failed[b.KernelFunc]; failed {
			t.Errorf("%s: still failing with extension: %v", name, ferr)
		}
	}
}

func TestJumpTableRejectsBogusPatterns(t *testing.T) {
	// A jr through a register that is NOT fed by a table load must still
	// fail even with the option on (e.g. a computed goto).
	img, err := mcc.Compile(dispatchSrc, mcc.Options{OptLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the table so an entry points outside the function: the
	// resolver must reject it. Find the kernel's jump table in data (its
	// entries point into text) and break one.
	corrupted := false
	for off := 0; off+4 <= len(img.Data); off += 4 {
		w := uint32(img.Data[off]) | uint32(img.Data[off+1])<<8 |
			uint32(img.Data[off+2])<<16 | uint32(img.Data[off+3])<<24
		if img.InText(w) {
			img.Data[off] = 0xFF
			img.Data[off+1] = 0xFF
			img.Data[off+2] = 0xFF
			img.Data[off+3] = 0x7F
			corrupted = true
			break
		}
	}
	if !corrupted {
		t.Fatal("no table entry found to corrupt")
	}
	res, err := DecompileWith(img, Options{RecoverJumpTables: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, failed := res.Failed["kernel"]; !failed {
		t.Error("corrupted jump table accepted")
	}
}
