package vhdl

import (
	"strings"
	"testing"

	"binpart/internal/binimg"
	"binpart/internal/decompile"
	"binpart/internal/dopt"
	"binpart/internal/ir"
	"binpart/internal/mcc"
	"binpart/internal/mips"
	"binpart/internal/synth"
)

// kernelDesign synthesizes a whole call-free kernel function compiled at
// -O2.
func kernelDesign(t *testing.T, src string) (*binimg.Image, *ir.Func, *synth.Design) {
	t.Helper()
	img, err := mcc.Compile(src, mcc.Options{OptLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := decompile.Decompile(img)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Func("kernel")
	if f == nil {
		t.Fatal("kernel not recovered")
	}
	dopt.Optimize(f)
	d, err := synth.Synthesize(synth.FuncRegion(f), img, synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return img, f, d
}

// rtlVsIR synthesizes a whole call-free kernel function, emits VHDL,
// executes the TEXT under the VHDL-subset simulator, and compares result
// and final memory against the IR interpreter running the same region.
func rtlVsIR(t *testing.T, src string, arg int32) {
	t.Helper()
	img, f, d := kernelDesign(t, src)

	// Oracle: IR interpreter.
	st := ir.NewEvalState()
	st.Regs[ir.RegSP] = 0x7fff0000
	st.Regs[ir.RegA0] = arg
	for i, bv := range img.Data {
		st.Mem[img.DataBase+uint32(i)] = bv
	}
	if err := ir.Eval(f, st); err != nil {
		t.Fatal(err)
	}

	// Subject: emitted VHDL text under the RTL simulator.
	text, err := Emit(d)
	if err != nil {
		t.Fatal(err)
	}
	mem := map[uint32]byte{}
	for i, bv := range img.Data {
		mem[img.DataBase+uint32(i)] = bv
	}
	sim, err := SimulateDesign(text, SimConfig{Arg0: arg, Mem: mem})
	if err != nil {
		t.Fatalf("simulate: %v\n%s", err, text)
	}

	if sim.Result != st.Regs[ir.RegV0] {
		t.Errorf("RTL result = %d, IR = %d\n%s", sim.Result, st.Regs[ir.RegV0], text)
	}
	for i := range img.Data {
		a := img.DataBase + uint32(i)
		if sim.Mem[a] != st.Mem[a] {
			t.Errorf("RTL mem[0x%x] = %d, IR = %d", a, sim.Mem[a], st.Mem[a])
			return
		}
	}
	if sim.Cycles < 2 {
		t.Errorf("implausible cycle count %d", sim.Cycles)
	}
}

// rtlKernels are the call-free kernels whose emitted VHDL is executed
// against the IR interpreter and mutated to probe the reader.
var rtlKernels = map[string]struct {
	src string
	arg int32
}{
	"accumulate": {`
			int a[16] = {5, -3, 9, 1, 0, 2, 2, -7, 11, 4, 6, -1, 8, 3, 3, 100};
			int kernel(int n) {
				int s = 0;
				int i;
				for (i = 0; i < 16; i++) { s += a[i] * n; }
				return s;
			}
			int main() { return kernel(3); }
		`, 3},
	"branchy": {`
			int a[12] = {3, -6, 9, -12, 15, -18, 21, -24, 27, -30, 33, -36};
			int kernel(int n) {
				int pos = 0;
				int neg = 0;
				int i;
				for (i = 0; i < 12; i++) {
					if (a[i] > 0) { pos += a[i]; } else { neg -= a[i]; }
				}
				return pos * 1000 + neg + n;
			}
			int main() { return kernel(7); }
		`, 7},
	"stores-bytes": {`
			uchar buf[24];
			int kernel(int seed) {
				int i;
				int s = seed;
				for (i = 0; i < 24; i++) {
					s = s * 1103 + 12345;
					buf[i] = (uchar)(s >> 8);
				}
				int chk = 0;
				for (i = 0; i < 24; i++) { chk += (int)buf[i]; }
				return chk;
			}
			int main() { return kernel(99); }
		`, 99},
	"shifty-unsigned": {`
			uint w[8] = {0xdeadbeef, 1, 0x80000000, 7, 0xffffffff, 12345, 0, 42};
			int kernel(int n) {
				uint acc = (uint)n;
				int i;
				for (i = 0; i < 8; i++) {
					acc = (acc >> 3) ^ (w[i] << (i & 7)) ^ (acc / 3);
				}
				return (int)(acc & 0xffff);
			}
			int main() { return kernel(5); }
		`, 5},
	"divmod": {`
			int a[10] = {100, -37, 250, 81, -9, 64, 999, -1000, 3, 17};
			int kernel(int n) {
				int q = 0;
				int r = 0;
				int i;
				for (i = 0; i < 10; i++) {
					q += a[i] / 7;
					r += a[i] % 5;
				}
				return q * 100 + r + n;
			}
			int main() { return kernel(1); }
		`, 1},
	"mulwide": {`
			int kernel(int n) {
				int big = n * 75321;
				int more = big * big;
				return (more >> 16) + big;
			}
			int main() { return kernel(1234); }
		`, 1234},
	"halfwords": {`
			short h[12] = {-300, 500, -700, 900, -1100, 1300, -1500, 1700, -1900, 2100, -2300, 2500};
			int kernel(int n) {
				int s = 0;
				int i;
				for (i = 0; i < 12; i++) {
					h[i] = (short)(h[i] + n);
					s += h[i];
				}
				return s;
			}
			int main() { return kernel(11); }
		`, 11},
}

// TestRTLMatchesIR is the end-of-flow differential: the generated VHDL
// *text*, executed, computes exactly what the decompiled region computes.
func TestRTLMatchesIR(t *testing.T) {
	for name, k := range rtlKernels {
		k := k
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rtlVsIR(t, k.src, k.arg)
		})
	}
}

// TestRTLJumpTableDispatch exercises the resolved-switch FSM dispatch in
// executed RTL.
func TestRTLJumpTableDispatch(t *testing.T) {
	src := `
		int w[8] = {10, 20, 30, 40, 50, 60, 70, 80};
		int kernel(int n) {
			int s = 0;
			int i;
			for (i = 0; i < 16; i++) {
				int v;
				switch (i & 7) {
				case 0: v = w[0] + i; break;
				case 1: v = w[1] - i; break;
				case 2: v = w[2] ^ i; break;
				case 3: v = w[3] << 1; break;
				case 4: v = w[4] >> 1; break;
				case 5: v = w[5] * 3; break;
				default: v = w[6] | i; break;
				}
				s += v;
			}
			return s + n;
		}
		int main() { return kernel(2); }
	`
	img, err := mcc.Compile(src, mcc.Options{OptLevel: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := decompile.DecompileWith(img, decompile.Options{RecoverJumpTables: true})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Func("kernel")
	if f == nil {
		t.Fatal("kernel not recovered")
	}
	dopt.Optimize(f)

	st := ir.NewEvalState()
	st.Regs[ir.RegSP] = 0x7fff0000
	st.Regs[ir.RegA0] = 2
	for i, bv := range img.Data {
		st.Mem[img.DataBase+uint32(i)] = bv
	}
	if err := ir.Eval(f, st); err != nil {
		t.Fatal(err)
	}

	d, err := synth.Synthesize(synth.FuncRegion(f), img, synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	text, err := Emit(d)
	if err != nil {
		t.Fatal(err)
	}
	mem := map[uint32]byte{}
	for i, bv := range img.Data {
		mem[img.DataBase+uint32(i)] = bv
	}
	sim, err := SimulateDesign(text, SimConfig{Arg0: 2, Mem: mem})
	if err != nil {
		t.Fatalf("simulate: %v\n%s", err, text)
	}
	if sim.Result != st.Regs[ir.RegV0] {
		t.Errorf("RTL switch kernel = %d, IR = %d\n%s", sim.Result, st.Regs[ir.RegV0], text)
	}
}

func TestSimulateDesignErrors(t *testing.T) {
	if _, err := SimulateDesign("library ieee;", SimConfig{}); err == nil {
		t.Error("no-process text accepted")
	}
	// A design that never reaches done must hit the cycle bound.
	d := design(t, accSrc)
	text, err := Emit(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SimulateDesign(text, SimConfig{MaxCycles: 3}); err == nil {
		t.Error("tiny cycle bound not enforced")
	}
	// A testbench parses but is not one clocked FSMD process.
	tb, err := EmitTestbench(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SimulateDesign(tb, SimConfig{}); err == nil || !strings.Contains(err.Error(), "not one FSMD process") {
		t.Errorf("testbench simulated: %v", err)
	}
}

// TestRTLHighAndUnsignedOps executes the emitted VHDL of a hand-assembled
// kernel for the operations no suite design contains: the high words of
// signed and unsigned products, an unsigned remainder, and a blez branch,
// each taken both ways.
func TestRTLHighAndUnsignedOps(t *testing.T) {
	words, err := mips.AssembleWords(`
	kernel:
		lui   $t0, 0x1234
		ori   $t0, $t0, 0x5678
		mult  $t0, $a0
		mfhi  $t1
		multu $t0, $a0
		mfhi  $t2
		addiu $t3, $zero, 7
		divu  $a0, $t3
		mfhi  $t4
		xor   $v0, $t1, $t2
		addu  $v0, $v0, $t4
		blez  $a0, done
		addiu $v0, $v0, 1
	done:
		jr    $ra
	`, binimg.DefaultTextBase)
	if err != nil {
		t.Fatal(err)
	}
	img := &binimg.Image{
		Entry: binimg.DefaultTextBase, TextBase: binimg.DefaultTextBase, Text: words,
		DataBase: binimg.DefaultDataBase,
		Symbols:  []binimg.Symbol{{Name: "kernel", Addr: binimg.DefaultTextBase, Size: uint32(4 * len(words))}},
	}
	res, err := decompile.Decompile(img)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Func("kernel")
	dopt.Optimize(f)
	d, err := synth.Synthesize(synth.FuncRegion(f), img, synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	text, err := Emit(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, arg := range []int32{-12345, 0, 98765} {
		st := ir.NewEvalState()
		st.Regs[ir.RegSP] = 0x7fff0000
		st.Regs[ir.RegA0] = arg
		if err := ir.Eval(f, st); err != nil {
			t.Fatal(err)
		}
		sim, err := SimulateDesign(text, SimConfig{Arg0: arg, Mem: map[uint32]byte{}})
		if err != nil {
			t.Fatalf("simulate: %v\n%s", err, text)
		}
		c := int64(0x12345678)
		want := int32(c*int64(arg)>>32) ^ int32(uint64(c)*uint64(uint32(arg))>>32) + int32(uint32(arg)%7)
		if arg > 0 {
			want++
		}
		if sim.Result != want || st.Regs[ir.RegV0] != want {
			t.Errorf("arg %d: RTL result = %d, IR = %d, want %d\n%s\n%s", arg, sim.Result, st.Regs[ir.RegV0], want, f, text)
		}
	}
}
