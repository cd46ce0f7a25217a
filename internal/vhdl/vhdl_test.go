package vhdl

import (
	"strings"
	"testing"

	"binpart/internal/decompile"
	"binpart/internal/dopt"
	"binpart/internal/ir"
	"binpart/internal/mcc"
	"binpart/internal/synth"
)

func design(t testing.TB, src string) *synth.Design {
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
	loops := ir.FindLoops(f)
	if len(loops) == 0 {
		t.Fatal("no loops")
	}
	d, err := synth.Synthesize(synth.LoopRegion(f, loops[0]), img, synth.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

const accSrc = `
	int a[32];
	int kernel(int n) {
		int s = 0;
		int i;
		for (i = 0; i < 32; i++) { s += a[i] * n; }
		return s;
	}
	int main() { return kernel(3); }
`

func TestEmitPassesCheck(t *testing.T) {
	d := design(t, accSrc)
	text, err := Emit(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(text); err != nil {
		t.Fatalf("generated VHDL fails to parse: %v\n%s", err, text)
	}
	for _, want := range []string{"entity", "architecture rtl", "process", "case state is", "end rtl;"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestEmitVariousKernels(t *testing.T) {
	kernels := map[string]string{
		"branchy": `
			int a[16];
			int kernel(int n) {
				int s = 0;
				int i;
				for (i = 0; i < 16; i++) {
					if (a[i] > n) { s += a[i]; } else { s -= 1; }
				}
				return s;
			}
			int main() { return kernel(2); }
		`,
		"byte": `
			uchar p[64];
			int kernel(int n) {
				int i;
				for (i = 0; i < 64; i++) { p[i] = (uchar)(p[i] ^ 85); }
				return (int)p[0];
			}
			int main() { return kernel(0); }
		`,
		"divmod": `
			int a[8];
			int kernel(int n) {
				int s = 0;
				int i;
				for (i = 0; i < 8; i++) { s += a[i] / 3 + a[i] % 5; }
				return s;
			}
			int main() { return kernel(0); }
		`,
	}
	for name, src := range kernels {
		t.Run(name, func(t *testing.T) {
			text, err := Emit(design(t, src))
			if err != nil {
				t.Fatal(err)
			}
			if err := Check(text); err != nil {
				t.Errorf("%v\n%s", err, text)
			}
		})
	}
}

func TestSanitizedEntityNames(t *testing.T) {
	d := design(t, accSrc)
	d.Name = "kernel_loop_0x400018"
	text, err := Emit(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(text); err != nil {
		t.Errorf("sanitized name fails check: %v", err)
	}
}

func TestEmitTestbench(t *testing.T) {
	d := design(t, accSrc)
	tb, err := EmitTestbench(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(tb); err != nil {
		t.Fatalf("testbench fails to parse: %v\n%s", err, tb)
	}
	for _, want := range []string{"entity work.", "port map", "wait until done = '1';", "end sim;"} {
		if !strings.Contains(tb, want) {
			t.Errorf("testbench missing %q", want)
		}
	}
}
