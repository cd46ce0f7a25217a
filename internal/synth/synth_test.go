package synth

import (
	"testing"

	"binpart/internal/alias"
	"binpart/internal/binimg"
	"binpart/internal/decompile"
	"binpart/internal/dopt"
	"binpart/internal/fpga"
	"binpart/internal/ir"
	"binpart/internal/mcc"
)

const firSrc = `
	int x[64];
	int h[8];
	int y[64];
	int kernel(int n) {
		int i;
		int j;
		for (i = 0; i < 56; i++) {
			int acc = 0;
			for (j = 0; j < 8; j++) { acc += x[i + j] * h[j]; }
			y[i] = acc >> 4;
		}
		return y[0];
	}
	int main() { return kernel(0); }
`

func kernelFunc(t *testing.T, src string, lvl int) (*ir.Func, *binimg.Image) {
	t.Helper()
	img, err := mcc.Compile(src, mcc.Options{OptLevel: lvl})
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
	return f, img
}

func TestSynthesizeLoopBasics(t *testing.T) {
	f, img := kernelFunc(t, firSrc, 2)
	loops := ir.FindLoops(f)
	if len(loops) == 0 {
		t.Fatal("no loops recovered")
	}
	// Pick the innermost loop (greatest depth).
	inner := loops[0]
	for _, l := range loops {
		if l.Depth > inner.Depth {
			inner = l
		}
	}
	d, err := Synthesize(LoopRegion(f, inner), img, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if d.ClockNs < 2 || d.ClockNs > 20 {
		t.Errorf("clock %.2f ns outside plausible Virtex-II range", d.ClockNs)
	}
	if d.Area.Slices <= 0 {
		t.Errorf("area = %+v, want positive slices", d.Area)
	}
	if d.GateEquivalent() <= 0 {
		t.Error("no gate-equivalent area")
	}
	if len(d.Schedule) == 0 {
		t.Error("no block schedules")
	}
	for _, s := range d.Schedule {
		if s.States <= 0 {
			t.Errorf("block %d has %d states", s.Block.Index, s.States)
		}
	}
	if maxII(d) == 0 {
		t.Errorf("inner loop not pipelined: %+v", d)
	}
	for _, s := range d.Schedule {
		if s.II > 0 && s.States < s.II {
			t.Errorf("bad pipeline: block %d II %d depth %d", s.Block.Index, s.II, s.States)
		}
	}
	if len(d.MemObjects) == 0 {
		t.Error("no arrays moved to block RAM")
	}
}

func TestPipeliningReducesCycles(t *testing.T) {
	f, img := kernelFunc(t, firSrc, 2)
	loops := ir.FindLoops(f)
	inner := loops[0]
	for _, l := range loops {
		if l.Depth > inner.Depth {
			inner = l
		}
	}
	region := LoopRegion(f, inner)

	on := DefaultOptions()
	off := DefaultOptions()
	off.Pipeline = false
	dOn, err := Synthesize(region, img, on)
	if err != nil {
		t.Fatal(err)
	}
	dOff, err := Synthesize(region, img, off)
	if err != nil {
		t.Fatal(err)
	}

	// Synthetic profile: body runs 1000 times.
	execs := make([]uint64, len(dOn.Schedule))
	for i := range execs {
		execs[i] = 1000
	}
	cOn, cOff := dOn.Cycles(execs), dOff.Cycles(execs)
	if cOn >= cOff {
		t.Errorf("pipelined cycles %.0f not below sequential %.0f", cOn, cOff)
	}
}

func TestWidthReductionShrinksArea(t *testing.T) {
	src := `
		uchar a[64];
		uchar b[64];
		int kernel(int n) {
			int i;
			for (i = 0; i < 64; i++) { b[i] = (uchar)((a[i] & 15) + 3); }
			return (int)b[0];
		}
		int main() { return kernel(0); }
	`
	// With width annotations (full dopt pipeline).
	f1, img1 := kernelFunc(t, src, 1)
	loops := ir.FindLoops(f1)
	d1, err := Synthesize(LoopRegion(f1, loops[0]), img1, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Without width annotations: strip them.
	f2, img2 := kernelFunc(t, src, 1)
	for _, b := range f2.Blocks {
		for i := range b.Instrs {
			b.Instrs[i].WidthBits = 0
		}
	}
	loops2 := ir.FindLoops(f2)
	d2, err := Synthesize(LoopRegion(f2, loops2[0]), img2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if d1.Area.Slices >= d2.Area.Slices {
		t.Errorf("width-reduced area (%d slices) not below full-width (%d)", d1.Area.Slices, d2.Area.Slices)
	}
}

func TestSynthesizeWholeFunction(t *testing.T) {
	f, img := kernelFunc(t, `
		int tab[16];
		int kernel(int n) {
			int s = 0;
			int i;
			for (i = 0; i < 16; i++) {
				if (tab[i] > 0) { s += tab[i]; } else { s -= 1; }
			}
			return s;
		}
		int main() { return kernel(0); }
	`, 1)
	d, err := Synthesize(FuncRegion(f), img, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Schedule) != len(f.Blocks) {
		t.Errorf("scheduled %d blocks, function has %d", len(d.Schedule), len(f.Blocks))
	}
}

func TestSynthesizeRejectsCalls(t *testing.T) {
	f, img := kernelFunc(t, `
		int leaf(int x) { return x + 1; }
		int kernel(int n) {
			int s = 0;
			int i;
			for (i = 0; i < 4; i++) { s += leaf(i); }
			return s;
		}
		int main() { return kernel(0); }
	`, 1)
	if _, err := Synthesize(FuncRegion(f), img, DefaultOptions()); err == nil {
		t.Error("synthesizing a region with calls succeeded, want error")
	}
}

func TestMemoryPortConstraintLengthensSchedule(t *testing.T) {
	// One array hit four times per iteration: its private block RAM's
	// ports set the initiation interval.
	f, img := kernelFunc(t, `
		int a[64];
		int d2[32];
		int kernel(int n) {
			int i;
			for (i = 0; i < 16; i++) {
				d2[i] = a[i] + a[i + 16] + a[i + 32] + a[i + 48];
			}
			return d2[0];
		}
		int main() { return kernel(0); }
	`, 2)
	region := LoopRegion(f, ir.FindLoops(f)[0])
	one, four := resourceBudget, resourceBudget
	one.MemPorts, four.MemPorts = 1, 4
	iiOne := pipelinedII(t, region, img, one, targetClockNs)
	iiFour := pipelinedII(t, region, img, four, targetClockNs)
	if iiOne <= iiFour {
		t.Errorf("II with 1 port (%d) not above II with 4 ports (%d)", iiOne, iiFour)
	}
	// The helper schedules as Synthesize does under the fixed budget.
	d, err := Synthesize(region, img, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pipelinedII(t, region, img, resourceBudget, targetClockNs), maxII(d); got != want {
		t.Errorf("II under the fixed budget %d, Synthesize's %d", got, want)
	}
}

// pipelinedII schedules every block of r under res and clockNs as
// Synthesize does under the fixed budget, pipelines its loops, and
// returns the largest initiation interval.
func pipelinedII(t *testing.T, r Region, img *binimg.Image, res Resources, clockNs float64) int {
	blocks := r.Blocks
	am := alias.Analyze(r.Func, img)
	bd := newDFGBuilder(blocks)
	defer bd.release()
	sched := make([]BlockSchedule, len(blocks))
	scheds := make([]*scheduleResult, len(blocks))
	for i, b := range blocks {
		scheds[i] = mustSchedule(t, bd.build(b, am), res, clockNs)
		sched[i] = BlockSchedule{Block: b, States: scheds[i].states}
	}
	pipelineLoops(r, sched, scheds, bd, res)
	return maxII(&Design{Schedule: sched})
}

func maxII(d *Design) int {
	m := 0
	for _, s := range d.Schedule {
		m = max(m, s.II)
	}
	return m
}

func TestRecurrenceLimitsII(t *testing.T) {
	// A tight loop-carried dependence (crc feedback) must keep II >= the
	// feedback chain length even with abundant resources.
	f, img := kernelFunc(t, `
		uint table[16] = {1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16};
		uint kernel(uint seedv) {
			uint crc = seedv;
			int i;
			for (i = 0; i < 64; i++) {
				crc = (crc << 4) ^ table[(crc >> 28) & 15];
			}
			return crc;
		}
		int main() { return (int)kernel(7); }
	`, 2)
	region := LoopRegion(f, ir.FindLoops(f)[0])
	// At the fixed 8 ns budget the whole feedback chains into a single
	// state and II = 1 is legal. A tight 3 ns clock splits the chain
	// (shift -> table load -> xor) over several states, and the
	// loop-carried recurrence must then hold II above 1 even with
	// abundant resources.
	abundant := Resources{MemPorts: 16, Multipliers: 16, Dividers: 4}
	if ii := pipelinedII(t, region, img, abundant, 3.0); ii < 2 {
		t.Errorf("recurrence-bound II = %d, want >= 2", ii)
	}
	// And the fixed clock still yields a valid design.
	d, err := Synthesize(region, img, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if ii := maxII(d); ii < 1 {
		t.Errorf("II = %d", ii)
	}
}

func TestDesignCostMonotonicInWidth(t *testing.T) {
	for _, cls := range []fpga.OpClass{fpga.ClassAdd, fpga.ClassMult, fpga.ClassDiv, fpga.ClassLogic} {
		c8 := fpga.CostOf(cls, 8)
		c32 := fpga.CostOf(cls, 32)
		if c32.Area.Slices < c8.Area.Slices || c32.Area.Mult18 < c8.Area.Mult18 {
			t.Errorf("%v: 32-bit cheaper than 8-bit", cls)
		}
		if c32.DelayNs < c8.DelayNs {
			t.Errorf("%v: 32-bit faster than 8-bit", cls)
		}
	}
}
