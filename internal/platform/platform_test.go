package platform

import (
	"fmt"
	"testing"

	"binpart/internal/fpga"
)

func sampleRegion() Region {
	return Region{
		Name:        "kernel",
		SWCycles:    9_000_000,
		HWCycles:    150_000,
		HWClockNs:   8,
		Invocations: 1,
		AreaGates:   20000,
	}
}

func TestEvaluateBasicShape(t *testing.T) {
	m := MIPS200.Evaluate(10_000_000, []Region{sampleRegion()})
	if m.AppSpeedup <= 1 {
		t.Errorf("app speedup %.2f, want > 1", m.AppSpeedup)
	}
	if m.KernelSpeedup <= m.AppSpeedup {
		t.Errorf("kernel speedup (%.1f) should exceed app speedup (%.1f) by Amdahl",
			m.KernelSpeedup, m.AppSpeedup)
	}
	if m.EnergySavings <= 0 || m.EnergySavings >= 1 {
		t.Errorf("energy savings %.2f outside (0,1)", m.EnergySavings)
	}
	if m.HWSWTimeS >= m.SWTimeS {
		t.Error("partitioned time not below software time")
	}
}

func TestSlowerCPUGainsMore(t *testing.T) {
	// The same hardware helps a slow CPU more: speedup(40) > speedup(200)
	// > speedup(400), and energy savings order matches (the paper's
	// platform sweep shape).
	r := sampleRegion()
	// Cycle counts are CPU-frequency independent in this model.
	m40 := MIPS(40, MIPS200.Device).Evaluate(10_000_000, []Region{r})
	m200 := MIPS200.Evaluate(10_000_000, []Region{r})
	m400 := MIPS(400, MIPS200.Device).Evaluate(10_000_000, []Region{r})
	if !(m40.AppSpeedup > m200.AppSpeedup && m200.AppSpeedup > m400.AppSpeedup) {
		t.Errorf("speedups not decreasing with CPU clock: %.2f, %.2f, %.2f",
			m40.AppSpeedup, m200.AppSpeedup, m400.AppSpeedup)
	}
	if !(m40.EnergySavings > m200.EnergySavings && m200.EnergySavings > m400.EnergySavings) {
		t.Errorf("savings not decreasing with CPU clock: %.2f, %.2f, %.2f",
			m40.EnergySavings, m200.EnergySavings, m400.EnergySavings)
	}
}

func TestNoRegionsMeansNoChange(t *testing.T) {
	m := MIPS200.Evaluate(5_000_000, nil)
	if m.AppSpeedup != 1 {
		t.Errorf("speedup with empty partition = %v, want 1", m.AppSpeedup)
	}
	if m.HWSWTimeS != m.SWTimeS {
		t.Error("time changed with empty partition")
	}
	// FPGA static power still makes the "partitioned" system cost a bit
	// more energy, so savings must be <= 0.
	if m.EnergySavings > 0 {
		t.Errorf("positive savings (%v) with no hardware regions", m.EnergySavings)
	}
}

func TestCommunicationOverheadHurts(t *testing.T) {
	few := sampleRegion()
	few.Invocations = 1
	many := sampleRegion()
	many.Invocations = 100_000
	mFew := MIPS200.Evaluate(10_000_000, []Region{few})
	mMany := MIPS200.Evaluate(10_000_000, []Region{many})
	if mMany.AppSpeedup >= mFew.AppSpeedup {
		t.Errorf("invocation overhead did not reduce speedup: %.2f vs %.2f",
			mMany.AppSpeedup, mFew.AppSpeedup)
	}
}

func TestCPUPowerScalesWithClock(t *testing.T) {
	if MIPS(400, MIPS200.Device).cpuActiveW() <= MIPS200.cpuActiveW() || MIPS200.cpuActiveW() <= MIPS(40, MIPS200.Device).cpuActiveW() {
		t.Error("CPU power not increasing with clock")
	}
}

func TestMIPSConstructor(t *testing.T) {
	dev, err := fpga.ByName("XC2V500")
	if err != nil {
		t.Fatal(err)
	}
	p := MIPS(100, dev)
	if p.CPUMHz != 100 || p.Device.Name != "XC2V500" {
		t.Errorf("MIPS() = %+v", p)
	}
}

// TestNameMatchesFmt pins the appended platform name to the format it
// replaces, over every catalog device and clocks that round both ways.
func TestNameMatchesFmt(t *testing.T) {
	for _, dev := range fpga.Catalog {
		for _, mhz := range []float64{1, 40, 99.5, 100.5, 200, 400, 10_000} {
			p := MIPS(mhz, dev)
			want := fmt.Sprintf("MIPS-%.0f/%s", mhz, dev.Name)
			if got := p.Name(); got != want {
				t.Errorf("Name() = %q, want %q", got, want)
			}
			if got := string(p.AppendName([]byte("x"))); got != "x"+want {
				t.Errorf("AppendName = %q, want %q", got, "x"+want)
			}
		}
	}
}

func TestHWSeconds(t *testing.T) {
	r := Region{HWCycles: 1000, HWClockNs: 10}
	if got := r.HWSeconds(); got != 1e-5 {
		t.Errorf("HWSeconds = %v, want 1e-5", got)
	}
}

// TestEvaluateSumsTimes pins Evaluate to Times: one region's
// kernel speedup and partitioned time are exactly its priced software
// and hardware seconds, communication included.
func TestEvaluateSumsTimes(t *testing.T) {
	r := sampleRegion()
	r.Invocations = 1000
	sw, hw := MIPS200.Times(r)
	if wantSW, wantHW := 9e6/200e6, 150_000*8e-9+1000*60/200e6; sw != wantSW || hw != wantHW {
		t.Errorf("Times = %v, %v; want %v, %v", sw, hw, wantSW, wantHW)
	}
	m := MIPS200.Evaluate(10_000_000, []Region{r})
	if m.KernelSpeedup != sw/hw || m.HWSWTimeS != m.SWTimeS-sw+hw {
		t.Errorf("Evaluate kernel speedup %v, time %v; Times gives %v, %v", m.KernelSpeedup, m.HWSWTimeS, sw/hw, m.SWTimeS-sw+hw)
	}
}
