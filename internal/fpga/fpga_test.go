package fpga

import (
	"testing"
	"testing/quick"
)

func TestCatalogOrderedAndComplete(t *testing.T) {
	if len(Catalog) != 11 {
		t.Fatalf("catalog has %d devices, want 11 (XC2V40..XC2V8000)", len(Catalog))
	}
	for i := 1; i < len(Catalog); i++ {
		prev, cur := Catalog[i-1], Catalog[i]
		if cur.Slices <= prev.Slices {
			t.Errorf("%s slices (%d) not above %s (%d)", cur.Name, cur.Slices, prev.Name, prev.Slices)
		}
		if cur.Mult18 < prev.Mult18 || cur.BRAM < prev.BRAM {
			t.Errorf("%s resources shrink vs %s", cur.Name, prev.Name)
		}
	}
}

func TestByName(t *testing.T) {
	d, err := ByName("XC2V1000")
	if err != nil || d.Slices != 5120 {
		t.Errorf("ByName(XC2V1000) = %+v, %v", d, err)
	}
	if _, err := ByName("XC9999"); err == nil {
		t.Error("unknown device accepted")
	}
}

func TestAreaArithmetic(t *testing.T) {
	a := Area{Slices: 10, Mult18: 1, BRAM: 2}
	b := Area{Slices: 5, Mult18: 2, BRAM: 0}
	sum := a.Add(b)
	if sum != (Area{Slices: 15, Mult18: 3, BRAM: 2}) {
		t.Errorf("Add = %+v", sum)
	}
}

func TestGateEquivalent(t *testing.T) {
	a := Area{Slices: 100, Mult18: 2, BRAM: 7}
	want := 100*GatesPerSlice + 2*GatesPerMult18
	if got := a.GateEquivalent(); got != want {
		t.Errorf("GateEquivalent = %d, want %d (BRAM must not count)", got, want)
	}
}

func TestCostMonotonicity(t *testing.T) {
	classes := []OpClass{ClassAdd, ClassLogic, ClassShiftV, ClassCompare, ClassMult, ClassDiv, ClassReg, ClassMux}
	f := func(w8 uint8) bool {
		w := int(w8%31) + 1
		for _, cls := range classes {
			lo, hi := CostOf(cls, w), CostOf(cls, w+1)
			if hi.Area.Slices < lo.Area.Slices || hi.Area.Mult18 < lo.Area.Mult18 {
				return false
			}
			if hi.DelayNs < lo.DelayNs {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCostSanity(t *testing.T) {
	// A constant shift is free; a barrel shifter is not.
	if CostOf(ClassShiftC, 32).Area.Slices != 0 {
		t.Error("constant shift consumes slices")
	}
	if CostOf(ClassShiftV, 32).Area.Slices == 0 {
		t.Error("barrel shifter is free")
	}
	// A 32-bit multiply uses dedicated blocks, not slices.
	m := CostOf(ClassMult, 32)
	if m.Area.Mult18 != 4 {
		t.Errorf("32-bit multiply uses %d MULT18s, want 4 (2x2)", m.Area.Mult18)
	}
	// An 18-bit multiply fits one block.
	if CostOf(ClassMult, 18).Area.Mult18 != 1 {
		t.Error("18-bit multiply should fit one MULT18")
	}
	// Dividers are painfully large and slow (synthesis should avoid).
	d := CostOf(ClassDiv, 32)
	if d.Area.Slices < 100 || d.DelayNs < 20 {
		t.Errorf("divider suspiciously cheap: %+v", d)
	}
	// Out-of-range widths clamp to 32.
	if CostOf(ClassAdd, 0) != CostOf(ClassAdd, 32) || CostOf(ClassAdd, 99) != CostOf(ClassAdd, 32) {
		t.Error("width clamping broken")
	}
}

func TestBRAMsFor(t *testing.T) {
	cases := map[int]int{
		0:    0,
		-5:   0,
		1:    1,
		2304: 1, // exactly 18 Kbit
		2305: 2,
		4608: 2,
	}
	for bytes, want := range cases {
		if got := BRAMsFor(bytes); got != want {
			t.Errorf("BRAMsFor(%d) = %d, want %d", bytes, got, want)
		}
	}
}

func TestClockHelpers(t *testing.T) {
	if p := ClockFromCriticalPath(6.8); p <= 6.8 {
		t.Errorf("clock period %v must include register overhead", p)
	}
	if mhz := MHz(10); mhz != 100 {
		t.Errorf("MHz(10ns) = %v, want 100", mhz)
	}
	if MHz(0) != 0 {
		t.Error("MHz(0) should be 0")
	}
}
