package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"binpart/internal/fpga"
	"binpart/internal/platform"
)

// TestRequestOptions tables each request field's accepted and rejected
// values: an accepted request must apply exactly its fields to the base
// options, and a rejected one must name the offending field first.
func TestRequestOptions(t *testing.T) {
	f := func(v float64) *float64 { return &v }
	n := func(v int) *int { return &v }
	no := false
	base := DefaultOptions()
	xc2v40, _ := fpga.ByName("XC2V40")
	for _, tc := range []struct {
		name string
		req  Request
		want func(*Options) // nil for a rejected request
		bad  string         // the rejected field
	}{
		{"empty", Request{}, func(*Options) {}, ""},
		{"mhz", Request{MHz: f(400)}, func(o *Options) { o.Platform = platform.MIPS(400, base.Platform.Device) }, ""},
		{"mhz 1", Request{MHz: f(1)}, func(o *Options) { o.Platform = platform.MIPS(1, base.Platform.Device) }, ""},
		{"mhz 10000", Request{MHz: f(10000)}, func(o *Options) { o.Platform = platform.MIPS(10000, base.Platform.Device) }, ""},
		{"mhz 0", Request{MHz: f(0)}, nil, "mhz"},
		{"mhz -200", Request{MHz: f(-200)}, nil, "mhz"},
		{"mhz NaN", Request{MHz: f(math.NaN())}, nil, "mhz"},
		{"mhz 1e-300", Request{MHz: f(1e-300)}, nil, "mhz"},
		{"mhz 20000", Request{MHz: f(20000)}, nil, "mhz"},
		{"device", Request{Device: "XC2V40"}, func(o *Options) { o.Platform = platform.MIPS(base.Platform.CPUMHz, xc2v40) }, ""},
		{"device and mhz", Request{MHz: f(40), Device: "XC2V40"}, func(o *Options) { o.Platform = platform.MIPS(40, xc2v40) }, ""},
		{"unknown device", Request{Device: "nope"}, nil, "device"},
		{"alg", Request{Alg: "gclp"}, func(o *Options) { o.Algorithm = AlgGCLP }, ""},
		{"unknown alg", Request{Alg: "nope"}, nil, "alg"},
		{"budget", Request{AreaBudgetGates: n(20000)}, func(o *Options) { o.AreaBudgetGates = 20000 }, ""},
		{"budget 0", Request{AreaBudgetGates: n(0)}, func(*Options) {}, ""},
		{"negative budget", Request{AreaBudgetGates: n(-1)}, nil, "area_budget_gates"},
		{"budget on a sweep", Request{AreaBudgetGates: n(20000), Sweep: "clocks"}, nil, "area_budget_gates"},
		{"whole", Request{Whole: true}, func(o *Options) { o.Granularity = GranFunctions }, ""},
		{"jumptables", Request{JumpTables: &no}, func(o *Options) { o.RecoverJumpTables = false }, ""},
		{"devices sweep", Request{Sweep: "devices"}, func(*Options) {}, ""},
		{"clocks sweep", Request{Sweep: "clocks", Clocks: []float64{33, 250}}, func(*Options) {}, ""},
		{"unknown sweep mode", Request{Sweep: "nope"}, nil, "sweep"},
		{"bad clock entry", Request{Sweep: "clocks", Clocks: []float64{200, 0}}, nil, "clocks"},
		{"bad clock on a devices sweep", Request{Sweep: "devices", Clocks: []float64{math.Inf(-1)}}, nil, "clocks"},
	} {
		got, err := tc.req.Options(base)
		if tc.want == nil {
			if err == nil || !strings.HasPrefix(err.Error(), tc.bad+": ") {
				t.Errorf("%s: error %v, want one starting %q", tc.name, err, tc.bad+": ")
			}
			continue
		}
		want := base
		tc.want(&want)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: options\n%+v\nwant\n%+v", tc.name, got, want)
		}
	}
}
