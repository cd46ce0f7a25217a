package core

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"binpart/internal/alias"
	"binpart/internal/bench"
	"binpart/internal/binimg"
	"binpart/internal/decompile"
	"binpart/internal/fpga"
	"binpart/internal/ir"
	"binpart/internal/partition"
	"binpart/internal/platform"
	"binpart/internal/sim"
	"binpart/internal/synth"
)

// runMonolithic is the pre-split RunWith flow, preserved as a reference
// implementation: every stage runs inline in one pass, candidates are
// priced for the platform the moment they are built (not at evaluate
// time), and the report's regions are assembled directly. The split
// Analyze+Evaluate path must be indistinguishable from it on every
// observable output.
func runMonolithic(img *binimg.Image, opts Options) (*Report, error) {
	if opts.Platform.CPUMHz == 0 {
		opts.Platform = platform.MIPS200
	}
	if opts.AreaBudgetGates == 0 {
		opts.AreaBudgetGates = fpga.Area{
			Slices: opts.Platform.Device.Slices,
			Mult18: opts.Platform.Device.Mult18,
		}.GateEquivalent()
	}
	opts.Sim.Profile = true
	rep := &Report{Analysis: &Analysis{}, Options: opts}

	// 1. Profile the all-software execution.
	res, err := sim.Execute(img, opts.Sim)
	if err != nil {
		return nil, fmt.Errorf("core: software simulation: %w", err)
	}
	rep.ExitCode = res.ExitCode
	rep.SWCycles = res.Cycles
	cycAt := sim.AttributeCycles(img, res.Profile, nil)

	// 2+3. Decompile and run the decompiler optimization pipeline.
	lr, err := computeLift(img, decompile.Options{RecoverJumpTables: opts.RecoverJumpTables}, opts.Dopt, true)
	if err != nil {
		return nil, err
	}
	rep.Recovery = lr.Recovery
	rep.Recovery.FailReasons = copyStringMap(lr.Recovery.FailReasons)
	rep.outlines = copyStringMap(lr.Outlines)

	// 4. Build candidates, priced immediately for the platform; found[i]
	// is cands[i]'s region.
	var cands []partition.Candidate
	var found []*RegionReport
	addCand := func(rc *RegionCandidate) {
		rr := &RegionReport{RegionCandidate: rc}
		found = append(found, rr)
		cands = append(cands, partition.Candidate{
			SWTimeNs:   float64(rr.SWCycles) / opts.Platform.CPUMHz * 1000,
			HWTimeNs:   rr.HWCycles*rr.HWClockNs + float64(rr.Invocations*platform.CommCPUCycles)/opts.Platform.CPUMHz*1000,
			AreaGates:  rr.AreaGates,
			Footprint:  rr.Footprint,
			SizeInstrs: rc.SizeInstrs,
		})
	}
	// Every candidate gets facts of its own, computed from scratch: the
	// function's loops and alias information and the summed taken
	// edges. Nothing is shared between candidates or taken from the
	// lift result's loops.
	facts := func(fi int) (*funcFacts, *profileFacts) {
		f, ws := lr.Dec.Funcs[fi], new(analysisScratch)
		fx := &funcFacts{f: f, img: img, extents: ws.blockExtents(f, img), factors: lr.Factors[fi],
			loops: ir.FindLoops(f), am: alias.Analyze(f, img)}
		return fx, &profileFacts{prof: res.Profile, cycAt: cycAt, takenFrom: ws.takenEdges(res.Profile)}
	}
	for fi, f := range lr.Dec.Funcs {
		if opts.Granularity == GranFunctions {
			fx, pf := facts(fi)
			rc, err := buildCandidate(fx, synth.FuncRegion(f), pf.funcInvocations(f), pf, opts, nil)
			if err == nil && rc != nil {
				addCand(rc)
			}
			continue
		}
		for _, l := range ir.FindLoops(f) {
			if l.Depth != 1 {
				continue
			}
			fx, pf := facts(fi)
			rc, err := buildCandidate(fx, synth.LoopRegion(f, l), pf.loopInvocations(l), pf, opts, nil)
			if err != nil || rc == nil {
				continue
			}
			addCand(rc)
		}
	}
	rep.Regions = append(rep.Regions, found...)
	sort.Slice(rep.Regions, func(i, j int) bool { return rep.Regions[i].SWCycles > rep.Regions[j].SWCycles })

	// 5. Partition.
	start := time.Now()
	var pres *partition.Result
	switch opts.Algorithm {
	case AlgGreedy:
		pres = partition.GreedyKnapsack(cands, opts.AreaBudgetGates)
	case AlgGCLP:
		pres = partition.GCLP(cands, opts.AreaBudgetGates)
	default:
		pres = partition.Partition(cands, opts.AreaBudgetGates, opts.Granularity == GranLoops)
	}
	rep.PartitionTime = time.Since(start)

	// 6. Evaluate on the platform.
	var regions []platform.Region
	for _, i := range pres.Selected {
		rr := found[i]
		rr.Selected = true
		rr.Step = pres.Step[i]
		regions = append(regions, platform.Region{
			Name:        rr.Name,
			SWCycles:    rr.SWCycles,
			HWCycles:    rr.HWCycles,
			HWClockNs:   rr.HWClockNs,
			Invocations: rr.Invocations,
			AreaGates:   rr.AreaGates,
		})
	}
	rep.Metrics = opts.Platform.Evaluate(res.Cycles, regions)
	return rep, nil
}

// fullFingerprint renders every observable field of a Report except the
// measured PartitionTime: options, metrics, recovery, every region with
// its footprint, the per-function optimization logs, and the recovered
// structure outlines.
func fullFingerprint(rep *Report) string {
	s := fmt.Sprintf("opts=%+v\n", rep.Options)
	s += runFingerprint(rep)
	for _, r := range rep.Regions {
		s += fmt.Sprintf("footprint %s func=%s fp=%v\n", r.Name, r.Func, r.Footprint)
	}
	outlines := rep.Outlines()
	names := make([]string, 0, len(outlines))
	for name := range outlines {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s += fmt.Sprintf("outline %s:\n%s", name, outlines[name])
	}
	return s
}

// TestEvaluateMatchesMonolithic is the differential guarantee behind the
// analyze-once/evaluate-many split: across every benchmark, every
// optimization level, loop candidates and (at -O1) whole-function ones,
// and a sweep of area budgets, clock rates, and all three partitioners,
// Analyze+Evaluate must produce Reports identical to the pre-split
// single-pass flow on every field except the wall-clock PartitionTime.
// One Analysis per (benchmark, level, granularity) serves all sweep
// points, exactly as the rewritten experiment sweeps use it. The
// smallest device's point must leave some profitable region out for
// lack of area, so the shared pricing is checked where the budget binds.
func TestEvaluateMatchesMonolithic(t *testing.T) {
	type point struct {
		name   string
		mhz    float64
		device fpga.Device
		budget int
		alg    Algorithm
	}
	dev := platform.MIPS200.Device
	small := fpga.Catalog[0]
	points := []point{
		// Area sweep: full device, a mid budget, a tight budget, and the
		// smallest device's full capacity.
		{name: "area-full", mhz: 200, device: dev, budget: 0, alg: AlgNinetyTen},
		{name: "area-mid", mhz: 200, device: dev, budget: 20000, alg: AlgNinetyTen},
		{name: "area-tight", mhz: 200, device: dev, budget: 6000, alg: AlgNinetyTen},
		{name: "area-" + small.Name, mhz: 200, device: small, budget: 0, alg: AlgNinetyTen},
		// Clock sweep.
		{name: "clock-40", mhz: 40, device: dev, budget: 0, alg: AlgNinetyTen},
		{name: "clock-400", mhz: 400, device: dev, budget: 0, alg: AlgNinetyTen},
		// All three partitioners.
		{name: "alg-90-10", mhz: 200, device: dev, budget: 0, alg: AlgNinetyTen},
		{name: "alg-greedy", mhz: 200, device: dev, budget: 0, alg: AlgGreedy},
		{name: "alg-gclp", mhz: 200, device: dev, budget: 0, alg: AlgGCLP},
	}
	smallGates := fpga.Area{Slices: small.Slices, Mult18: small.Mult18}.GateEquivalent()

	bound := map[Granularity]int{}
	for _, gran := range []Granularity{GranLoops, GranFunctions} {
		for _, b := range bench.All() {
			for lvl := 0; lvl <= 3; lvl++ {
				if gran == GranFunctions && lvl != 1 {
					continue // whole functions at -O1 only: they double the test's time
				}
				img, err := b.Compile(lvl)
				if err != nil {
					t.Fatalf("%s -O%d: compile: %v", b.Name, lvl, err)
				}
				aopts := DefaultOptions()
				aopts.Granularity = gran
				a, err := Analyze(img, aopts)
				if err != nil {
					t.Fatalf("%s -O%d gran %d: analyze: %v", b.Name, lvl, gran, err)
				}
				for _, pt := range points {
					opts := aopts
					opts.Platform = platform.MIPS(pt.mhz, pt.device)
					opts.AreaBudgetGates = pt.budget
					opts.Algorithm = pt.alg

					want, err := runMonolithic(img, opts)
					if err != nil {
						t.Fatalf("%s -O%d gran %d %s: monolithic: %v", b.Name, lvl, gran, pt.name, err)
					}
					got := Evaluate(a, opts.Platform, opts.AreaBudgetGates, opts.Algorithm)
					if gf, wf := fullFingerprint(got), fullFingerprint(want); gf != wf {
						t.Fatalf("%s -O%d gran %d %s: split flow differs from monolithic:\n--- monolithic ---\n%s--- split ---\n%s",
							b.Name, lvl, gran, pt.name, wf, gf)
					}
					if pt.device != small {
						continue
					}
					for _, r := range got.Regions {
						sw, hw := opts.Platform.Times(r.Region)
						if !r.Selected && sw > hw && r.AreaGates > smallGates-got.Metrics.AreaGates {
							bound[gran]++
							break
						}
					}
				}
			}
		}
	}
	for _, gran := range []Granularity{GranLoops, GranFunctions} {
		if bound[gran] == 0 {
			t.Errorf("granularity %d: no %s evaluation left a profitable region out for area", gran, small.Name)
		}
	}
}

// TestRunWithMatchesMonolithic checks the composed RunWith entry point
// (cached and uncached) against the monolithic reference on the default
// configuration, so the thin composition itself — default handling
// included — is covered, not just the Evaluate layer.
func TestRunWithMatchesMonolithic(t *testing.T) {
	caches := NewCaches()
	for _, name := range []string{"crc", "fir", "matmul"} {
		b, ok := bench.ByName(name)
		if !ok {
			t.Fatalf("no benchmark %q", name)
		}
		img, err := b.Compile(1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := runMonolithic(img, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 2; run++ { // second run is fully warm
			got, err := RunWith(img, DefaultOptions(), caches)
			if err != nil {
				t.Fatal(err)
			}
			if gf, wf := fullFingerprint(got), fullFingerprint(want); gf != wf {
				t.Fatalf("%s run %d: RunWith differs from monolithic:\n--- monolithic ---\n%s--- RunWith ---\n%s",
					name, run, wf, gf)
			}
		}
	}
}

// TestConcurrentEvaluateSharesMaps runs concurrent Evaluate calls on one
// Analysis (a benchmark with failed functions, so every shared map is
// populated) while each goroutine reads the maps its reports share with
// the Analysis and renders them. The goroutines start together on an
// analysis nothing has rendered yet, so its outlines are lifted and
// rendered under their concurrent first reads. Under -race this is the
// proof that the shared maps are only read and rendered once; it also
// checks they are the Analysis' own maps, and that every report matches
// a serial evaluation of the same point on a separate analysis.
func TestConcurrentEvaluateSharesMaps(t *testing.T) {
	b, _ := bench.ByName("routelookup")
	img, err := b.Compile(1)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.RecoverJumpTables = false
	ref, err := Analyze(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Analyze(img, opts)
	if err != nil {
		t.Fatal(err)
	}
	same := func(x, y any) bool { return reflect.ValueOf(x).UnsafePointer() == reflect.ValueOf(y).UnsafePointer() }
	type point struct {
		dev fpga.Device
		alg Algorithm
	}
	var points []point
	want := map[point]string{}
	for _, dev := range fpga.Catalog {
		for _, alg := range []Algorithm{AlgNinetyTen, AlgGreedy, AlgGCLP} {
			pt := point{dev, alg}
			points = append(points, pt)
			want[pt] = stripPartitionTime(RenderReport(Evaluate(ref, platform.MIPS(200, dev), 0, alg), true))
		}
	}

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	start := make(chan struct{})
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < 4*len(points); i++ {
				pt := points[(g+i)%len(points)]
				rep := Evaluate(a, platform.MIPS(200, pt.dev), 0, pt.alg)
				if got := stripPartitionTime(RenderReport(rep, true)); got != want[pt] {
					errs <- fmt.Sprintf("%s %s: concurrent report differs from serial:\n%s\n--- serial ---\n%s", pt.dev.Name, pt.alg, got, want[pt])
					return
				}
				if !same(rep.Recovery.FailReasons, a.Recovery.FailReasons) || !same(rep.Outlines(), a.Outlines()) {
					errs <- "report maps are copies, not the Analysis' shared maps"
					return
				}
				n := 0
				for name, reason := range rep.Recovery.FailReasons {
					n += len(name) + len(reason) + len(rep.Outlines()[name])
				}
				for _, outline := range rep.Outlines() {
					n += len(outline)
				}
				if n == 0 {
					errs <- "shared maps read empty"
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if len(a.Recovery.FailReasons) == 0 || len(a.Outlines()) == 0 {
		t.Fatalf("analysis maps not all populated: %d fail reasons, %d outlines",
			len(a.Recovery.FailReasons), len(a.Outlines()))
	}
}

// TestConcurrentAnalyzeSharesProfile runs concurrent analyses of one
// image through one cache set whose Analysis stage is off, so every call
// lifts the image and builds and synthesizes its candidates again. What
// the calls share is the image and the one cached simulation Result,
// whose profile cycle attribution and invocation counting read. (An
// analysis cache would serialize that work behind its lock and hide a
// write from the race detector.) The analyses mix loop and function
// granularity and two synthesis option sets under one sim config. Under
// -race this is the proof that the shared image and profile are only
// read; every report must also match an uncached serial analysis of the
// same options.
func TestConcurrentAnalyzeSharesProfile(t *testing.T) {
	b, _ := bench.ByName("engine")
	img, err := b.Compile(2)
	if err != nil {
		t.Fatal(err)
	}
	var variants []Options
	for _, gran := range []Granularity{GranLoops, GranFunctions} {
		for _, pipeline := range []bool{true, false} {
			opts := DefaultOptions()
			opts.Granularity = gran
			opts.Synth.Pipeline = pipeline
			variants = append(variants, opts)
		}
	}
	want := make([]string, len(variants))
	for i, opts := range variants {
		a, err := Analyze(img, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Candidates) == 0 {
			t.Fatalf("variant %d: no candidates to build", i)
		}
		want[i] = fullFingerprint(Evaluate(a, opts.Platform, 0, opts.Algorithm))
	}

	caches := NewCaches()
	caches.Analysis = nil
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2*len(variants); i++ {
				v := (g + i) % len(variants)
				opts := variants[v]
				a, err := AnalyzeWith(img, opts, caches)
				if err != nil {
					errs <- err.Error()
					return
				}
				if got := fullFingerprint(Evaluate(a, opts.Platform, 0, opts.Algorithm)); got != want[v] {
					errs <- fmt.Sprintf("variant %d: concurrent analysis differs from serial:\n%s\n--- serial ---\n%s", v, got, want[v])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if st := caches.Sim.Stats(); st.Misses != 1 {
		t.Errorf("sim cache: %d misses, want 1 shared Result", st.Misses)
	}
}

// stripPartitionTime masks the measured partition wall time, the one
// token two renderings of one point may differ in.
func stripPartitionTime(s string) string {
	i := strings.Index(s, "\npartition (")
	j := strings.Index(s, "):\n  application")
	if i < 0 || j < i {
		return s
	}
	return s[:i] + s[j:]
}

// copyStringMap gives the reference flow's report maps of its own, as
// the pre-split flow built them.
func copyStringMap[V any](m map[string]V) map[string]V {
	out := make(map[string]V, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
