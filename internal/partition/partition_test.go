package partition

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func cand(sw, hw float64, area int, fp ...string) Candidate {
	return Candidate{SWTimeNs: sw, HWTimeNs: hw, AreaGates: area, Footprint: fp, SizeInstrs: 30}
}

func TestStep1PicksHotLoops(t *testing.T) {
	const hot, warm, cold = 0, 1, 2
	cands := []Candidate{
		hot:  cand(9000, 500, 10000),
		warm: cand(900, 100, 10000),
		cold: cand(100, 50, 10000),
	}
	res := Partition(cands, 100000, true)
	if res.Step[hot] != 1 {
		t.Errorf("hot loop selected in step %d, want 1", res.Step[hot])
	}
	// hot covers 90% of loop time, so warm/cold are not step-1 picks.
	if res.Step[warm] == 1 {
		t.Error("warm loop selected in step 1 despite coverage target met")
	}
}

func TestStep2PullsAliasAffineRegions(t *testing.T) {
	const hot, sharer, stranger = 0, 1, 2
	cands := []Candidate{
		hot:      cand(9500, 500, 10000, "buf"),
		sharer:   cand(300, 200, 10000, "buf"),
		stranger: cand(300, 200, 10000, "other"),
	}
	res := Partition(cands, 100000, true)
	if res.Step[sharer] != 2 {
		t.Errorf("sharer selected in step %d, want 2 (alias affinity)", res.Step[sharer])
	}
	if s := res.Step[stranger]; s != 3 {
		t.Errorf("stranger selected in step %d, want 3: it shares no memory, so only the fill step takes it", s)
	}
}

func TestStep3FillsUntilBudget(t *testing.T) {
	const hot, dense, sparse = 0, 1, 2
	cands := []Candidate{
		hot:    cand(9500, 500, 10000, "a"),
		dense:  cand(400, 100, 1000, "b"),
		sparse: cand(400, 100, 40000, "c"),
	}
	res := Partition(cands, 12000, true)
	if res.Step[dense] != 3 {
		t.Errorf("dense selected in step %d, want 3", res.Step[dense])
	}
	if res.Step[sparse] != 0 {
		t.Error("sparse selected despite exceeding budget")
	}
	if res.TotalGates > 12000 {
		t.Errorf("budget violated: %d > 12000", res.TotalGates)
	}
}

func TestAreaConstraintRespected(t *testing.T) {
	cands := []Candidate{
		cand(5000, 100, 9000),
		cand(4000, 100, 9000),
		cand(3000, 100, 9000),
	}
	res := Partition(cands, 10000, true)
	if res.TotalGates > 10000 {
		t.Errorf("area %d exceeds budget", res.TotalGates)
	}
	if len(res.Selected) != 1 {
		t.Errorf("selected %d regions, want exactly 1 under this budget", len(res.Selected))
	}
}

func TestNegativeGainExcluded(t *testing.T) {
	const loser, winner = 0, 1
	cands := []Candidate{
		loser:  cand(100, 5000, 1000), // hardware slower than software
		winner: cand(5000, 100, 1000),
	}
	res := Partition(cands, 100000, true)
	if res.Step[loser] != 0 {
		t.Error("region with negative gain was selected")
	}
	if res.Step[winner] == 0 {
		t.Error("winner not selected")
	}
}

func TestWholeApplicationWhenSpaceAllows(t *testing.T) {
	// Paper: "This final step allows an entire application to be
	// synthesized if space allows."
	var cands []Candidate
	for i := 0; i < 10; i++ {
		cands = append(cands, cand(1000, 100, 1000))
	}
	res := Partition(cands, 1<<30, true)
	if len(res.Selected) != len(cands) {
		t.Errorf("selected %d of %d regions with unlimited area", len(res.Selected), len(cands))
	}
}

func TestSizeCapInStep1(t *testing.T) {
	const big, small = 0, 1
	cands := []Candidate{
		big:   cand(9000, 100, 1000),
		small: cand(1000, 100, 1000),
	}
	cands[big].SizeInstrs = 10000
	res := Partition(cands, 100000, true)
	if res.Step[big] == 1 {
		t.Error("oversized loop selected in step 1")
	}
	if res.Step[small] != 1 {
		t.Error("small hot loop not selected")
	}
	// Whole functions are not capped.
	if res := Partition(cands, 100000, false); res.Step[big] != 1 {
		t.Errorf("oversized function not selected in step 1: %v", res.Step)
	}
}

func TestBaselinesRespectBudget(t *testing.T) {
	cands := []Candidate{
		cand(9000, 500, 15000),
		cand(4000, 400, 8000),
		cand(2000, 300, 4000),
		cand(1000, 200, 2000),
	}
	for name, run := range map[string]func() *Result{
		"greedy": func() *Result { return GreedyKnapsack(cands, 10000) },
		"gclp":   func() *Result { return GCLP(cands, 10000) },
		"90-10":  func() *Result { return Partition(cands, 10000, true) },
	} {
		res := run()
		if res.TotalGates > 10000 {
			t.Errorf("%s violates budget: %d", name, res.TotalGates)
		}
	}
}

func TestExhaustiveIsOptimal(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	f := func() bool {
		n := 2 + r.Intn(8)
		var cands []Candidate
		for i := 0; i < n; i++ {
			cands = append(cands, cand(
				float64(100+r.Intn(5000)),
				float64(50+r.Intn(2000)),
				500+r.Intn(8000),
			))
		}
		budget := 2000 + r.Intn(20000)
		opt, err := Exhaustive(cands, budget)
		if err != nil {
			return false
		}
		// No heuristic may beat the exhaustive optimum.
		for _, res := range []*Result{
			Partition(cands, budget, true),
			GreedyKnapsack(cands, budget),
			GCLP(cands, budget),
		} {
			if timeOf(res, cands) < timeOf(opt, cands)-1e-6 {
				return false
			}
			if res.TotalGates > budget {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestGreedyIsStepThreeAlone(t *testing.T) {
	// Loops too large for step 1 leave step 2 nothing to be affine to,
	// so the heuristic selects exactly what its step 3 alone, the greedy
	// baseline, selects.
	r := rand.New(rand.NewSource(43))
	f := func() bool {
		var cands []Candidate
		n := 1 + r.Intn(30)
		for i := 0; i < n; i++ {
			c := cand(
				float64(r.Intn(5000)),
				float64(r.Intn(5000)),
				r.Intn(8000),
				[]string{"x", "y", "z"}[r.Intn(3)],
			)
			c.SizeInstrs = MaxLoopInstrs + 1 + r.Intn(100)
			cands = append(cands, c)
		}
		budget := r.Intn(40000)
		got, want := Partition(cands, budget, true), GreedyKnapsack(cands, budget)
		return slices.Equal(got.Selected, want.Selected) && got.TotalGates == want.TotalGates
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestExhaustiveRejectsLargeInputs(t *testing.T) {
	var cands []Candidate
	for i := 0; i < 21; i++ {
		cands = append(cands, cand(100, 50, 100))
	}
	if _, err := Exhaustive(cands, 1000); err == nil {
		t.Error("Exhaustive accepted 21 candidates")
	}
}

func TestResultTime(t *testing.T) {
	cands := []Candidate{
		cand(1000, 100, 100),
		cand(2000, 300, 100),
	}
	res := &Result{Selected: []int{0}, Step: []int{1, 0}}
	// a in hardware (100), b in software (2000).
	if got := timeOf(res, cands); got != 2100 {
		t.Errorf("Time = %v, want 2100", got)
	}
}

func TestGCLPPhaseSwitch(t *testing.T) {
	// With most time already moved to hardware, GCLP switches to
	// area-driven selection: between two equal-gain candidates it must
	// prefer the denser one once criticality is low.
	const huge, dense, sparse = 0, 1, 2
	cands := []Candidate{
		huge:   cand(100000, 100, 100), // selected first, drops GC below 0.5
		dense:  cand(1000, 100, 500),
		sparse: cand(1100, 100, 20000),
	}
	res := GCLP(cands, 100+500) // room for huge + dense only
	if res.Step[dense] == 0 {
		t.Errorf("GCLP did not pick the dense candidate: %+v", res.Step)
	}
}

func TestPartitionEmptyAndDegenerate(t *testing.T) {
	if res := Partition(nil, 1000, true); len(res.Selected) != 0 || res.TotalGates != 0 {
		t.Errorf("empty input produced %+v", res)
	}
	// Zero-area candidates must not divide by zero in step 3.
	z := cand(100, 10, 0)
	if res := Partition([]Candidate{z}, 1000, true); res.TotalGates != 0 {
		// Step 1 may admit it (area 0 always fits); either way no panic
		// and no budget damage.
		_ = res
	}
	if res, err := Exhaustive(nil, 10); err != nil || len(res.Selected) != 0 {
		t.Errorf("exhaustive on empty input: %v %+v", err, res)
	}
}

func TestStepAttribution(t *testing.T) {
	const hot, affine, fill = 0, 1, 2
	cands := []Candidate{
		hot:    cand(9500, 500, 1000, "m"),
		affine: cand(200, 100, 1000, "m"),
		fill:   cand(200, 100, 1000, "x"),
	}
	res := Partition(cands, 1<<30, true)
	if res.Step[hot] != 1 || res.Step[affine] != 2 || res.Step[fill] != 3 {
		t.Errorf("step attribution = %v", res.Step)
	}
}

// timeOf returns the application time of a partitioning decision over the
// candidate set: hardware time over the selected candidates, software
// time over the rest.
func timeOf(r *Result, cands []Candidate) float64 {
	var t float64
	for i, c := range cands {
		if r.Step[i] != 0 {
			t += c.HWTimeNs
		} else {
			t += c.SWTimeNs
		}
	}
	return t
}
