package exper

import (
	"runtime"
	"strings"
	"testing"

	"binpart/internal/core"
)

// TestEngineAblationBitIdentical runs the full engine-differential sweep
// — every suite benchmark at every optimization level, through each
// engine as one multi-core batch — and requires the threaded engine to
// be bit-identical to the reference stepper.
func TestEngineAblationBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("2 engines x full suite x 4 levels")
	}
	r := &Runner{Workers: runtime.GOMAXPROCS(0), Caches: core.NewCaches()}
	e, err := r.EngineAblation()
	if err != nil {
		t.Fatal(err)
	}
	if e.Points != 80 {
		t.Fatalf("%d points, want 80 (20 benchmarks x 4 levels)", e.Points)
	}
	if len(e.Runs) != 2 {
		t.Fatalf("%d engine runs, want 2", len(e.Runs))
	}
	for _, run := range e.Runs {
		for _, m := range run.Mismatches {
			t.Errorf("%s: %s", run.Engine, m)
		}
	}
	if !e.Identical() {
		t.Fatal("engines are not bit-identical")
	}
	// Both engines retire the same instruction stream.
	if got, ref := e.Runs[1], e.Runs[0]; got.Steps != ref.Steps {
		t.Errorf("%s retired %d steps, reference %d", got.Engine, got.Steps, ref.Steps)
	}

	out := e.Format()
	for _, want := range []string{"E2", "reference", "threaded", "bit-identical"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted ablation missing %q", want)
		}
	}
}
