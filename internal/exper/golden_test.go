package exper

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"binpart/internal/bench"
	"binpart/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files from the current serial run")

const t1GoldenPath = "testdata/t1_golden.txt"

// TestTable1Golden pins the main-results table to a golden file and
// requires the parallel cached executor to reproduce it byte for byte.
// The golden file freezes the experiment's observable output: any change
// to the pipeline that moves a number shows up as a diff here, and any
// ordering or sharing bug in the concurrent executor breaks the
// serial/parallel equality.
func TestTable1Golden(t *testing.T) {
	serial, err := NewRunner(1, nil).Table1()
	if err != nil {
		t.Fatal(err)
	}
	serialText := serial.Format()

	parallel, err := NewRunner(8, core.NewCaches()).Table1()
	if err != nil {
		t.Fatal(err)
	}
	if parText := parallel.Format(); parText != serialText {
		t.Errorf("parallel (-j 8, cached) table differs from serial:\n--- serial ---\n%s--- parallel ---\n%s", serialText, parText)
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(t1GoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(t1GoldenPath, []byte(serialText), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := os.ReadFile(t1GoldenPath)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/exper -run TestTable1Golden -update` to create it)", err)
	}
	if serialText != string(golden) {
		t.Errorf("T1 drifted from golden file (re-run with -update if intended):\n--- golden ---\n%s--- got ---\n%s", golden, serialText)
	}
}

// TestParallelSweepsMatchSerial runs the cheaper sweeps at -j 8 on one
// shared cache, concurrently with each other, and checks each against its
// serial rendering. Under `go test -race` this is the executor's
// data-race sweep: rows from all three experiments interleave in one
// worker pool while sharing cached profiles, lifted functions, and
// designs.
func TestParallelSweepsMatchSerial(t *testing.T) {
	serialT3, err := NewRunner(1, nil).Table3()
	if err != nil {
		t.Fatal(err)
	}
	serialT4, err := NewRunner(1, nil).Table4()
	if err != nil {
		t.Fatal(err)
	}
	serialE1, err := NewRunner(1, nil).JumpTableExtension()
	if err != nil {
		t.Fatal(err)
	}

	r := NewRunner(8, core.NewCaches())
	var wg sync.WaitGroup
	var parT3 *Table3
	var parT4 *Table4
	var parE1 *Extension
	var errT3, errT4, errE1 error
	wg.Add(3)
	go func() { defer wg.Done(); parT3, errT3 = r.Table3() }()
	go func() { defer wg.Done(); parT4, errT4 = r.Table4() }()
	go func() { defer wg.Done(); parE1, errE1 = r.JumpTableExtension() }()
	wg.Wait()
	for _, err := range []error{errT3, errT4, errE1} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got, want := parT3.Format(), serialT3.Format(); got != want {
		t.Errorf("T3 parallel != serial:\n--- serial ---\n%s--- parallel ---\n%s", want, got)
	}
	if got, want := parT4.Format(), serialT4.Format(); got != want {
		t.Errorf("T4 parallel != serial:\n--- serial ---\n%s--- parallel ---\n%s", want, got)
	}
	if got, want := parE1.Format(), serialE1.Format(); got != want {
		t.Errorf("E1 parallel != serial:\n--- serial ---\n%s--- parallel ---\n%s", want, got)
	}
}

// TestAnalyzeOnceSweepsMatchSerial covers the analyze-once sweeps the
// same way: Figure1 and Table2 at -j 8 on one shared cache, running
// concurrently with each other and with the partitioner comparison, must
// render byte-identically to their serial, cacheless runs. Under `go
// test -race` this exercises the hot sharing added by the Analyze split:
// one immutable Analysis priced by many concurrent core.Evaluate calls,
// plus the Analysis cache itself. The partitioner comparison checks
// speedups only — its Format includes measured partition wall-clock.
func TestAnalyzeOnceSweepsMatchSerial(t *testing.T) {
	serialF1, err := NewRunner(1, nil).Figure1()
	if err != nil {
		t.Fatal(err)
	}
	serialT2, err := NewRunner(1, nil).Table2()
	if err != nil {
		t.Fatal(err)
	}
	serialA1, err := NewRunner(1, nil).PartitionerComparison()
	if err != nil {
		t.Fatal(err)
	}

	r := NewRunner(8, core.NewCaches())
	var wg sync.WaitGroup
	var parF1 *Figure1
	var parT2 *Table2
	var parA1 *Ablation
	var errF1, errT2, errA1 error
	wg.Add(3)
	go func() { defer wg.Done(); parF1, errF1 = r.Figure1() }()
	go func() { defer wg.Done(); parT2, errT2 = r.Table2() }()
	go func() { defer wg.Done(); parA1, errA1 = r.PartitionerComparison() }()
	wg.Wait()
	for _, err := range []error{errF1, errT2, errA1} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got, want := parF1.Format(), serialF1.Format(); got != want {
		t.Errorf("F1 parallel != serial:\n--- serial ---\n%s--- parallel ---\n%s", want, got)
	}
	if got, want := parT2.Format(), serialT2.Format(); got != want {
		t.Errorf("T2 parallel != serial:\n--- serial ---\n%s--- parallel ---\n%s", want, got)
	}
	for i, name := range serialA1.Names {
		if parA1.Names[i] != name || parA1.Speedups[i] != serialA1.Speedups[i] {
			t.Errorf("A1 %s: parallel speedup %.6f != serial %.6f",
				name, parA1.Speedups[i], serialA1.Speedups[i])
		}
	}
}

// TestRunnerErrorPropagation checks that a failing sweep point aborts the
// run and surfaces its error named after the first experiment that reads
// it, while every experiment listed before that one still renders, at
// any worker count.
func TestRunnerErrorPropagation(t *testing.T) {
	crc, _ := bench.ByName("crc")
	good := func(level int) point { return point{bench: crc, level: level, opts: core.DefaultOptions()} }
	bad := point{bench: crc, level: 99, opts: core.DefaultOptions()} // invalid opt level: compile must fail
	count := func(pts ...point) func() plan[string] {
		return func() plan[string] {
			return plan[string]{pts, func(s sweep) string { return fmt.Sprint(len(s.rows()), " rows") }}
		}
	}
	es := []Experiment{
		{"table", 1, count(good(1), good(2))},
		{"table", 2, count(good(1), bad)},
		{"table", 3, count(good(3))},
		{"figure", 1, count(bad)},
	}
	for _, workers := range []int{1, 4} {
		texts, err := NewRunner(workers, core.NewCaches()).Regenerate(es)
		if err == nil || !strings.HasPrefix(err.Error(), "table 2: ") || !strings.Contains(err.Error(), "99") {
			t.Errorf("-j %d: error %v, want it to name table 2 and the bad level", workers, err)
		}
		if fmt.Sprint(texts) != "[2 rows]" {
			t.Errorf("-j %d: texts %q, want only table 1's", workers, texts)
		}
	}
}
