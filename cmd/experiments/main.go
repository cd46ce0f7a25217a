// Command experiments regenerates the paper's tables and figures (see
// DESIGN.md's experiment index).
//
// Usage:
//
//	experiments              # everything
//	experiments -table 1     # one table (1-4; other values are a usage error)
//	experiments -figure 1    # the area-sweep figure
//	experiments -ablation    # partitioner + pass ablations
//	experiments -corpus 1000 # differential fuzz corpus of generated programs
//	experiments -corpus 1000 -corpus-seed 7 -corpus-out sum.json
//	experiments -j 8         # analyze the distinct sweep points on 8 workers
//	experiments -trace t.jsonl     # stream per-stage spans as JSONL (.gz gzips)
//	experiments -stats             # per-stage span + cache tables (p50/p90/p99) to stderr
//	experiments -manifest m.json   # write the run manifest (config, git, totals)
//
// The selected experiments run as one plan (exper.Runner.Regenerate):
// their sweep points are pooled, each distinct analysis is computed once
// in a single fan-out over -j workers, and each experiment's table is
// folded from its points' analyses as soon as they land. Tables are
// byte-identical at any -j and with tracing on or off: folds read their
// points in declaration order and the recorder only observes. They print
// in list order once the run ends. A negative -corpus, or -corpus-out
// without -corpus, is a usage error (exit 2). The first SIGINT/SIGTERM
// cancels the queued sweep points; the trace and manifest still flush and
// the exit status is 128+signum. There is no HTTP listener: a long sweep
// is watched through its live -trace stream.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"

	"binpart/internal/exper"
	"binpart/internal/session"
)

func main() {
	adjustStartingHeap()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// startingGCPercent is the GOGC a run starts under. The runtime's first
// heap goal is 4 MiB at GOGC 100 and scales with GOGC, so 200 makes it
// 8 MiB: room for a full regeneration, which allocates about 3.5 MB, to
// finish without a cycle.
const startingGCPercent = 200

// adjustStartingHeap sets startingGCPercent until the first GC cycle and
// the runtime default (GOGC 100) after it, as cmd/compile's
// base.AdjustStartingHeap does: a long run, such as a large -corpus,
// keeps the default collector's peak heap. An explicit GOGC in the
// environment wins.
func adjustStartingHeap() {
	if _, set := os.LookupEnv("GOGC"); set {
		return
	}
	debug.SetGCPercent(startingGCPercent)
	// The finalizer runs once the first cycle has found the sentinel
	// unreachable. The sentinel is large enough to avoid the tiny
	// allocator, whose blocks are shared with other objects.
	runtime.SetFinalizer(new([32]byte), func(*[32]byte) { debug.SetGCPercent(100) })
}

// run is the command with its arguments and output streams; it returns
// the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	table := fs.Int("table", 0, "run a single table ("+list(exper.Numbers("table"))+")")
	figure := fs.Int("figure", 0, "run a single figure ("+list(exper.Numbers("figure"))+")")
	ablation := fs.Bool("ablation", false, "run the ablation studies")
	extension := fs.Bool("extension", false, "run the jump-table recovery extension experiment")
	corpusN := fs.Int("corpus", 0, "sweep N generated switch-shaped programs through the differential corpus (0: off)")
	corpusSeed := fs.Int64("corpus-seed", 1, "first generator seed for -corpus")
	corpusOut := fs.String("corpus-out", "", "write the corpus summary (recovery rate, speedup distribution, mismatches) to this JSON file")
	workers := fs.Int("j", runtime.GOMAXPROCS(0), "worker pool size for experiment sweeps (<= 0: GOMAXPROCS)")
	sf := session.Register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	for _, sel := range []struct {
		flag, kind string
		n          int
	}{{"table", "table", *table}, {"figure", "figure", *figure}} {
		if valid := exper.Numbers(sel.kind); sel.n != 0 && !slices.Contains(valid, sel.n) {
			fmt.Fprintf(stderr, "experiments: -%s %d: valid values are %s\n", sel.flag, sel.n, list(valid))
			return 2
		}
	}
	if *corpusN < 0 {
		fmt.Fprintf(stderr, "experiments: -corpus %d: want a positive count of programs (0: off)\n", *corpusN)
		return 2
	}
	if *corpusOut != "" && *corpusN == 0 {
		fmt.Fprintf(stderr, "experiments: -corpus-out %s: needs -corpus N\n", *corpusOut)
		return 2
	}
	if *workers <= 0 {
		*workers = runtime.GOMAXPROCS(0)
	}

	s, err := sf.Open(session.Config{Tool: "experiments", Args: args, Workers: *workers, Stderr: stderr})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	runner := exper.NewRunner(*workers, s.Caches)
	runner.Obs = s.Rec

	// First signal: cancel the sweep. Queued points fail fast with
	// ErrInterrupted, in-flight ones drain, and Close still flushes the
	// trace and writes the manifest (marked interrupted).
	go func() {
		<-s.Interrupted()
		runner.Interrupt()
	}()

	all := *table == 0 && *figure == 0 && !*ablation && !*extension && *corpusN == 0
	var selected []exper.Experiment
	for _, e := range exper.Experiments {
		if all ||
			e.Kind == "table" && e.Num == *table ||
			e.Kind == "figure" && e.Num == *figure ||
			e.Kind == "ablation" && *ablation ||
			e.Kind == "extension" && *extension {
			selected = append(selected, e)
		}
	}
	// One plan over every selected experiment. A failure still prints the
	// experiments before the one it names, skips the rest, and falls
	// through to Close, so the trace and manifest always flush.
	texts, err := runner.Regenerate(selected)
	for _, text := range texts {
		fmt.Fprintln(stdout, text)
	}
	failed := err != nil
	if failed {
		fmt.Fprintln(stderr, err)
	}
	if *corpusN > 0 && !failed {
		switch corpus, err := runner.Corpus(*corpusN, *corpusSeed); {
		case err != nil:
			fmt.Fprintf(stderr, "corpus: %v\n", err)
			failed = true
		default:
			fmt.Fprintln(stdout, corpus.Format())
			if *corpusOut != "" {
				if err := corpus.WriteSummary(*corpusOut); err != nil {
					fmt.Fprintf(stderr, "corpus summary: %v\n", err)
					failed = true
				}
			}
			// A corpus invocation is a differential gate, not just a report:
			// any mismatch or a recovery rate below 99% fails the run.
			if sum := corpus.Summary(); len(sum.Mismatches) > 0 || sum.RecoveryRate < 0.99 {
				fmt.Fprintf(stderr, "corpus: %d mismatches, recovery rate %.2f%%\n",
					len(sum.Mismatches), 100*sum.RecoveryRate)
				failed = true
			}
		}
	}

	if err := s.Close(s.Signal() != nil); err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		failed = true
	}
	return s.ExitCode(failed)
}

// list renders numbers as "1, 2, 3".
func list(ns []int) string {
	parts := make([]string, len(ns))
	for i, n := range ns {
		parts[i] = fmt.Sprint(n)
	}
	return strings.Join(parts, ", ")
}
