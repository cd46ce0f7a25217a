// Command experiments regenerates the paper's tables and figures (see
// DESIGN.md's experiment index).
//
// Usage:
//
//	experiments              # everything
//	experiments -table 1     # one table (1-4)
//	experiments -figure 1    # the area-sweep figure
//	experiments -ablation    # partitioner + pass ablations
//	experiments -corpus 1000 # differential fuzz corpus of generated programs
//	experiments -corpus 1000 -corpus-seed 7 -corpus-out sum.json
//	experiments -j 8         # fan sweep points over 8 workers
//	experiments -cachedir d  # persist the stage cache under d
//	experiments -cachedir d -cachedir-max 256M  # bound it (oldest-mtime eviction)
//	experiments -trace t.jsonl     # stream per-stage spans as JSONL (.gz gzips)
//	experiments -stats             # per-stage span + cache tables (p50/p90/p99) to stderr
//	experiments -manifest m.json   # write the run manifest (config, git, totals)
//	experiments -debug-addr :6060  # net/pprof + /metrics for long sweeps
//
// Tables are byte-identical at any -j and with tracing on or off: the
// executor reassembles rows in submission order and the recorder only
// observes. The stage cache is shared by every experiment in one
// invocation, so the full run lifts each distinct binary once. The first
// SIGINT/SIGTERM cancels the queued sweep points; the trace and manifest
// still flush and the exit status is 128+signum.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"

	"binpart/internal/exper"
	"binpart/internal/session"
)

func main() {
	table := flag.Int("table", 0, "run a single table (1-4)")
	figure := flag.Int("figure", 0, "run a single figure (1)")
	ablation := flag.Bool("ablation", false, "run the ablation studies")
	extension := flag.Bool("extension", false, "run the jump-table recovery extension experiment")
	corpusN := flag.Int("corpus", 0, "sweep N generated switch-shaped programs through the differential corpus (0: off)")
	corpusSeed := flag.Int64("corpus-seed", 1, "first generator seed for -corpus")
	corpusOut := flag.String("corpus-out", "", "write the corpus summary (recovery rate, speedup distribution, mismatches) to this JSON file")
	workers := flag.Int("j", runtime.GOMAXPROCS(0), "worker pool size for experiment sweeps")
	noCache := flag.Bool("nocache", false, "disable the stage cache entirely")
	sf := session.Register(flag.CommandLine, "debug-addr", "serve net/pprof + Prometheus /metrics on this address (e.g. :6060)")
	flag.Parse()

	s, err := sf.Open(session.Config{Tool: "experiments", Args: os.Args[1:], Workers: *workers, NoCache: *noCache})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		if errors.Is(err, session.ErrUsage) {
			os.Exit(2)
		}
		os.Exit(1)
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
	steps := []struct {
		on   bool
		name string
		run  func() (string, error)
	}{
		{all || *table == 1, "table 1", format(runner.Table1)},
		{all || *table == 2, "table 2", format(runner.Table2)},
		{all || *table == 3, "table 3", format(runner.Table3)},
		{all || *table == 4, "table 4", format(runner.Table4)},
		{all || *figure == 1, "figure 1", format(runner.Figure1)},
		{all || *ablation, "ablation 1", format(runner.PartitionerComparison)},
		{all || *ablation, "ablation 2", format(runner.PassAblation)},
		{all || *extension, "extension 1", format(runner.JumpTableExtension)},
	}
	// A failure skips the remaining experiments and falls through to
	// Close, so the trace and manifest always flush.
	failed := false
	for _, st := range steps {
		if !st.on || failed {
			continue
		}
		out, err := st.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", st.name, err)
			failed = true
			continue
		}
		fmt.Println(out)
	}
	if *corpusN > 0 && !failed {
		switch corpus, err := runner.Corpus(*corpusN, *corpusSeed); {
		case err != nil:
			fmt.Fprintf(os.Stderr, "corpus: %v\n", err)
			failed = true
		default:
			fmt.Println(corpus.Format())
			if *corpusOut != "" {
				if err := corpus.WriteSummary(*corpusOut); err != nil {
					fmt.Fprintf(os.Stderr, "corpus summary: %v\n", err)
					failed = true
				}
			}
			// A corpus invocation is a differential gate, not just a report:
			// any mismatch or a recovery rate below 99% fails the run.
			if sum := corpus.Summary(); len(sum.Mismatches) > 0 || sum.RecoveryRate < 0.99 {
				fmt.Fprintf(os.Stderr, "corpus: %d mismatches, recovery rate %.2f%%\n",
					len(sum.Mismatches), 100*sum.RecoveryRate)
				failed = true
			}
		}
	}

	if err := s.Close(s.Signal() != nil); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		failed = true
	}
	os.Exit(s.ExitCode(failed))
}

// format adapts an experiment to a step that renders its result.
func format[T interface{ Format() string }](f func() (T, error)) func() (string, error) {
	return func() (string, error) {
		v, err := f()
		if err != nil {
			return "", err
		}
		return v.Format(), nil
	}
}
