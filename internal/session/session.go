// Package session is the run lifecycle shared by experiments, bparts and
// bpartd: the stage caches, the recorder, the -trace stream and the
// SIGINT/SIGTERM watch open in one place, and the -stats tables, trace
// trailer, reconciliation check and -manifest are written in one fixed
// order when the run closes. The package serves nothing: bpartd's ops
// listener is the daemon's own, so the batch commands link no HTTP stack.
package session

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"syscall"

	"binpart/internal/core"
	"binpart/internal/obs"
)

// Flags holds the session flags a command registered with Register.
type Flags struct {
	trace, manifest string
	stats           bool
}

// Register adds -trace, -manifest and -stats to fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.trace, "trace", "", "stream per-stage spans to this file as JSONL (gzip when the path ends in .gz)")
	fs.StringVar(&f.manifest, "manifest", "", "write a run manifest (config, git, per-stage totals, cache accounting) to this JSON file")
	fs.BoolVar(&f.stats, "stats", false, "print per-stage span and cache counters to stderr at exit")
	return f
}

// Config is what a command tells Open about its run.
type Config struct {
	Tool    string   // manifest tool name and stderr prefix
	Args    []string // manifest arguments
	Workers int      // manifest worker count
	// Record creates the recorder even when no flag reads it. Otherwise a
	// nil recorder keeps the pipeline on its alloc-free fast path.
	Record bool
	Stderr io.Writer // -stats tables and notes (default os.Stderr)
}

// Session is one open run. Rec is nil when nothing reads it.
type Session struct {
	Caches *core.Caches
	Rec    *obs.Recorder

	f     *Flags
	cfg   Config
	trace *obs.TraceWriter

	gc0 obs.GCStats // collector counters at Open

	sigCh       chan os.Signal
	once        sync.Once
	sig         os.Signal     // set before interrupted closes
	interrupted chan struct{} // closed by the first signal
}

// Open starts the run: the caches, the recorder and the trace stream.
// SIGINT and SIGTERM are watched from here until Close: the first closes
// Interrupted, a second exits the process at once with status 2.
func (f *Flags) Open(cfg Config) (*Session, error) {
	if cfg.Stderr == nil {
		cfg.Stderr = os.Stderr
	}
	s := &Session{Caches: core.NewCaches(), f: f, cfg: cfg, interrupted: make(chan struct{}), gc0: obs.ReadGC()}
	if cfg.Record || f.trace != "" || f.stats || f.manifest != "" {
		s.Rec = obs.NewRecorder()
	}
	if f.trace != "" {
		tw, err := obs.CreateTrace(f.trace)
		if err != nil {
			return nil, err
		}
		s.trace = tw
		s.Rec.StreamTo(tw.Writer())
	}

	// Two slots, so a signal delivered before the watch runs is kept.
	s.sigCh = make(chan os.Signal, 2)
	signal.Notify(s.sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig, ok := <-s.sigCh
		if !ok {
			return
		}
		s.interrupt(sig)
		if _, ok := <-s.sigCh; ok {
			fmt.Fprintf(cfg.Stderr, "%s: second signal: exiting immediately\n", cfg.Tool)
			os.Exit(2)
		}
	}()
	return s, nil
}

// interrupt records the first signal and closes Interrupted. The signal
// watch calls it; tests call it directly.
func (s *Session) interrupt(sig os.Signal) {
	s.once.Do(func() {
		fmt.Fprintf(s.cfg.Stderr, "%s: %v: stopping (signal again to force exit)\n", s.cfg.Tool, sig)
		s.sig = sig
		close(s.interrupted)
	})
}

// Interrupted is closed when the first SIGINT/SIGTERM arrives.
func (s *Session) Interrupted() <-chan struct{} { return s.interrupted }

// Signal returns the first signal received, or nil.
func (s *Session) Signal() os.Signal {
	select {
	case <-s.interrupted:
		return s.sig
	default:
		return nil
	}
}

// Close finishes the run in one fixed order: the -stats tables with the
// collector's work since Open, the trace's cache trailer, the stream
// flush, the trace file close, the span/cache reconciliation and the
// -manifest. Every step runs; the error joins each one that failed. The
// manifest is marked interrupted when cut is set or an earlier step
// failed. Close ends the signal watch.
func (s *Session) Close(cut bool) error {
	var errs []error
	gc := obs.ReadGC().Sub(s.gc0)
	if s.f.stats {
		fmt.Fprint(s.cfg.Stderr, s.Rec.Table())
		fmt.Fprint(s.cfg.Stderr, s.Caches.StatsString())
		fmt.Fprint(s.cfg.Stderr, gc)
	}
	stats := s.Caches.StatsMap()
	if s.trace != nil {
		s.Rec.EmitCaches(stats)
		if err := s.Rec.Flush(); err != nil {
			errs = append(errs, fmt.Errorf("trace: %w", err))
		}
		if err := s.trace.Close(); err != nil {
			errs = append(errs, fmt.Errorf("trace: %w", err))
		}
	}
	if s.Rec != nil && stats != nil {
		if err := s.Rec.Reconcile(stats); err != nil {
			errs = append(errs, err)
		}
	}
	if s.f.manifest != "" {
		m := obs.BuildManifest(s.cfg.Tool, s.cfg.Args, s.cfg.Workers, s.Rec, stats)
		m.GC = gc
		m.Interrupted = cut || len(errs) > 0
		if err := m.Write(s.f.manifest); err != nil {
			errs = append(errs, fmt.Errorf("manifest: %w", err))
		}
	}
	// After Stop no signal is sent on sigCh, so closing it is safe and
	// ends the watch.
	signal.Stop(s.sigCh)
	close(s.sigCh)
	return errors.Join(errs...)
}

// ExitCode is the process status: 128+signum after a signal (the shell
// convention), 1 when failed, 0 otherwise.
func (s *Session) ExitCode(failed bool) int {
	if sig, ok := s.Signal().(syscall.Signal); ok {
		return 128 + int(sig)
	}
	if failed {
		return 1
	}
	return 0
}
