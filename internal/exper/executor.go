package exper

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"binpart/internal/bench"
	"binpart/internal/core"
	"binpart/internal/obs"
	"binpart/internal/platform"
)

// Runner executes experiments over a bounded worker pool with an
// optional stage-cache set. A run is plan → execute → fold: each
// experiment declares the (benchmark, opt level, options) points it
// needs and a fold that builds its result from their analyses; the
// Runner analyzes every distinct point of every experiment in one
// fan-out over Workers goroutines and folds each experiment on the
// worker that lands its last point. Folds index their points in the
// order they declared them, so the rendered tables are byte-identical
// to a serial run at any worker count. The zero value runs serially
// without caching.
type Runner struct {
	// Workers is the pool size; <= 0 selects runtime.GOMAXPROCS(0).
	Workers int
	// Caches memoizes the compile, simulate and analysis stages
	// across sweep points; nil disables caching.
	Caches *core.Caches
	// Obs records per-stage spans for every sweep point, attributed with
	// the benchmark, opt level, and worker id; nil disables recording
	// (the alloc-free fast path — tables are byte-identical either way).
	Obs *obs.Recorder

	// interrupted, once set by Interrupt, makes every not-yet-started job
	// fail fast with ErrInterrupted; in-flight jobs drain normally. That
	// rides the fanOut abort machinery, so an interrupted sweep returns
	// promptly with spans and cache counters intact for the trace flush.
	interrupted atomic.Bool
}

// ErrInterrupted is the error every sweep returns once Interrupt has
// been called — callers distinguish a cancelled run (flush partial
// observability, exit on the signal path) from a genuine failure.
var ErrInterrupted = errors.New("exper: run interrupted")

// Interrupt cancels the runner: jobs not yet started fail with
// ErrInterrupted, in-flight jobs complete. Safe from any goroutine
// (it is called from signal handlers).
func (r *Runner) Interrupt() { r.interrupted.Store(true) }

// NewRunner builds a Runner. workers <= 0 selects GOMAXPROCS; caches may
// be nil.
func NewRunner(workers int, caches *core.Caches) *Runner {
	return &Runner{Workers: workers, Caches: caches}
}

// point is one sweep point: a benchmark compiled at one optimization
// level and partitioned under one configuration.
type point struct {
	bench bench.Benchmark
	level int
	opts  core.Options
}

// A plan is one experiment's share of a run: the points whose analyses
// it reads and the fold that builds its result from them.
type plan[T any] struct {
	points []point
	fold   func(s sweep) T
}

// sweep is what a fold reads: its plan's points and their analyses,
// index for index, evaluated under the scope of the worker running the
// fold.
type sweep struct {
	r      *Runner
	worker int
	points []point
	as     []*core.Analysis
}

// eval prices point i's analysis on platform p under an area budget (0:
// the device's capacity) with algorithm alg.
func (s sweep) eval(i int, p platform.Platform, budget int, alg core.Algorithm) *core.Report {
	pt := s.points[i]
	return core.EvaluateScoped(s.as[i], p, budget, alg, s.r.Obs.Scope(pt.bench.Name, pt.level, s.worker))
}

// rows evaluates every point on its own options, one Row per point.
func (s sweep) rows() []Row {
	rows := make([]Row, len(s.points))
	for i, pt := range s.points {
		rows[i] = rowFrom(pt, s.eval(i, pt.opts.Platform, pt.opts.AreaBudgetGates, pt.opts.Algorithm))
	}
	return rows
}

func (r *Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// distinct collects the points of every plan, in plan order, and keeps
// the first of each set that needs the same analysis: the same benchmark
// and level under equal core.AnalysisOptions. refs[k][i] is the index
// in pts of plan k's point i. A default regeneration has 148 points,
// so a linear search is cheaper than hashing 400-byte keys.
func distinct[T any](plans []plan[T]) (pts []*point, refs [][]int) {
	refs = make([][]int, len(plans))
	for k, p := range plans {
		refs[k] = make([]int, len(p.points))
		for i := range p.points {
			pt := &p.points[i]
			d := slices.IndexFunc(pts, func(q *point) bool {
				return q.bench.Name == pt.bench.Name && q.level == pt.level &&
					core.AnalysisOptions(q.opts) == core.AnalysisOptions(pt.opts)
			})
			if d < 0 {
				d = len(pts)
				pts = append(pts, pt)
			}
			refs[k][i] = d
		}
	}
	return pts, refs
}

// execute runs plans as one fan-out: it analyzes each distinct point
// once, in plan order, and folds each plan on the worker that lands the
// plan's last analysis, so no plan waits for another's points. It
// returns the folds' results in plan order. On failure it returns the
// results of the plans before the first plan that failed, and that
// plan's error: its failed points' errors, joined in its point order.
// Every point of an earlier plan precedes the failed one in the fan-out
// (distinct keeps first occurrences), so those plans always fold.
func execute[T any](r *Runner, plans []plan[T]) ([]T, error) {
	pts, refs := distinct(plans)
	pending := make([]atomic.Int32, len(plans)) // points each plan still waits for
	for k, ref := range refs {
		pending[k].Store(int32(len(ref)))
	}
	as := make([]*core.Analysis, len(pts))
	errs := make([]error, len(pts))
	out := make([]T, len(plans))
	_, err := fanOut(r.workers(), len(pts), func(w, d int) (struct{}, error) {
		a, err := r.analyze(pts[d], w)
		if err != nil {
			errs[d] = err
			return struct{}{}, err
		}
		as[d] = a
		for k, ref := range refs {
			for _, e := range ref {
				if e != d || pending[k].Add(-1) != 0 {
					continue
				}
				s := sweep{r: r, worker: w, points: plans[k].points, as: make([]*core.Analysis, len(ref))}
				for i, e := range ref {
					s.as[i] = as[e]
				}
				out[k] = plans[k].fold(s)
			}
		}
		return struct{}{}, nil
	})
	if err == nil {
		return out, nil
	}
	k := 0
	for k < len(plans)-1 && pending[k].Load() == 0 {
		k++
	}
	failed := make([]error, len(refs[k]))
	for i, d := range refs[k] {
		failed[i] = errs[d]
	}
	if joined := errors.Join(failed...); joined != nil {
		err = joined
	}
	return out[:k], err
}

// analyze compiles and analyzes one point on worker w under a "job" span.
func (r *Runner) analyze(pt *point, w int) (*core.Analysis, error) {
	if r.interrupted.Load() {
		return nil, ErrInterrupted
	}
	sc := r.Obs.Scope(pt.bench.Name, pt.level, w)
	sp := sc.Start(obs.StageJob)
	defer sp.End()
	img, err := core.Compile(pt.bench, pt.level, r.Caches, sc)
	if err != nil {
		return nil, err
	}
	a, err := core.AnalyzeScoped(img, pt.opts, r.Caches, sc)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", pt.bench.Name, err)
	}
	return a, nil
}

// runPlan runs one experiment's plan on its own.
func runPlan[T any](r *Runner, p plan[T]) (T, error) {
	out, err := execute(r, []plan[T]{p})
	if err != nil {
		var zero T
		return zero, err
	}
	return out[0], nil
}

// Regenerate runs the experiments es as one plan over one worker pool
// and returns their texts in es order. If a point fails, it returns the
// texts of the experiments before the first experiment that reads a
// failed point, and an error that names that experiment.
func (r *Runner) Regenerate(es []Experiment) ([]string, error) {
	plans := make([]plan[string], len(es))
	for i, e := range es {
		plans[i] = e.plan()
	}
	out, err := execute(r, plans)
	if err != nil {
		return out, fmt.Errorf("%s: %w", es[len(out)].Name(), err)
	}
	return out, nil
}

// fanOut runs n indexed jobs over a bounded worker pool and returns the
// results in index order regardless of completion order: workers pull
// indexes from a channel and send indexed results back, and the collector
// writes each into its slot. run receives the worker id so per-job
// observability spans can attribute contention. A failure aborts the jobs
// after it (those not yet started are skipped, in-flight ones drain);
// every job before the first failure still runs, and with one worker no
// job runs after it. Every job that failed is reported: the errors are
// joined in job-index order, so a sweep broken on three benchmarks names
// all three, not just the first across the finish line.
func fanOut[T any](workers, n int, run func(worker, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	workers = min(max(workers, 1), n)

	type result struct {
		index int
		val   T
		err   error
	}
	jobCh := make(chan int)
	resCh := make(chan result, n)
	var firstFailed atomic.Int64 // lowest failed index so far; n when none
	firstFailed.Store(int64(n))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range jobCh {
				if int64(i) > firstFailed.Load() {
					resCh <- result{index: i, err: errSkipped}
					continue
				}
				v, err := run(worker, i)
				for f := firstFailed.Load(); err != nil && int64(i) < f; f = firstFailed.Load() {
					if firstFailed.CompareAndSwap(f, int64(i)) {
						break
					}
				}
				resCh <- result{index: i, val: v, err: err}
			}
		}(w)
	}
	go func() {
		for i := 0; i < n; i++ {
			jobCh <- i
		}
		close(jobCh)
		wg.Wait()
		close(resCh)
	}()

	errs := make([]error, n) // per-index slots keep the join deterministic
	nerr := 0
	for res := range resCh {
		if res.err != nil {
			if res.err != errSkipped {
				errs[res.index] = res.err
				nerr++
			}
			continue
		}
		out[res.index] = res.val
	}
	if nerr > 0 {
		return nil, errors.Join(errs...)
	}
	return out, nil
}

// errSkipped marks jobs abandoned after another job already failed.
var errSkipped = fmt.Errorf("exper: skipped after earlier failure")

// rowFrom flattens one sweep point's Report into a Row.
func rowFrom(pt point, rep *core.Report) Row {
	_, failed := rep.Recovery.FailReasons[pt.bench.KernelFunc]
	return Row{
		Name:          pt.bench.Name,
		Suite:         pt.bench.Suite,
		OptLevel:      pt.level,
		SWTimeMs:      rep.Metrics.SWTimeS * 1e3,
		HWSWTimeMs:    rep.Metrics.HWSWTimeS * 1e3,
		AppSpeedup:    rep.Metrics.AppSpeedup,
		KernelSpeedup: rep.Metrics.KernelSpeedup,
		EnergySavings: rep.Metrics.EnergySavings,
		AreaGates:     rep.Metrics.AreaGates,
		Selected:      len(rep.SelectedRegions()),
		KernelFailed:  failed,
		PartitionTime: rep.PartitionTime,
		Recovery:      rep.Recovery,
	}
}
