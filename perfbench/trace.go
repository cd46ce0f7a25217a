package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"binpart/internal/bench"
	"binpart/internal/core"
	"binpart/internal/decompile"
	"binpart/internal/dopt"
	"binpart/internal/ir"
	"binpart/internal/mcc"
	"binpart/internal/sim"
	"binpart/internal/synth"
)

// The traced pass times the benchmark's own spans around calls into each
// module's public functions, on the workload's inputs, in this process.
// No span is placed inside the programs. Each call is repeated tracedReps
// times and its median kept; a layer's figure is the mean over inputs of
// those medians, so the parts of a budget add up to its total. Residuals
// (core.analyze_glue_us, bpartd.serve_us) are what the whole call costs
// beyond its timed parts, reported as layers of their own.

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// source is one program the cold pipeline is timed on.
type source struct {
	src string
	opt int
}

func suiteSources() []source {
	var out []source
	for _, in := range suiteInputs() {
		b, _ := bench.ByName(in.bench)
		out = append(out, source{b.Source, in.opt})
	}
	return out
}

// synthesizable mirrors core's candidate filter: no calls and no
// unresolved indirect jumps in the loop.
func synthesizable(l *ir.Loop) bool {
	for _, b := range l.Blocks {
		for i := range b.Instrs {
			in := &b.Instrs[i]
			if in.Op == ir.Call || (in.Op == ir.IJump && in.Table == nil) {
				return false
			}
		}
	}
	return true
}

func rewrites(rep dopt.Report) int {
	return rep.MovesFolded + rep.DeadRemoved + rep.Stack.SlotsPromoted + len(rep.Reroll.Rerolled) +
		rep.Promote.Multiplies + rep.StrengthReduced + rep.Width.OpsNarrowed
}

// tracePipeline times the cold path on every input: mcc.Compile,
// sim.Execute, decompile.DecompileWith, dopt.OptimizeWith per function,
// synth.Synthesize per executed outermost-loop candidate, and the whole
// uncached core.Analyze, whose remainder is core.analyze_glue_us.
func tracePipeline(r *run, inputs []source) error {
	opts := newOracle(false).base
	var compile, simT, lift, doptT, synthT, analyze float64
	var textBytes, steps, failed, rw, doptCalls, synthCalls, selected, candidates float64
	for _, in := range inputs {
		var tc, ts, tl, td, tsy, ta []float64
		for rep := 0; rep < tracedReps; rep++ {
			start := time.Now()
			img, err := mcc.Compile(in.src, mcc.Options{OptLevel: in.opt})
			tc = append(tc, us(time.Since(start)))
			if err != nil {
				return fmt.Errorf("traced mcc.Compile: %w", err)
			}

			start = time.Now()
			res, err := sim.Execute(img, opts.Sim)
			ts = append(ts, us(time.Since(start)))
			if err != nil {
				return fmt.Errorf("traced sim.Execute: %w", err)
			}

			start = time.Now()
			dec, err := decompile.DecompileWith(img, decompile.Options{RecoverJumpTables: opts.RecoverJumpTables})
			tl = append(tl, us(time.Since(start)))
			if err != nil {
				return fmt.Errorf("traced decompile.DecompileWith: %w", err)
			}

			var dt time.Duration
			nrw := 0
			for _, f := range dec.Funcs {
				start = time.Now()
				dr := dopt.OptimizeWith(f, opts.Dopt)
				dt += time.Since(start)
				nrw += rewrites(dr)
			}
			td = append(td, us(dt))

			var st time.Duration
			ns := 0
			for _, f := range dec.Funcs {
				if f.Name == "_start" {
					continue
				}
				for _, l := range ir.FindLoops(f) {
					if l.Depth != 1 || !synthesizable(l) || res.Profile.InstCount[l.Header.Start] == 0 {
						continue
					}
					start = time.Now()
					synth.Synthesize(synth.LoopRegion(f, l), img, opts.Synth) //nolint:errcheck // core skips regions that fail too
					st += time.Since(start)
					ns++
				}
			}
			tsy = append(tsy, us(st))

			start = time.Now()
			a, err := core.Analyze(img, opts)
			ta = append(ta, us(time.Since(start)))
			if err != nil {
				return fmt.Errorf("traced core.Analyze: %w", err)
			}

			if rep == 0 {
				textBytes += float64(4 * len(img.Text))
				steps += float64(res.Steps)
				failed += float64(len(dec.Failed))
				rw += float64(nrw)
				doptCalls += float64(len(dec.Funcs))
				synthCalls += float64(ns)
				ev := core.Evaluate(a, opts.Platform, 0, opts.Algorithm)
				selected += float64(len(ev.SelectedRegions()))
				candidates += float64(len(a.Candidates))
			}
		}
		compile += median(tc)
		simT += median(ts)
		lift += median(tl)
		doptT += median(td)
		synthT += median(tsy)
		analyze += median(ta)
	}
	n := float64(len(inputs))
	glue := analyze - simT - lift - doptT - synthT
	r.logf("cold budget per program (n=%d, median of %d): analyze %.1fus = sim %.1f + decompile %.1f + dopt %.1f + synth %.1f + glue(residual) %.1f; compile %.1fus",
		len(inputs), tracedReps, analyze/n, simT/n, lift/n, doptT/n, synthT/n, glue/n, compile/n)
	r.set("mcc.compile_us", compile/n)
	r.set("mcc.text_bytes", textBytes/n)
	r.set("sim.execute_us", simT/n)
	r.set("sim.ns_per_instr", simT*1e3/steps)
	r.set("decompile.lift_us", lift/n)
	r.set("decompile.funcs_failed", failed)
	r.set("dopt.optimize_us", doptT/doptCalls)
	r.set("dopt.rewrites", rw/doptCalls)
	r.set("synth.synthesize_us", synthT/synthCalls)
	r.set("synth.selected_frac", selected/candidates)
	r.set("core.analyze_glue_us", glue/n)
	return nil
}

// traceWarmLayers times the warm request path's parts in-process on the
// requests' own bodies: encoding/json decode, the cache lookups (compile
// cache via bench.CompileKey, then warm core.RunWith minus its
// core.Evaluate), core.Evaluate, core.RenderReport, and encoding/json
// encode. It returns each request's summed parts in microseconds.
func traceWarmLayers(r *run, o *oracle, reqs []*request) ([]float64, error) {
	sums := make([]float64, len(reqs))
	var dec, look, eval, rend, enc float64
	var buf bytes.Buffer
	for i, req := range reqs {
		var td, tl, te, tr, tn []float64
		for rep := 0; rep < tracedReps; rep++ {
			start := time.Now()
			var api apiRequest
			err := json.Unmarshal(req.body, &api)
			td = append(td, us(time.Since(start)))
			if err != nil {
				return nil, err
			}
			opts, err := o.options(api)
			if err != nil {
				return nil, err
			}

			start = time.Now()
			img, err := o.image(api)
			imgT := time.Since(start)
			if err != nil {
				return nil, err
			}
			start = time.Now()
			if _, err := core.RunWith(img, opts, o.caches); err != nil {
				return nil, err
			}
			runT := time.Since(start)
			a, err := core.AnalyzeWith(img, opts, o.caches)
			if err != nil {
				return nil, err
			}
			start = time.Now()
			rep := core.Evaluate(a, opts.Platform, opts.AreaBudgetGates, opts.Algorithm)
			evalT := time.Since(start)
			te = append(te, us(evalT))
			tl = append(tl, us(imgT+runT-evalT))

			start = time.Now()
			text := core.RenderReport(rep, false)
			tr = append(tr, us(time.Since(start)))

			resp := responseFor(rep, text)
			buf.Reset()
			start = time.Now()
			err = json.NewEncoder(&buf).Encode(resp)
			tn = append(tn, us(time.Since(start)))
			if err != nil {
				return nil, err
			}
		}
		parts := []float64{median(td), median(tl), median(te), median(tr), median(tn)}
		dec += parts[0]
		look += parts[1]
		eval += parts[2]
		rend += parts[3]
		enc += parts[4]
		for _, p := range parts {
			sums[i] += p
		}
	}
	n := float64(len(reqs))
	r.set("bpartd.decode_us", dec/n)
	r.set("cache.lookup_us", look/n)
	r.set("core.evaluate_us", eval/n)
	r.set("core.render_us", rend/n)
	r.set("bpartd.encode_us", enc/n)
	return sums, nil
}

// traceServing attributes the warm round trip: it scrapes the daemon's
// cache counters (before adding any request), replays up to
// probeRequests distinct warm requests one at a time over one
// connection, and reports bpartd.serve_us as the round trip minus the
// in-process warm parts. It then times the cold pipeline on inputs.
// It returns how many requests the probe sent.
func traceServing(r *run, d *daemon, o *oracle, pool []*request, inputs []source) (int, error) {
	counts, err := scrapeCaches(d)
	if err != nil {
		return 0, err
	}
	setCacheMetrics(r, counts)

	probe := pool[:min(probeRequests, len(pool))]
	parts, err := traceWarmLayers(r, o, probe)
	if err != nil {
		return 0, err
	}
	var buf bytes.Buffer
	var rttSum, partSum float64
	sent := 0
	for i, req := range probe {
		var rtt []float64
		for rep := 0; rep < tracedReps; rep++ {
			start := time.Now()
			done, err := d.post(req, &buf)
			sent++
			if err != nil {
				r.fail("probe: %v", err)
				continue
			}
			rtt = append(rtt, us(done.Sub(start)))
		}
		if len(rtt) > 0 {
			rttSum += median(rtt)
			partSum += parts[i]
		}
	}
	n := float64(len(probe))
	r.logf("warm budget per request (n=%d, median of %d, 1 connection): round trip %.1fus = decode %.1f + lookup %.1f + evaluate %.1f + render %.1f + encode %.1f + serve(residual) %.1f",
		len(probe), tracedReps, rttSum/n, r.values["bpartd.decode_us"], r.values["cache.lookup_us"],
		r.values["core.evaluate_us"], r.values["core.render_us"], r.values["bpartd.encode_us"], (rttSum-partSum)/n)
	r.set("bpartd.serve_us", (rttSum-partSum)/n)

	if err := tracePipeline(r, inputs); err != nil {
		return sent, err
	}
	// The serving workloads regenerate no table.
	for _, tc := range tableCalls {
		r.set("exper."+tc.key+"_ms", 0)
	}
	r.set("exper.parallel_eff", 0)
	return sent, nil
}
