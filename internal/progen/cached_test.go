package progen

import (
	"fmt"
	"testing"

	"binpart/internal/core"
	"binpart/internal/mcc"
)

// reportFingerprint renders the cache-relevant observable content of a
// Report: everything except PartitionTime (wall-clock) and the Design
// pointers. Two runs of the same binary under the same options must
// produce identical fingerprints whether stages were computed or served
// from the cache.
func reportFingerprint(rep *core.Report) string {
	s := fmt.Sprintf("exit=%d sw=%d metrics=%+v\nrecovery=%+v\n",
		rep.ExitCode, rep.SWCycles, rep.Metrics, rep.Recovery)
	for _, r := range rep.Regions {
		s += fmt.Sprintf("region %s func=%s sw=%d hw=%.6f clk=%.6f inv=%d area=%d fp=%v sel=%v step=%d\n",
			r.Name, r.Func, r.SWCycles, r.HWCycles, r.HWClockNs,
			r.Invocations, r.AreaGates, r.Footprint, r.Selected, r.Step)
	}
	return s
}

// TestCachedRunDifferential extends the differential suite to the cached
// pipeline: for random programs at -O2 and -O3, a cold core.Run, a cold
// cached core.RunWith, and a fully warm core.RunWith (same cache, second
// call) must agree on every observable output — exit code, cycle counts,
// metrics, recovery statistics, and every candidate region. This is the
// guarantee that content-addressed memoization of the compile/sim/
// analysis stages is invisible to results.
func TestCachedRunDifferential(t *testing.T) {
	cfg := Config{MaxStmts: 6, MaxDepth: 3, MaxLoops: 3, Arrays: true, UnrollFriendly: true}
	caches := core.NewCaches()
	opts := core.DefaultOptions()
	for seed := int64(0); seed < 12; seed++ {
		p := Generate(seed*29+5, cfg)
		for lvl := 2; lvl <= 3; lvl++ {
			img, err := mcc.Compile(p.Source, mcc.Options{OptLevel: lvl})
			if err != nil {
				t.Fatalf("seed %d O%d: %v", p.Seed, lvl, err)
			}
			cold, err := core.Run(img, opts)
			if err != nil {
				t.Fatalf("seed %d O%d: uncached run: %v", p.Seed, lvl, err)
			}
			first, err := core.RunWith(img, opts, caches)
			if err != nil {
				t.Fatalf("seed %d O%d: cached run: %v", p.Seed, lvl, err)
			}
			warm, err := core.RunWith(img, opts, caches)
			if err != nil {
				t.Fatalf("seed %d O%d: warm cached run: %v", p.Seed, lvl, err)
			}

			want := reportFingerprint(cold)
			if got := reportFingerprint(first); got != want {
				t.Fatalf("seed %d O%d: cold cached run differs from uncached:\n--- uncached ---\n%s--- cached ---\n%s\n%s",
					p.Seed, lvl, want, got, p.Source)
			}
			if got := reportFingerprint(warm); got != want {
				t.Fatalf("seed %d O%d: warm cached run differs from uncached:\n--- uncached ---\n%s--- warm ---\n%s\n%s",
					p.Seed, lvl, want, got, p.Source)
			}

			// Vary an analysis-only option: the assembled-analysis cache
			// misses (its key covers the synthesis options) but the sim
			// cache hits, and the result must still match an uncached
			// run under the same options.
			opts2 := opts
			opts2.Synth.Pipeline = false
			cold2, err := core.Run(img, opts2)
			if err != nil {
				t.Fatalf("seed %d O%d: uncached varied run: %v", p.Seed, lvl, err)
			}
			warm2, err := core.RunWith(img, opts2, caches)
			if err != nil {
				t.Fatalf("seed %d O%d: cached varied run: %v", p.Seed, lvl, err)
			}
			if got, want2 := reportFingerprint(warm2), reportFingerprint(cold2); got != want2 {
				t.Fatalf("seed %d O%d: varied cached run differs from uncached:\n--- uncached ---\n%s--- cached ---\n%s\n%s",
					p.Seed, lvl, want2, got, p.Source)
			}
		}
	}

	// The warm runs must actually have been served from the cache: the
	// second RunWith of every (program, level) pair hits the assembled
	// Analysis cache, and the varied-options runs hit the sim cache
	// underneath a fresh analysis.
	if st := caches.Analysis.Stats(); st.Hits == 0 || st.Misses == 0 {
		t.Errorf("analysis cache saw no reuse: %+v", st)
	}
	if st := caches.Sim.Stats(); st.Hits == 0 {
		t.Errorf("sim cache recorded no hits: %+v", st)
	}
}

// TestCachedRunCrossLevelIsolation compiles the same program at -O2 and
// -O3 into one shared cache and checks the keys do not collide: each
// level's cached result must match its own uncached baseline even after
// the other level populated the cache.
func TestCachedRunCrossLevelIsolation(t *testing.T) {
	cfg := DefaultConfig()
	opts := core.DefaultOptions()
	for seed := int64(0); seed < 6; seed++ {
		p := Generate(seed*37+1, cfg)
		caches := core.NewCaches()
		base := map[int]string{}
		for lvl := 2; lvl <= 3; lvl++ {
			img, err := mcc.Compile(p.Source, mcc.Options{OptLevel: lvl})
			if err != nil {
				t.Fatalf("seed %d O%d: %v", p.Seed, lvl, err)
			}
			rep, err := core.Run(img, opts)
			if err != nil {
				t.Fatalf("seed %d O%d: %v", p.Seed, lvl, err)
			}
			base[lvl] = reportFingerprint(rep)
			if _, err := core.RunWith(img, opts, caches); err != nil {
				t.Fatalf("seed %d O%d: %v", p.Seed, lvl, err)
			}
		}
		// Second pass in reverse order: every stage is now warm for both
		// levels; results must still match the per-level baselines.
		for lvl := 3; lvl >= 2; lvl-- {
			img, err := mcc.Compile(p.Source, mcc.Options{OptLevel: lvl})
			if err != nil {
				t.Fatalf("seed %d O%d: %v", p.Seed, lvl, err)
			}
			rep, err := core.RunWith(img, opts, caches)
			if err != nil {
				t.Fatalf("seed %d O%d: %v", p.Seed, lvl, err)
			}
			if got := reportFingerprint(rep); got != base[lvl] {
				t.Fatalf("seed %d: warm O%d report took another level's cache entries:\n--- want ---\n%s--- got ---\n%s",
					p.Seed, lvl, base[lvl], got)
			}
		}
	}
}
