package obs

import (
	"io"
	"sort"

	"binpart/internal/cache"
	"binpart/internal/obs/hist"
)

// MetricsSources is what WriteMetrics reads: the live recorder and the
// per-stage cache counters. Either field may be nil — the corresponding
// metrics are simply absent.
type MetricsSources struct {
	Rec    *Recorder
	Caches func() map[string]cache.Stats
}

// WriteMetrics renders the sweep-side metrics in the Prometheus text
// exposition format: per-stage span counters, cache-outcome counters
// and latency summaries, and the per-cache counters.
func WriteMetrics(w io.Writer, src MetricsSources) {
	p := hist.NewProm(w)
	totals := src.Rec.StageTotals()
	for _, st := range totals {
		p.Counter("binpart_stage_spans_total", hist.Label("stage", st.Stage), float64(st.Spans))
	}
	for _, st := range totals {
		p.Counter("binpart_stage_wall_seconds_total", hist.Label("stage", st.Stage), float64(st.WallUS)/1e6)
	}
	for _, st := range totals {
		stage := hist.Label("stage", st.Stage)
		for _, oc := range []struct {
			name string
			n    uint64
		}{
			{"hit", st.Hit}, {"miss", st.Miss}, {"wait", st.Wait},
		} {
			if oc.n > 0 {
				p.Counter("binpart_stage_cache_outcomes_total",
					hist.Labels(stage, hist.Label("outcome", oc.name)), float64(oc.n))
			}
		}
	}
	for _, st := range totals {
		p.Summary("binpart_stage_latency_seconds", hist.Label("stage", st.Stage), st.Latency)
	}
	if src.Caches != nil {
		stats := src.Caches()
		names := sortedKeys(stats)
		// Group by family, not by cache: the exposition format wants
		// every sample of one family contiguous.
		for _, name := range names {
			p.Counter("binpart_cache_hits_total", hist.Label("cache", name), float64(stats[name].Hits))
		}
		for _, name := range names {
			p.Counter("binpart_cache_misses_total", hist.Label("cache", name), float64(stats[name].Misses))
		}
		for _, name := range names {
			p.Counter("binpart_cache_evictions_total", hist.Label("cache", name), float64(stats[name].Evictions))
		}
		for _, name := range names {
			p.Gauge("binpart_cache_entries", hist.Label("cache", name), float64(stats[name].Entries))
		}
	}
}

// sortedKeys orders a string-keyed map for deterministic exposition.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
