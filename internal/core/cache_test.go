package core

import (
	"slices"
	"testing"

	"binpart/internal/obs"
)

// TestStageCacheNamesAgree pins the stage caches' three name tables to
// one set: the values of obs.CacheForStage (the caches Reconcile checks
// span outcomes against), the keys of StatsMap (what manifests, -stats
// and /metrics report) and cacheNames (the -stats row order).
// Reconcile skips a stage whose cache is missing from the stats map, so
// a rename or deletion in one table alone would unhook it silently.
func TestStageCacheNamesAgree(t *testing.T) {
	var stages, stats []string
	for _, name := range obs.CacheForStage {
		stages = append(stages, name)
	}
	for name := range NewCaches().StatsMap() {
		stats = append(stats, name)
	}
	rows := slices.Clone(cacheNames)
	for _, s := range [][]string{stages, stats, rows} {
		slices.Sort(s)
	}
	if !slices.Equal(stages, stats) {
		t.Errorf("obs.CacheForStage names caches %v, StatsMap reports %v", stages, stats)
	}
	if !slices.Equal(rows, stats) {
		t.Errorf("cacheNames lists %v, StatsMap reports %v", rows, stats)
	}
}
