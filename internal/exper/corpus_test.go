package exper

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"binpart/internal/core"
)

// TestCorpusDifferentialClean runs a slice of the generated-program
// corpus and requires it clean: every program recovered, no report-vs-
// reference or cold-vs-warm divergence, and every switch shape present.
func TestCorpusDifferentialClean(t *testing.T) {
	n := 80
	if testing.Short() {
		n = 24
	}
	r := NewRunner(8, core.NewCaches())
	c, err := r.Corpus(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Points) != n {
		t.Fatalf("%d points, want %d", len(c.Points), n)
	}
	s := c.Summary()
	if len(s.Mismatches) != 0 {
		t.Errorf("differential mismatches: %v", s.Mismatches)
	}
	if s.RecoveryRate < 0.99 {
		t.Errorf("recovery rate %.3f below 0.99 (failures: %v)", s.RecoveryRate, s.Failures)
	}
	if s.SwitchPrograms == 0 {
		t.Error("no switch-shaped programs in the corpus")
	}
	if s.Accelerated == 0 {
		t.Error("no corpus program accelerated; speedup distribution is vacuous")
	}
	for _, want := range []string{"F2", "recovery:", "speedup distribution", "mean speedup"} {
		if out := c.Format(); !strings.Contains(out, want) {
			t.Errorf("corpus format missing %q", want)
		}
	}
}

// TestCorpusParallelMatchesSerial pins the executor contract for the
// corpus: an 8-worker cached run formats byte-identically to a serial
// cacheless run (PartitionTime and Design pointers are excluded from
// every observable).
func TestCorpusParallelMatchesSerial(t *testing.T) {
	n := 32
	if testing.Short() {
		n = 12
	}
	serial, err := (&Runner{Workers: 1}).Corpus(n, 5)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewRunner(8, core.NewCaches()).Corpus(n, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := parallel.Format(), serial.Format(); got != want {
		t.Errorf("parallel cached corpus differs from serial:\n--- serial ---\n%s--- parallel ---\n%s", want, got)
	}
}

// TestCorpusSummaryArtifact checks the JSON artifact round-trips.
func TestCorpusSummaryArtifact(t *testing.T) {
	r := NewRunner(4, core.NewCaches())
	c, err := r.Corpus(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corpus.json")
	if err := c.WriteSummary(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var s CorpusSummary
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if s.Programs != 8 || s.Recovered != c.Summary().Recovered {
		t.Errorf("artifact %+v does not match summary %+v", s, c.Summary())
	}
}

// TestCorpusRefSimCached checks the reference-oracle caching: a second
// corpus run over one cache set must serve every reference simulation
// from the sim cache instead of re-running the slow reference stepper.
func TestCorpusRefSimCached(t *testing.T) {
	caches := core.NewCaches()
	r := &Runner{Workers: 2, Caches: caches}
	const n = 4
	if _, err := r.Corpus(n, 1); err != nil {
		t.Fatal(err)
	}
	before := caches.Sim.Stats()
	if _, err := r.Corpus(n, 1); err != nil {
		t.Fatal(err)
	}
	after := caches.Sim.Stats()
	if after.Misses != before.Misses {
		t.Errorf("second corpus run recomputed %d sims", after.Misses-before.Misses)
	}
	if after.Hits <= before.Hits {
		t.Errorf("second corpus run had no sim cache hits: %+v -> %+v", before, after)
	}
}
