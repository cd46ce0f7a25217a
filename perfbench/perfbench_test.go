package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// buildPrograms builds the two programs under test from the enclosing
// repository into a temporary directory.
func buildPrograms(t *testing.T) string {
	t.Helper()
	bin := t.TempDir()
	cmd := exec.Command("go", "build", "-o", bin+string(os.PathSeparator), "./cmd/experiments", "./cmd/bpartd")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build programs: %v\n%s", err, out)
	}
	return bin
}

// runBench runs one short workload and returns its exit code, its whole
// output, and the parsed result line (nil when none was printed).
func runBench(t *testing.T, bin, workload string, trace int, extra ...string) (int, string, *result) {
	t.Helper()
	args := append([]string{
		"-root", "..", "-bin", bin, "-work", t.TempDir(),
		"--workload", workload, "--seed", "7", "--seconds", "1", "--trace", strconv.Itoa(trace),
	}, extra...)
	var out bytes.Buffer
	code, err := benchMain(args, &out)
	if err != nil {
		t.Logf("benchMain: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if json.Unmarshal([]byte(lines[len(lines)-1]), &res) != nil {
		return code, out.String(), nil
	}
	return code, out.String(), &res
}

func TestWorkloadsPrintEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real child processes")
	}
	bin := buildPrograms(t)
	for _, wl := range []string{"tables-cold", "warm-partition", "mixed-upload"} {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			code, out, res := runBench(t, bin, wl, trace)
			if code != 0 || res == nil || !res.Correct {
				t.Fatalf("%s trace=%d: exit %d, output:\n%s", wl, trace, code, out)
			}
			if res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%d: attempted %d, failed %d", wl, trace, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", wl, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %q", wl, trace, d.name, m, d.unit)
				}
				if !strings.Contains(out, "metric "+d.name) {
					t.Errorf("%s trace=%d: log does not print metric %s", wl, trace, d.name)
				}
			}
			// Every latency class is summarised with its sample count.
			if !strings.Contains(out, " n=") {
				t.Errorf("%s trace=%d: no sample counts in the log", wl, trace)
			}
			for _, name := range []string{"setup_s", "wall_s", "req_per_s", "p50_us", "rss_mb"} {
				if trace == 0 && res.Metrics[name].Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", wl, name, res.Metrics[name].Value)
				}
			}
		}
	}
}

func TestTamperedExpectationsFailTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("drives real child processes")
	}
	bin := buildPrograms(t)
	for _, wl := range []string{"tables-cold", "warm-partition", "mixed-upload"} {
		code, out, res := runBench(t, bin, wl, 0, "-tamper")
		if code != 1 || res == nil || res.Correct {
			t.Errorf("%s with tampered expectations: exit %d, want 1 with correct=false; output:\n%s", wl, code, out)
		}
	}
}

func TestRunScriptFailsOutsideACheckout(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "perfbench"), 0o755); err != nil {
		t.Fatal(err)
	}
	script, err := os.ReadFile("run.sh")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "perfbench", "run.sh"), script, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", "tables-cold", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err == nil {
		t.Fatalf("run.sh succeeded without the repository: %s", out)
	}
	if len(bytes.TrimSpace(out)) != 0 {
		t.Errorf("run.sh printed a result without the repository: %s", out)
	}
}

func TestExpectMasksOnlyMeasuredFields(t *testing.T) {
	e := expect{head: []byte(`{"report":"partition (90-10, `), mid: []byte(`):\n  x","elapsed_us":`)}
	for body, want := range map[string]bool{
		`{"report":"partition (90-10, 1.2µs):\n  x","elapsed_us":42}` + "\n":       true,
		`{"report":"partition (90-10, 3ms):\n  x","elapsed_us":7}` + "\n":          true,
		`{"report":"partition (greedy, 1.2µs):\n  x","elapsed_us":42}` + "\n":      false,
		`{"report":"partition (90-10, 1.2µs):\n  y","elapsed_us":42}` + "\n":       false,
		`{"report":"partition (90-10, 1.2µs):\n  x","elapsed_us":42,"z":1}` + "\n": false,
		`{"report":"partition (90-10, 1.2µs):\n  x","elapsed_us":}` + "\n":         false,
	} {
		if got := e.match([]byte(body)); got != want {
			t.Errorf("match(%q) = %v, want %v", body, got, want)
		}
	}
}

func TestQuantileIsNearestRank(t *testing.T) {
	s := newSamples("x", "us")
	for i := 100; i >= 1; i-- {
		s.add(float64(i))
	}
	for q, want := range map[float64]float64{0.5: 50, 0.9: 90, 0.99: 99, 1: 100, 0.001: 1} {
		if got := s.quantile(q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if !supported(90, 100) || supported(99, 100) || !supported(99, 1000) {
		t.Error("supported() disagrees with the ten-samples-beyond rule")
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric catalogues in main.go
// and the declarations in BENCHMARK.json in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		defs []metricDef
		decl []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, decl.EndToEnd}, {"per_layer", perLayer, decl.PerLayer}} {
		if len(c.defs) != len(c.decl) {
			t.Errorf("%s: %d metrics in code, %d in BENCHMARK.json", c.kind, len(c.defs), len(c.decl))
			continue
		}
		for i, d := range c.defs {
			if d.name != c.decl[i].Name || d.unit != c.decl[i].Unit {
				t.Errorf("%s[%d]: code has %s (%s), BENCHMARK.json has %s (%s)", c.kind, i, d.name, d.unit, c.decl[i].Name, c.decl[i].Unit)
			}
		}
	}
	if len(decl.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in code", len(decl.Workloads), len(workloads))
	}
	for _, w := range decl.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
}
