package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// TestSelectionOutOfRange: a -table or -figure the evaluation does not
// have is a usage error that names the valid values, and nothing runs;
// so are a negative -corpus, a -corpus-out with no corpus to write, and
// -debug-addr (experiments serves no HTTP).
func TestSelectionOutOfRange(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "s.json")
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-table", "99"}, "-table 99: valid values are 1, 2, 3, 4"},
		{[]string{"-table", "-1"}, "-table -1: valid values are 1, 2, 3, 4"},
		{[]string{"-figure", "2"}, "-figure 2: valid values are 1"},
		{[]string{"-corpus", "-5"}, "-corpus -5: "},
		{[]string{"-corpus-out", outPath}, "-corpus-out " + outPath + ": needs -corpus"},
		{[]string{"-debug-addr", ":6060"}, "flag provided but not defined: -debug-addr"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc.args, code)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q, want nothing", tc.args, stdout.String())
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr %q, want it to contain %q", tc.args, stderr.String(), tc.want)
		}
	}
	if _, err := os.Stat(outPath); !os.IsNotExist(err) {
		t.Errorf("-corpus-out without -corpus wrote %s (stat: %v)", outPath, err)
	}
}

// TestManifestRecordsEffectiveWorkers: -j 0 and a negative -j run on
// GOMAXPROCS workers, and the manifest says so.
func TestManifestRecordsEffectiveWorkers(t *testing.T) {
	for _, j := range []string{"0", "-3"} {
		path := filepath.Join(t.TempDir(), "m.json")
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-j", j, "-table", "4", "-manifest", path}, &stdout, &stderr); code != 0 {
			t.Fatalf("-j %s: exit %d, stderr %s", j, code, stderr.String())
		}
		if !strings.HasPrefix(stdout.String(), "T4 ") {
			t.Errorf("-j %s: stdout %q lacks table 4", j, stdout.String())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var m struct{ Workers int }
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		if want := runtime.GOMAXPROCS(0); m.Workers != want {
			t.Errorf("-j %s: manifest workers %d, want %d", j, m.Workers, want)
		}
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/experiments_golden.txt from the current run")

const goldenPath = "testdata/experiments_golden.txt"

// partitionTime matches A1's measured wall-clock partition times, the
// only part of the default output that varies from run to run.
var partitionTime = regexp.MustCompile(`partition time \S+`)

// TestDefaultOutputGolden pins everything a bare `experiments` prints —
// T1–T4, F1, A1, A2 and E1 — byte for byte, with A1's partition times
// masked, at GOMAXPROCS workers, serially and on 8 workers. Regenerate
// with -update only for a change meant to move a figure.
func TestDefaultOutputGolden(t *testing.T) {
	for _, args := range [][]string{nil, {"-j", "1"}, {"-j", "8"}} {
		checkGolden(t, args)
	}
}

// checkGolden runs experiments with args and compares its masked output
// with the golden file (or, under -update, rewrites the file).
func checkGolden(t *testing.T, args []string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit %d, stderr %s", args, code, stderr.String())
	}
	got := partitionTime.ReplaceAllString(stdout.String(), "partition time <masked>")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run `go test ./cmd/experiments -run TestDefaultOutputGolden -update` to create it)", err)
	}
	if got != string(want) {
		t.Errorf("%v: default output drifted from %s (re-run with -update if intended):\n--- golden ---\n%s--- got ---\n%s", args, goldenPath, want, got)
	}
}
