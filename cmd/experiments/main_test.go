package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestSelectionOutOfRange: a -table or -figure the evaluation does not
// have is a usage error that names the valid values, and nothing runs.
func TestSelectionOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-table", "99"}, "-table 99: valid values are 1, 2, 3, 4"},
		{[]string{"-table", "-1"}, "-table -1: valid values are 1, 2, 3, 4"},
		{[]string{"-figure", "2"}, "-figure 2: valid values are 1"},
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
