package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"binpart/internal/bench"
	"binpart/internal/obs"
)

// TestFailedInputStillFlushes runs bparts over one good and one corrupt
// binary: the run must exit 1, yet still print the good report and write
// a complete trace (header through cache trailer) and a manifest.
func TestFailedInputStillFlushes(t *testing.T) {
	dir := t.TempDir()
	b, ok := bench.ByName("crc")
	if !ok {
		t.Fatal("crc benchmark missing")
	}
	img, err := b.Compile(1)
	if err != nil {
		t.Fatal(err)
	}
	data, err := img.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	good := filepath.Join(dir, "good.sbf")
	bad := filepath.Join(dir, "bad.sbf")
	if err := os.WriteFile(good, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, []byte("not an sbf image"), 0o644); err != nil {
		t.Fatal(err)
	}

	tracePath := filepath.Join(dir, "t.jsonl")
	manifestPath := filepath.Join(dir, "m.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-trace", tracePath, "-manifest", manifestPath, good, bad}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.HasPrefix(out, "==> "+good+"\n") || !strings.Contains(out, "application speedup:") || strings.Contains(out, bad) {
		t.Errorf("stdout is not the good report alone:\n%s", out)
	}
	if !strings.Contains(stderr.String(), "binimg:") {
		t.Errorf("stderr does not report the corrupt input: %q", stderr.String())
	}

	f, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var metas []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var m obs.TraceMeta
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		if m.Meta != "" {
			metas = append(metas, m.Meta)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(metas, ","); got != obs.MetaTrace+","+obs.MetaCaches {
		t.Errorf("trace meta lines %q, want header then cache trailer", got)
	}

	raw, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("manifest: %v", err)
	}
	if m.Tool != "bparts" || m.Spans == 0 {
		t.Errorf("manifest tool %q spans %d", m.Tool, m.Spans)
	}
}

// TestBadFlagValueIsUsageError checks that an unknown -device, -alg or
// -sweep value is a usage error (exit 2) that names the flag and prints
// nothing on stdout, like an out-of-range clock.
func TestBadFlagValueIsUsageError(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.sbf")
	for _, args := range [][]string{
		{"-device", "nope"},
		{"-alg", "nope"},
		{"-sweep", "nope"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append(args, missing), &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("bparts %v: exit %d, stdout %q, want a usage error (exit 2); stderr: %s",
				args, code, stdout.String(), stderr.String())
		} else if want := "bparts: " + args[0] + ": "; !strings.HasPrefix(stderr.String(), want) || !strings.Contains(stderr.String(), `"nope"`) {
			t.Errorf("bparts %v: stderr %q does not name the flag and its value", args, stderr.String())
		}
	}
}

// TestClockOutOfRangeIsUsageError checks that -mhz and every -clocks
// entry go through platform.CheckMHz: a clock that is not finite or
// lies outside its range is a usage error (exit 2) before any input is
// read, instead of pricing on the default platform or with negative
// times.
func TestClockOutOfRangeIsUsageError(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.sbf")
	for _, args := range [][]string{
		{"-mhz", "0", "-device", "XC2V40"},
		{"-mhz", "-200"},
		{"-mhz", "1e-300"},
		{"-mhz", "NaN"},
		{"-mhz", "Inf"},
		{"-mhz", "20000"},
		{"-sweep", "clocks", "-clocks", "0,200"},
		{"-sweep", "clocks", "-clocks", "200,-Inf"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(append(args, missing), &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("bparts %v: exit %d, stdout %q, want a usage error (exit 2); stderr: %s",
				args, code, stdout.String(), stderr.String())
		} else if !strings.Contains(stderr.String(), "out of range") {
			t.Errorf("bparts %v: stderr %q does not name the range", args, stderr.String())
		}
	}
}
