package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"binpart/internal/bench"
	"binpart/internal/core"
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

// TestFlagsMatchJSON checks that bparts' flags and a bpartd JSON body
// naming the same choices produce equal options and the same sweep.
// bpartd's default flags select core.DefaultOptions' platform and
// algorithm, so that is the base on both sides.
func TestFlagsMatchJSON(t *testing.T) {
	for _, tc := range []struct {
		args []string
		body string
	}{
		{nil, `{}`},
		{[]string{"-mhz", "400", "-device", "XC2V1000", "-alg", "greedy"}, `{"mhz":400,"device":"XC2V1000","alg":"greedy"}`},
		{[]string{"-device", "XC2V40"}, `{"device":"XC2V40"}`},
		{[]string{"-whole", "-jumptables=false"}, `{"whole":true,"jumptables":false}`},
		{[]string{"-sweep", "devices", "-alg", "gclp"}, `{"sweep":"devices","alg":"gclp"}`},
		{[]string{"-sweep", "clocks", "-clocks", "40,300"}, `{"sweep":"clocks","clocks":[40,300]}`},
	} {
		fs := flag.NewFlagSet("bparts", flag.ContinueOnError)
		flags := requestFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		var wire core.Request
		if err := json.Unmarshal([]byte(tc.body), &wire); err != nil {
			t.Fatalf("%s: %v", tc.body, err)
		}
		fromFlags, err := flags.Options(core.DefaultOptions())
		if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		fromJSON, err := wire.Options(core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", tc.body, err)
		}
		if !reflect.DeepEqual(fromFlags, fromJSON) {
			t.Errorf("%v and %s give different options:\n%+v\n%+v", tc.args, tc.body, fromFlags, fromJSON)
		}
		if flags.Sweep != wire.Sweep || !reflect.DeepEqual(flags.Clocks, wire.Clocks) {
			t.Errorf("%v and %s give different sweeps: %q %v, %q %v", tc.args, tc.body, flags.Sweep, flags.Clocks, wire.Sweep, wire.Clocks)
		}
	}
}

// TestVHDLLinesInSelectionOrder renders crc -O1, which selects several
// regions, with -vhdl several times: every run must print the same
// bytes, with each region's entity and testbench "wrote" lines in
// selection order. Only the measured partition time may differ.
func TestVHDLLinesInSelectionOrder(t *testing.T) {
	partitionTime := regexp.MustCompile(`partition \(([^,]+), [^)]+\)`)
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
	sbf := filepath.Join(dir, "crc.sbf")
	if err := os.WriteFile(sbf, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := core.Run(img, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	vhdlDir := filepath.Join(dir, "vhdl")
	var want []string
	for _, r := range rep.SelectedRegions() {
		want = append(want, "wrote "+filepath.Join(vhdlDir, r.Name+".vhd"), "wrote "+filepath.Join(vhdlDir, r.Name+"_tb.vhd"))
	}
	if len(want) < 4 {
		t.Fatalf("crc -O1 selects %d regions, want at least 2 to order", len(want)/2)
	}

	var first string
	for i := 0; i < 8; i++ {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-j", "1", "-vhdl", vhdlDir, sbf}, &stdout, &stderr); code != 0 {
			t.Fatalf("exit %d; stderr: %s", code, stderr.String())
		}
		out := partitionTime.ReplaceAllString(stdout.String(), "partition ($1)")
		if i == 0 {
			first = out
			var got []string
			for _, line := range strings.Split(first, "\n") {
				if strings.HasPrefix(line, "wrote ") {
					got = append(got, line)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("wrote lines:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		} else if out != first {
			t.Fatalf("run %d printed differently from run 0:\n%s\nvs\n%s", i, out, first)
		}
	}
}
