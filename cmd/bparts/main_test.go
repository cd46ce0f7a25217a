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
