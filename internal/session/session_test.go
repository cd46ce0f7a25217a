package session

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"binpart/internal/bench"
	"binpart/internal/core"
	"binpart/internal/obs"
)

// compileCRC compiles crc -O1 through the session's compile cache. With
// span set the lookup records its compile span, as the pipeline does, and
// the image is analyzed under the same scope; without it the lookup is
// invisible to the recorder.
func compileCRC(t *testing.T, s *Session, span bool) {
	t.Helper()
	b, ok := bench.ByName("crc")
	if !ok {
		t.Fatal("crc benchmark missing")
	}
	if !span {
		if _, err := b.CompileCached(1, s.Caches.Compile); err != nil {
			t.Fatal(err)
		}
		return
	}
	sc := s.Rec.Scope(b.Name, 1, 0)
	img, err := core.Compile(b, 1, s.Caches, sc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.AnalyzeScoped(img, core.DefaultOptions(), s.Caches, sc); err != nil {
		t.Fatal(err)
	}
}

func readManifest(t *testing.T, path string) obs.Manifest {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("manifest: %v", err)
	}
	return m
}

// readTrace decompresses a .jsonl.gz trace to EOF and returns its meta
// lines in order (span lines appear as "").
func readTrace(t *testing.T, path string) []obs.TraceMeta {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	var lines []obs.TraceMeta
	sc := bufio.NewScanner(gz)
	for sc.Scan() {
		var m obs.TraceMeta
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("bad trace line %q: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("trace does not read to EOF: %v", err)
	}
	return lines
}

// TestSessionLifecycle drives Open, the interrupt hook the signal watch
// calls, and Close through an interrupted run and a run whose spans do
// not reconcile.
func TestSessionLifecycle(t *testing.T) {
	cases := []struct {
		name  string
		args  []string // {dir} is replaced by a fresh directory
		run   func(t *testing.T, s *Session)
		check func(t *testing.T, dir string, s *Session, err error, stderr string)
	}{
		{
			name: "interrupted",
			args: []string{"-trace", "{dir}/t.jsonl.gz", "-manifest", "{dir}/m.json", "-stats"},
			run: func(t *testing.T, s *Session) {
				compileCRC(t, s, true)
				s.interrupt(syscall.SIGINT)
				<-s.Interrupted()
			},
			check: func(t *testing.T, dir string, s *Session, closeErr error, stderr string) {
				if closeErr != nil {
					t.Fatalf("Close: %v", closeErr)
				}
				lines := readTrace(t, filepath.Join(dir, "t.jsonl.gz"))
				if len(lines) < 3 {
					t.Fatalf("trace has %d lines, want header, spans and trailer", len(lines))
				}
				first, last := lines[0], lines[len(lines)-1]
				if first.Meta != obs.MetaTrace || last.Meta != obs.MetaCaches {
					t.Errorf("trace runs %q .. %q, want %q .. %q", first.Meta, last.Meta, obs.MetaTrace, obs.MetaCaches)
				}
				m := readManifest(t, filepath.Join(dir, "m.json"))
				if !m.Interrupted || m.Trace == "" || m.Trace != first.Trace {
					t.Errorf("manifest interrupted=%v trace %q, header trace %q", m.Interrupted, m.Trace, first.Trace)
				}
				if !strings.Contains(stderr, "obs    stage") || !strings.Contains(stderr, "cache  stage") {
					t.Errorf("-stats tables missing from stderr:\n%s", stderr)
				}
				if code := s.ExitCode(false); code != 130 {
					t.Errorf("ExitCode = %d, want 130", code)
				}
			},
		},
		{
			name: "span-less lookup",
			args: []string{"-manifest", "{dir}/m.json"},
			run: func(t *testing.T, s *Session) {
				compileCRC(t, s, true)
				compileCRC(t, s, false)
			},
			check: func(t *testing.T, dir string, s *Session, closeErr error, _ string) {
				if closeErr == nil || !strings.Contains(closeErr.Error(), "compile: span hits 0 != cache hits 1") {
					t.Errorf("Close = %v, want the compile reconcile error", closeErr)
				}
				if m := readManifest(t, filepath.Join(dir, "m.json")); !m.Interrupted {
					t.Error("manifest of an unreconciled run is not marked interrupted")
				}
				if code := s.ExitCode(closeErr != nil); code != 1 {
					t.Errorf("ExitCode = %d, want 1", code)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			sf := Register(fs)
			args := make([]string, len(tc.args))
			for i, a := range tc.args {
				args[i] = strings.ReplaceAll(a, "{dir}", dir)
			}
			if err := fs.Parse(args); err != nil {
				t.Fatal(err)
			}
			var stderr bytes.Buffer
			s, err := sf.Open(Config{Tool: "test", Args: args, Workers: 1, Stderr: &stderr})
			if err != nil {
				t.Fatal(err)
			}
			tc.run(t, s)
			closeErr := s.Close(s.Signal() != nil)
			tc.check(t, dir, s, closeErr, stderr.String())
		})
	}
}
