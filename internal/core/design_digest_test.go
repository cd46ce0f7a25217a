package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"binpart/internal/bench"
	"binpart/internal/mcc"
	"binpart/internal/vhdl"
)

var updateDesignDigests = flag.Bool("update", false, "rewrite the digest files under testdata from the current flow")

const (
	designDigestFile    = "testdata/design_digests.txt"
	structureDigestFile = "testdata/structure_digests.txt"
)

// designDigests returns one line per candidate region of every suite
// program at O0–O3, at loop and at function granularity: its name, the
// profile numbers the candidate builder gathered, its hardware cycles,
// gates and clock, and the SHA-256 of its VHDL.
func designDigests(t *testing.T) []string {
	var lines []string
	for _, bm := range bench.All() {
		for level := 0; level <= mcc.MaxOptLevel; level++ {
			img, err := bm.Compile(level)
			if err != nil {
				t.Fatalf("%s -O%d: %v", bm.Name, level, err)
			}
			for _, gran := range []Granularity{GranLoops, GranFunctions} {
				opts := DefaultOptions()
				opts.Granularity = gran
				a, err := Analyze(img, opts)
				if err != nil {
					t.Fatalf("%s -O%d gran %d: %v", bm.Name, level, gran, err)
				}
				for _, rc := range a.Candidates {
					text, err := vhdl.Emit(rc.Design)
					if err != nil {
						t.Fatalf("%s -O%d %s: %v", bm.Name, level, rc.Name, err)
					}
					sum := sha256.Sum256([]byte(text))
					lines = append(lines, fmt.Sprintf("%s O%d g%d %s sw=%d inv=%d size=%d fp=%s hw=%v gates=%d clock=%v vhdl=%s",
						bm.Name, level, gran, rc.Name, rc.SWCycles, rc.Invocations, rc.SizeInstrs,
						strings.Join(rc.Footprint, ","), rc.HWCycles, rc.AreaGates, rc.HWClockNs,
						hex.EncodeToString(sum[:])))
				}
			}
		}
	}
	return lines
}

// structureDigests returns one line per suite program at O0–O3: the
// SHA-256 of the "recovered structure:" section of its structure report
// under the default options.
func structureDigests(t *testing.T) []string {
	var lines []string
	for _, bm := range bench.All() {
		for level := 0; level <= mcc.MaxOptLevel; level++ {
			img, err := bm.Compile(level)
			if err != nil {
				t.Fatalf("%s -O%d: %v", bm.Name, level, err)
			}
			rep, err := Run(img, DefaultOptions())
			if err != nil {
				t.Fatalf("%s -O%d: %v", bm.Name, level, err)
			}
			text := RenderReport(rep, true)
			lo := strings.Index(text, "\nrecovered structure:\n")
			hi := strings.Index(text, "\ncandidate regions:\n")
			if lo < 0 || hi < lo {
				t.Fatalf("%s -O%d: report has no structure section:\n%s", bm.Name, level, text)
			}
			sum := sha256.Sum256([]byte(text[lo:hi]))
			lines = append(lines, fmt.Sprintf("%s O%d structure=%s", bm.Name, level, hex.EncodeToString(sum[:])))
		}
	}
	return lines
}

// checkDigests compares got against the digest file, or rewrites the
// file under -update.
func checkDigests(t *testing.T, file, what string, got []string) {
	t.Helper()
	if *updateDesignDigests {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d %s, want %d", len(got), what, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s drift:\n got %s\nwant %s", what, got[i], want[i])
		}
	}
}

// TestDesignDigests pins every candidate's cycles, area, clock and VHDL
// byte for byte over the suite at O0–O3 and both granularities: any
// change to a design's schedule, its cost or its emitted RTL fails here.
// Regenerate with -update only for a change that means to alter a
// design.
func TestDesignDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes the suite at four levels and two granularities")
	}
	checkDigests(t, designDigestFile, "candidates", designDigests(t))
}

// TestStructureDigests pins the recovered-structure text of every suite
// program at O0–O3 byte for byte: the outlines and inferred signatures a
// structure report prints. The render oracle in render_test.go reads the
// same outlines it checks, so only this catches an outline that drifts.
// Regenerate with -update only for a change that means to alter the
// recovered structure or its rendering.
func TestStructureDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes the suite at four levels")
	}
	checkDigests(t, structureDigestFile, "structure sections", structureDigests(t))
}
