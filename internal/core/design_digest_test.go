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

var updateDesignDigests = flag.Bool("update", false, "rewrite testdata/design_digests.txt from the current flow")

const designDigestFile = "testdata/design_digests.txt"

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

// TestDesignDigests pins every candidate's cycles, area, clock and VHDL
// byte for byte over the suite at O0–O3 and both granularities: any
// change to a design's schedule, its cost or its emitted RTL fails here.
// Regenerate with -update only for a change that means to alter a
// design.
func TestDesignDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes the suite at four levels and two granularities")
	}
	got := designDigests(t)
	if *updateDesignDigests {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(designDigestFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(designDigestFile)
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
		t.Fatalf("%d candidates, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("design drift:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
