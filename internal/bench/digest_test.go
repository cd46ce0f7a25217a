package bench_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"os"
	"strings"
	"testing"

	"binpart/internal/bench"
	"binpart/internal/mcc"
	"binpart/internal/progen"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/compile_digests.txt from the current compiler")

const digestFile = "testdata/compile_digests.txt"

// digestSeeds is how many progen seeds (1..digestSeeds) each upload
// configuration contributes.
const digestSeeds = 240

// uploadConfigs are the four progen configurations perfbench draws its
// upload corpus from.
var uploadConfigs = []struct {
	name string
	cfg  progen.Config
}{
	{"default", progen.DefaultConfig()},
	{"switch", progen.SwitchConfig()},
	{"straightline", progen.StraightlineConfig()},
	{"branchy", progen.BranchyConfig()},
}

// imageDigest compiles src at the level and returns the SHA-256 of the
// marshalled SBF image.
func imageDigest(t *testing.T, name, src string, level int) [sha256.Size]byte {
	t.Helper()
	img, err := mcc.Compile(src, mcc.Options{OptLevel: level})
	if err != nil {
		t.Fatalf("%s -O%d: %v", name, level, err)
	}
	data, err := img.Marshal()
	if err != nil {
		t.Fatalf("%s -O%d: marshal: %v", name, level, err)
	}
	return sha256.Sum256(data)
}

// compileDigests returns one line per digest: the SHA-256 of every suite
// image at O0–O3, and per progen configuration and level the SHA-256
// over the concatenated image digests of seeds 1..digestSeeds.
func compileDigests(t *testing.T) []string {
	var lines []string
	for _, bm := range bench.All() {
		for level := 0; level <= mcc.MaxOptLevel; level++ {
			d := imageDigest(t, bm.Name, bm.Source, level)
			lines = append(lines, fmt.Sprintf("suite/%s O%d %s", bm.Name, level, hex.EncodeToString(d[:])))
		}
	}
	for _, uc := range uploadConfigs {
		var groups [mcc.MaxOptLevel + 1]hash.Hash
		for level := range groups {
			groups[level] = sha256.New()
		}
		for seed := int64(1); seed <= digestSeeds; seed++ {
			p := progen.Generate(seed, uc.cfg)
			name := fmt.Sprintf("progen/%s/%d", uc.name, seed)
			for level := range groups {
				d := imageDigest(t, name, p.Source, level)
				groups[level].Write(d[:])
			}
		}
		for level, h := range groups {
			lines = append(lines, fmt.Sprintf("progen/%s/1-%d O%d %s", uc.name, digestSeeds, level, hex.EncodeToString(h.Sum(nil))))
		}
	}
	return lines
}

// TestCompileDigests pins the compiler's output byte for byte: any change
// to an emitted SBF image, for the suite or the progen upload corpus,
// fails here. Regenerate with -update only for a change that means to
// alter the code mcc emits.
func TestCompileDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles 3,920 programs")
	}
	got := compileDigests(t)
	if *updateDigests {
		if err := os.WriteFile(digestFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(digestFile)
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
		t.Fatalf("%d digests, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("digest drift:\n got %s\nwant %s", got[i], want[i])
		}
	}
}
