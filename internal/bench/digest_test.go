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

// compileJob is one compile whose image digest the pinned file covers.
type compileJob struct {
	name, src string
	level     int
}

// compileJobs lists every suite program at O0–O3, then per progen
// configuration seeds 1..digestSeeds, each at O0–O3.
func compileJobs() []compileJob {
	var jobs []compileJob
	for _, bm := range bench.All() {
		for level := 0; level <= mcc.MaxOptLevel; level++ {
			jobs = append(jobs, compileJob{bm.Name, bm.Source, level})
		}
	}
	for _, uc := range uploadConfigs {
		for seed := int64(1); seed <= digestSeeds; seed++ {
			p := progen.Generate(seed, uc.cfg)
			for level := 0; level <= mcc.MaxOptLevel; level++ {
				jobs = append(jobs, compileJob{fmt.Sprintf("progen/%s/%d", uc.name, seed), p.Source, level})
			}
		}
	}
	return jobs
}

// compileDigests returns one line per digest: the SHA-256 of every suite
// image at O0–O3, and per progen configuration and level the SHA-256
// over the concatenated image digests of seeds 1..digestSeeds. reverse
// compiles the jobs last to first; the lines do not depend on the order.
func compileDigests(t *testing.T, reverse bool) []string {
	jobs := compileJobs()
	digests := make([][sha256.Size]byte, len(jobs))
	for k := range jobs {
		i := k
		if reverse {
			i = len(jobs) - 1 - k
		}
		digests[i] = imageDigest(t, jobs[i].name, jobs[i].src, jobs[i].level)
	}
	var lines []string
	next := 0
	for _, bm := range bench.All() {
		for level := 0; level <= mcc.MaxOptLevel; level++ {
			lines = append(lines, fmt.Sprintf("suite/%s O%d %s", bm.Name, level, hex.EncodeToString(digests[next][:])))
			next++
		}
	}
	for _, uc := range uploadConfigs {
		var groups [mcc.MaxOptLevel + 1]hash.Hash
		for level := range groups {
			groups[level] = sha256.New()
		}
		for seed := int64(1); seed <= digestSeeds; seed++ {
			for level := range groups {
				groups[level].Write(digests[next][:])
				next++
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
// fails here, whether the compiler runs on fresh or reused working
// memory. Regenerate with -update only for a change that means to alter
// the code mcc emits.
func TestCompileDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles 3,920 programs")
	}
	got := compileDigests(t, false)
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
	// The compiler reuses its working memory from compile to compile, so
	// compile everything again, last to first, on the workspaces the
	// first pass left warm: reuse must not move a byte.
	for i, line := range compileDigests(t, true) {
		if line != want[i] {
			t.Errorf("digest drift on warm workspaces, reverse order:\n got %s\nwant %s", line, want[i])
		}
	}
}
