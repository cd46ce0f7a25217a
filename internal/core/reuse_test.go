package core

import (
	"fmt"
	"testing"

	"binpart/internal/binimg"
	"binpart/internal/mcc"
	"binpart/internal/progen"
	"binpart/internal/vhdl"
)

// TestReuseIsInvisible analyzes upload A, then a different upload B,
// then A again. Every stage takes its working memory from a free list,
// so the second analysis of A runs on workspaces B left behind; its
// report (with the recovered structure) and its VHDL must be byte for
// byte those of A's first analysis.
func TestReuseIsInvisible(t *testing.T) {
	compile := func(seed int64, cfg progen.Config, level int) []byte {
		img, err := mcc.Compile(progen.Generate(seed, cfg).Source, mcc.Options{OptLevel: level})
		if err != nil {
			t.Fatal(err)
		}
		data, err := img.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	uploadA := compile(4, progen.SwitchConfig(), 2)
	uploadB := compile(5, progen.BranchyConfig(), 0)

	// analyze runs the uncached flow on a fresh copy of an upload and
	// renders everything the report and its hardware say.
	analyze := func(upload []byte) string {
		img, err := binimg.Unmarshal(upload)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Run(img, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.SelectedRegions()) == 0 {
			t.Fatal("no region selected: the test needs hardware to compare")
		}
		rep.PartitionTime = 0 // measured wall time, the one field that may differ
		out := RenderReport(rep, true)
		for _, r := range rep.SelectedRegions() {
			text, err := vhdl.Emit(r.Design)
			if err != nil {
				t.Fatal(err)
			}
			out += fmt.Sprintf("-- %s\n%s", r.Name, text)
		}
		return out
	}
	first := analyze(uploadA)
	if other := analyze(uploadB); other == first {
		t.Fatal("uploads A and B analyze identically; pick different programs")
	}
	if again := analyze(uploadA); again != first {
		t.Errorf("A's analysis after B differs from its first analysis:\nfirst:\n%s\nagain:\n%s", first, again)
	}
}
