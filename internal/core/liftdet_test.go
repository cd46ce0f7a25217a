package core

import (
	"testing"

	"binpart/internal/bench"
	"binpart/internal/decompile"
	"binpart/internal/dopt"
)

// TestLiftOutlineDeterminism pins bit-identical lift output across
// repeated runs on one image, including the virtual register numbers
// that appear in the recovered-structure outlines. Stack-slot promotion
// once assigned fresh locations in map-iteration order, so a cached
// LiftResult could disagree with a fresh lift on induction variable
// names — caught by the Analyze/monolithic differential test and fixed
// by promoting slots in slot order.
func TestLiftOutlineDeterminism(t *testing.T) {
	b, _ := bench.ByName("engine")
	img, err := b.Compile(3)
	if err != nil {
		t.Fatal(err)
	}
	var first map[string]string
	for i := 0; i < 30; i++ {
		lr, err := computeLift(img, decompile.Options{}, dopt.Config{}, true)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = lr.Outlines
			continue
		}
		for name, o := range lr.Outlines {
			if o != first[name] {
				t.Fatalf("run %d: outline %s differs:\n--- first ---\n%s--- now ---\n%s", i, name, first[name], o)
			}
		}
	}
}
