package ir

import (
	"math/rand"
	"slices"
	"testing"
)

// randomCFG builds a random function-shaped CFG: entry block 0, random
// forward and backward edges, every block reachable (unreachable ones are
// fine for the algorithms but make the brute-force oracle trivial).
func randomCFG(r *rand.Rand, n int) *Func {
	blocks := make([]*Block, n)
	for i := range blocks {
		blocks[i] = &Block{Index: i, Start: uint32(0x1000 + 16*i)}
	}
	f := &Func{Blocks: blocks}
	addEdge := func(a, b int) {
		for _, s := range blocks[a].Succs {
			if s.Index == b {
				return
			}
		}
		blocks[a].Succs = append(blocks[a].Succs, blocks[b])
		blocks[b].Preds = append(blocks[b].Preds, blocks[a])
	}
	// Spanning path guarantees reachability.
	for i := 1; i < n; i++ {
		addEdge(r.Intn(i), i)
	}
	// Extra random edges (including back edges).
	for k := 0; k < n; k++ {
		addEdge(r.Intn(n), r.Intn(n))
	}
	return f
}

// reachableWithout computes which blocks are reachable from entry when
// block `cut` is removed (-1 = no cut).
func reachableWithout(f *Func, cut int) []bool { return reachFrom(f, 0, cut) }

// reachFrom computes which blocks are reachable from block from when
// block cut is removed (-1 = no cut); none are when from is cut.
func reachFrom(f *Func, from, cut int) []bool {
	seen := make([]bool, len(f.Blocks))
	var dfs func(b *Block)
	dfs = func(b *Block) {
		if seen[b.Index] || b.Index == cut {
			return
		}
		seen[b.Index] = true
		for _, s := range b.Succs {
			dfs(s)
		}
	}
	dfs(f.Blocks[from])
	return seen
}

// bruteDominators returns dom[a][b], a dominates b by the definition:
// b is reachable from the entry, but not once a is removed (or a == b).
// base reports which blocks the entry reaches.
func bruteDominators(f *Func) (dom [][]bool, base []bool) {
	n := len(f.Blocks)
	dom = make([][]bool, n)
	base = reachableWithout(f, -1)
	for a := 0; a < n; a++ {
		without := reachableWithout(f, a)
		dom[a] = make([]bool, n)
		for b := 0; b < n; b++ {
			dom[a][b] = a == b || (base[b] && !without[b])
		}
	}
	return dom, base
}

// TestDominatorsAgainstBruteForce checks the iterative dominator algorithm
// against the definition: a dominates b iff removing a from the graph
// makes b unreachable from the entry.
func TestDominatorsAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 150; trial++ {
		n := 2 + r.Intn(10)
		f := randomCFG(r, n)
		idom := idomOf(f)
		dom, base := bruteDominators(f)

		for b := 1; b < n; b++ {
			if !base[b] {
				continue
			}
			// The computed idom must dominate b.
			ib := idom[b]
			if ib < 0 || !dom[ib][b] {
				t.Fatalf("trial %d: idom[%d] = %d does not dominate", trial, b, ib)
			}
			// Immediacy: every strict dominator of b (other than b) must
			// dominate idom[b].
			for a := 0; a < n; a++ {
				if a == b || !dom[a][b] {
					continue
				}
				if a != ib && !dom[a][ib] {
					t.Fatalf("trial %d: %d dominates %d but not idom %d", trial, a, b, ib)
				}
			}
			// Dominates() must agree with the brute force for all pairs.
			for a := 0; a < n; a++ {
				if base[b] && base[a] {
					got := Dominates(idom, a, b)
					if got != dom[a][b] {
						t.Fatalf("trial %d: Dominates(%d,%d) = %v, brute force %v",
							trial, a, b, got, dom[a][b])
					}
				}
			}
		}
	}
}

// reachesExitWithout computes which blocks reach an exit (a block
// without successors) when block cut is removed (-1 = no cut).
func reachesExitWithout(f *Func, cut int) []bool {
	seen := make([]bool, len(f.Blocks))
	var dfs func(b *Block)
	dfs = func(b *Block) {
		if seen[b.Index] || b.Index == cut {
			return
		}
		seen[b.Index] = true
		for _, p := range b.Preds {
			dfs(p)
		}
	}
	for _, b := range f.Blocks {
		if len(b.Succs) == 0 {
			dfs(b)
		}
	}
	return seen
}

// TestPostDominatorsAgainstBruteForce checks the immediate
// postdominators against the definition: ipdom[x] is the nearest block
// that every path from x to an exit passes through, or -1 when there is
// none or x reaches no exit. m lies on every such path iff x reaches an
// exit but no longer does once m is removed.
func TestPostDominatorsAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for trial := 0; trial < 3000; trial++ {
		n := 2 + r.Intn(10)
		f := randomCFG(r, n)
		sc := loopScratches.Get()
		ipdom := slices.Clone(sc.postDominators(f))
		sc.release()

		// pdom[m][x]: m strictly postdominates x.
		base := reachesExitWithout(f, -1)
		pdom := make([][]bool, n)
		for m := range n {
			without := reachesExitWithout(f, m)
			pdom[m] = make([]bool, n)
			for x := range n {
				pdom[m][x] = m != x && base[x] && !without[x]
			}
		}
		for x := range n {
			// The strict postdominators of x form a chain; the nearest
			// is the one every other postdominates.
			want := -1
			for m := range n {
				nearest := pdom[m][x]
				for a := range n {
					if a != m && pdom[a][x] && !pdom[a][m] {
						nearest = false
					}
				}
				if nearest {
					want = m
				}
			}
			if ipdom[x] != want {
				t.Fatalf("trial %d: ipdom[%d] = %d, brute force %d", trial, x, ipdom[x], want)
			}
		}
	}
}

// TestFindLoopsProperties checks natural-loop invariants on random CFGs
// against a brute force over the brute-force dominator sets. A back edge
// is an edge b -> h from a reachable b that h dominates. Each header of
// one gets exactly one loop, whose latch is the source of its first back
// edge in block order and whose body, in strictly increasing block index,
// is h plus every block that reaches a back-edge source into h without
// passing through h.
func TestFindLoopsProperties(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for trial := 0; trial < 150; trial++ {
		f := randomCFG(r, 2+r.Intn(10))
		n := len(f.Blocks)
		dom, base := bruteDominators(f)
		latch := make([]int, n) // by header: first back-edge source, or -1
		for h := range latch {
			latch[h] = -1
		}
		sources := make([][]int, n) // by header: every back-edge source
		for _, b := range f.Blocks {
			for _, h := range b.Succs {
				if base[b.Index] && dom[h.Index][b.Index] {
					if latch[h.Index] < 0 {
						latch[h.Index] = b.Index
					}
					sources[h.Index] = append(sources[h.Index], b.Index)
				}
			}
		}
		found := make([]bool, n)
		for _, l := range FindLoops(f) {
			h := l.Header.Index
			if found[h] || latch[h] < 0 {
				t.Fatalf("trial %d: loop at b%d duplicated or without a back edge", trial, h)
			}
			found[h] = true
			if l.Latch.Index != latch[h] {
				t.Fatalf("trial %d: loop b%d latch b%d, want b%d", trial, h, l.Latch.Index, latch[h])
			}
			var want, got []int
			for x := 0; x < n; x++ {
				in := x == h
				for _, b := range sources[h] {
					in = in || reachFrom(f, x, h)[b]
				}
				if in {
					want = append(want, x)
				}
				if l.Contains(x) != in {
					t.Fatalf("trial %d: loop b%d Contains(%d) = %v, brute force %v", trial, h, x, !in, in)
				}
			}
			for i, b := range l.Blocks {
				if i > 0 && b.Index <= l.Blocks[i-1].Index {
					t.Fatalf("trial %d: loop b%d body not in strictly increasing index order", trial, h)
				}
				got = append(got, b.Index)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("trial %d: loop b%d body %v, brute force %v", trial, h, got, want)
			}
			for _, e := range l.Exits {
				if !l.Contains(e.From.Index) || l.Contains(e.To.Index) {
					t.Fatalf("trial %d: bad exit edge %d->%d", trial, e.From.Index, e.To.Index)
				}
			}
			if l.Parent != nil && !l.Parent.Contains(l.Header.Index) {
				t.Fatalf("trial %d: parent does not contain child header", trial)
			}
		}
		for h := range found {
			if latch[h] >= 0 && !found[h] {
				t.Fatalf("trial %d: no loop for back edges into b%d", trial, h)
			}
		}
	}
}
