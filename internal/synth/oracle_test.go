package synth

import (
	"binpart/internal/alias"
	"binpart/internal/ir"
)

// This file keeps the map-based dataflow-graph construction and
// recurrence bound that buildDFG and recurrenceII replaced, as test-only
// oracles for the differential tests.

// oracleNode is one operation of an oracle dataflow graph.
type oracleNode struct {
	in     *ir.Instr
	preds  []dep
	succs  []int
	memObj string
}

// buildDFGOracle builds a block's dataflow graph with a map of reaching
// definitions, fetching each earlier memory op's alias reference again
// for every later memory op.
func buildDFGOracle(b *ir.Block, am *alias.Info) []*oracleNode {
	var nodes []*oracleNode
	lastDef := map[ir.Loc]int{}
	var memOps []int

	addDep := func(n *oracleNode, from int, chainable bool) {
		for _, d := range n.preds {
			if d.from == from {
				return
			}
		}
		n.preds = append(n.preds, dep{from: from, chainable: chainable})
		nodes[from].succs = append(nodes[from].succs, len(nodes)-1)
	}

	for i := range b.Instrs {
		in := &b.Instrs[i]
		n := &oracleNode{in: in}
		nodes = append(nodes, n)

		for _, u := range in.Uses() {
			if d, ok := lastDef[u]; ok {
				n.preds = append(n.preds, dep{from: d, chainable: true})
				nodes[d].succs = append(nodes[d].succs, i)
			}
		}
		if in.Op == ir.Load || in.Op == ir.Store {
			if am != nil {
				if r := am.RefOf(in); r.Known {
					n.memObj = r.Sym
				}
			}
			for _, m := range memOps {
				mn := nodes[m]
				if mn.in.Op == ir.Store || in.Op == ir.Store {
					if am == nil || am.RefOf(mn.in).Conflicts(am.RefOf(in)) {
						addDep(n, m, false)
					}
				}
			}
			memOps = append(memOps, i)
		}
		if in.Op == ir.Branch || in.Op == ir.Jump || in.Op == ir.IJump || in.Op == ir.Ret || in.Op == ir.Halt {
			for _, m := range memOps {
				addDep(n, m, false)
			}
		}
		if in.HasDst() {
			lastDef[in.Dst] = i
		}
	}
	return nodes
}

// recurrenceIIOracle is recurrenceII over maps, given each instruction's
// scheduled state.
func recurrenceIIOracle(b *ir.Block, state []int) int {
	written := map[ir.Loc]int{}
	firstRead := map[ir.Loc]int{}
	def := map[ir.Loc]bool{}
	readCount := map[ir.Loc]int{}
	selfAssoc := map[ir.Loc]bool{}
	for i := range b.Instrs {
		in := &b.Instrs[i]
		for _, u := range in.Uses() {
			readCount[u]++
			if !def[u] {
				if _, seen := firstRead[u]; !seen {
					firstRead[u] = state[i]
				}
			}
		}
		if in.HasDst() {
			def[in.Dst] = true
			written[in.Dst] = state[i]
			isAssoc := in.Op == ir.Add || in.Op == ir.Xor || in.Op == ir.Or || in.Op == ir.And
			readsSelf := (!in.A.IsConst && in.A.Loc == in.Dst) || (!in.B.IsConst && in.B.Loc == in.Dst)
			selfAssoc[in.Dst] = isAssoc && readsSelf
		}
	}
	ii := 1
	for loc, r := range firstRead {
		w, ok := written[loc]
		if !ok {
			continue
		}
		if selfAssoc[loc] && readCount[loc] == 1 {
			continue
		}
		if span := w - r + 1; span > ii {
			ii = span
		}
	}
	return ii
}
