package physical

import "pathfinder/internal/algebra"

// Operator chains: the loop-lifted plans are long runs of cheap per-row
// operators — filters, maps, projections, mark/rownum fast paths — each
// feeding only the next. Lower identifies maximal chains of such
// operators and records them on the plan as FusedChain metadata; the
// executor schedules a whole chain as one task, running its members back
// to back on one worker through their ordinary kernels, so a chain pays
// one scheduler hand-off instead of one per link.
//
// The chains are metadata, not a plan rewrite: every member keeps its
// Node (stats, Check, and the explain/dot output address members
// individually), and every member's output is an ordinary view.

// FusedChain is one maximal fusable chain: Nodes[0] is the head (its
// data input is the chain's input), Nodes[len-1] the tail (its output is
// the chain's boundary). Interior members have exactly one consumer —
// the next member — so no interior view ever reaches an operator
// outside the chain.
type FusedChain struct {
	ID    int // 1-based, in discovery (= topological) order
	Nodes []*Node
}

// Head returns the chain's first member.
func (c *FusedChain) Head() *Node { return c.Nodes[0] }

// Tail returns the chain's last member; its output is the chain's.
func (c *FusedChain) Tail() *Node { return c.Nodes[len(c.Nodes)-1] }

// Input returns the node producing the chain's input relation.
func (c *FusedChain) Input() *Node { return c.Head().In[0] }

// FusedMinRows is the static gate below which chain formation is
// skipped: a point lookup whose cardinality is known to be tiny keeps
// the plain per-operator units. Reusing the morsel gate keeps "tiny"
// meaning one thing across the executor.
const FusedMinRows = ParallelMinRows

// fusable reports whether a node may be a fused-chain member: a pure
// unary per-row operator whose kernel reads input rows independently.
// σ, π and ⊛ (map, every function) always qualify; ϱ only on its
// const-1 fast path (the sort and presorted kernels need the whole
// partition); the mark operator qualifies but is position-sensitive —
// see discoverChains.
func fusable(nd *Node) bool {
	switch nd.Op.Kind {
	case algebra.OpSelect, algebra.OpProject, algebra.OpFun, algebra.OpRowID:
		return true
	case algebra.OpRowNum:
		return nd.Const1
	}
	return false
}

// discoverChains finds the maximal fusable chains of a lowered plan.
// plan.Nodes is in bottom-up topological order, so a forward greedy walk
// from the first unclaimed fusable node always starts at the true head
// of its maximal chain. A chain grows from cur to its consumer next iff
//
//   - cur has exactly one consuming edge (otherwise the selection vector
//     threaded past cur would leak to an operator outside the chain),
//   - next is fusable and consumes cur as its data input, and
//   - next is not a mark (ϱ́) after a filter: mark numbers the rows it
//     sees 1..n, so its input positions must be undisturbed — a mark may
//     be followed by filters inside a chain, never preceded by one.
//
// Chains shorter than two members buy nothing, and chains whose head is
// statically known to process fewer than FusedMinRows rows are skipped
// outright (the tiny-input fast path).
func discoverChains(p *Plan) []*FusedChain {
	consumers := make(map[*Node]int, len(p.Nodes))
	nextOf := make(map[*Node]*Node, len(p.Nodes))
	for _, nd := range p.Nodes {
		for _, c := range nd.In {
			consumers[c]++
			nextOf[c] = nd
		}
	}
	claimed := make(map[*Node]bool)
	var chains []*FusedChain
	for _, nd := range p.Nodes {
		if claimed[nd] || !fusable(nd) || len(nd.In) != 1 {
			continue
		}
		if nd.EstRows >= 0 && nd.EstRows < FusedMinRows {
			continue
		}
		members := []*Node{nd}
		hasFilter := nd.Op.Kind == algebra.OpSelect
		cur := nd
		for consumers[cur] == 1 {
			next := nextOf[cur]
			if !fusable(next) || len(next.In) != 1 || next.In[0] != cur || claimed[next] {
				break
			}
			if next.Op.Kind == algebra.OpRowID && hasFilter {
				break
			}
			members = append(members, next)
			if next.Op.Kind == algebra.OpSelect {
				hasFilter = true
			}
			cur = next
		}
		if len(members) < 2 {
			continue
		}
		for _, m := range members {
			claimed[m] = true
		}
		chains = append(chains, &FusedChain{ID: len(chains) + 1, Nodes: members})
	}
	return chains
}
