package algebra

// Topology helpers over the plan DAG. Loop-lifted plans share subplans
// aggressively (CSE turns the operator tree into a DAG), and both the
// optimizer's demand analysis and the engine's parallel scheduler need a
// deterministic linearization of that DAG plus the reverse edges (who
// consumes each operator's output).

// Topo returns every distinct operator reachable from root in a
// deterministic bottom-up order: each operator appears after all of its
// inputs (children before parents, root last). Shared subplans appear
// exactly once.
func Topo(root *Op) []*Op {
	var order []*Op
	seen := make(map[*Op]bool)
	var visit func(*Op)
	visit = func(o *Op) {
		if seen[o] {
			return
		}
		seen[o] = true
		for _, in := range o.In {
			visit(in)
		}
		order = append(order, o)
	}
	visit(root)
	return order
}

// TopoDown returns the operators with every operator before its inputs
// (root first) — the traversal order of top-down analyses such as the
// optimizer's column-demand propagation.
func TopoDown(root *Op) []*Op {
	order := Topo(root)
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// Consumers returns, for every operator in the DAG, the list of operators
// that read its output, with one entry per consuming edge: an operator
// listing the same input twice contributes two entries. Operators feeding
// only the root (or the root itself, which has no consumers) map to nil.
func Consumers(root *Op) map[*Op][]*Op {
	out := make(map[*Op][]*Op)
	for _, o := range Topo(root) {
		for _, in := range o.In {
			out[in] = append(out[in], o)
		}
	}
	return out
}
