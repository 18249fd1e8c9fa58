package physical

import (
	"fmt"
	"strings"
)

// Dot renders the physical plan in Graphviz syntax, parallel to
// algebra.Dot for logical plans: each node shows the logical operator,
// the chosen kernel, and the inferred order/denseness properties.
// Pipeline operators are drawn with rounded corners, breakers
// (materializing operators) as plain boxes. Members of a fused chain
// are grouped into a cluster subgraph labeled with the chain id, so the
// scheduling units are visible in the rendered plan.
func Dot(p *Plan) string {
	ids := make(map[*Node]int, len(p.Nodes))
	chainOf := make(map[*Node]*FusedChain)
	for _, ch := range p.Chains {
		for _, nd := range ch.Nodes {
			chainOf[nd] = ch
		}
	}
	var sb strings.Builder
	sb.WriteString("digraph physical {\n  node [shape=box, fontname=\"monospace\"];\n")
	nodeDecl := func(i int, nd *Node, indent string) {
		lines := []string{escape(nd.Op.Label()), escape(nd.Kernel)}
		if note := nd.PropsNote(); note != "" {
			lines = append(lines, escape(note))
		}
		style := ""
		if nd.Pipeline {
			style = ", style=rounded"
		}
		fmt.Fprintf(&sb, "%sn%d [label=\"%s\"%s];\n", indent, i, strings.Join(lines, `\n`), style)
	}
	for i, nd := range p.Nodes {
		ids[nd] = i
	}
	for i, nd := range p.Nodes {
		if ch := chainOf[nd]; ch != nil {
			// Declared inside its chain's cluster below; declare the
			// cluster when we reach the head so declaration order stays
			// topological.
			if nd != ch.Head() {
				continue
			}
			fmt.Fprintf(&sb, "  subgraph cluster_fused_%d {\n    label=\"fused chain #%d\";\n    style=dashed;\n", ch.ID, ch.ID)
			for _, m := range ch.Nodes {
				nodeDecl(ids[m], m, "    ")
			}
			sb.WriteString("  }\n")
			continue
		}
		nodeDecl(i, nd, "  ")
	}
	for _, nd := range p.Nodes {
		for k, in := range nd.In {
			fmt.Fprintf(&sb, "  n%d -> n%d [label=\"%d\"];\n", ids[nd], ids[in], k)
		}
	}
	sb.WriteString("}\n")
	return sb.String()
}

// escape quotes the characters Graphviz treats specially inside a
// double-quoted label.
func escape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return s
}
