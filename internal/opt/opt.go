// Package opt implements Pathfinder's plan rewriting: the "assembly
// style" plans emitted by the loop-lifting compiler are large (the paper
// quotes ~120 operators for XMark Q8) but highly redundant, and the
// restrictions of the algebra (π never removes duplicates, all unions
// disjoint, all joins equi-joins) make rewrites safe to verify locally.
//
// The optimizer is organized as a staged pipeline (pipeline.go): an
// explicit multi-pass driver runs
//
//	normalize → analyze → isolate
//
// to a fixed point, then re-derives properties and cleans up. The passes:
//
//   - normalize: common subexpression elimination over the DAG (MIL
//     variable sharing), projection fusion (π ∘ π → π), identity-
//     projection removal, and dead column pruning guided by the demand
//     analysis (demand.go) — plus the local order-property rewrites
//     (ϱ → mark over presorted input, δ elimination on keyed input).
//   - analyze: the join-graph analysis (joingraph.go) — which equi-joins
//     connect real value columns and which only thread loop-lifting
//     scaffolding, and which numbering towers are dead.
//   - isolate: join graph isolation (isolate.go) — removal of numbering
//     operators that only maintain an order nothing downstream observes,
//     proven via the derived order/denseness/key properties.
//
// Order-property exploitation at runtime — recognizing that a ϱ input is
// already in (partition, order) order and skipping the sort — lives in
// the engine's ϱ implementation, where the property is checked with one
// linear scan.
package opt

import (
	"fmt"
	"sort"
	"strings"

	"pathfinder/internal/algebra"
)

// Optimize rewrites the plan DAG through the staged pipeline and returns
// the (possibly new) root. The input DAG is not mutated, and the result
// never has more operators than the input: on tiny plans, where the
// union-alignment projections of the pruning pass can outweigh its
// savings, the CSE-only plan is returned instead.
func Optimize(root *algebra.Op) (*algebra.Op, error) {
	res, err := Pipeline(root)
	if err != nil {
		return nil, err
	}
	return res.Plan, nil
}

// cse shares structurally identical subplans — the rewriting MonetDB gets
// for free from MIL variable reuse.
func cse(root *algebra.Op) *algebra.Op {
	canon := make(map[string]*algebra.Op)
	memo := make(map[*algebra.Op]*algebra.Op)
	var walk func(o *algebra.Op) *algebra.Op
	walk = func(o *algebra.Op) *algebra.Op {
		if c, ok := memo[o]; ok {
			return c
		}
		children := make([]*algebra.Op, len(o.In))
		changed := false
		for i, in := range o.In {
			children[i] = walk(in)
			if children[i] != in {
				changed = true
			}
		}
		cur := o
		if changed {
			cp := *o
			cp.In = children
			cur = &cp
		}
		sig := signature(cur)
		if c, ok := canon[sig]; ok {
			memo[o] = c
			return c
		}
		canon[sig] = cur
		memo[o] = cur
		return cur
	}
	return walk(root)
}

// signature renders an operator's identity: kind, parameters, and child
// object identities (children are canonical already when called bottom-up).
func signature(o *algebra.Op) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d", o.Kind)
	for _, in := range o.In {
		fmt.Fprintf(&sb, " c%p", in)
	}
	switch o.Kind {
	case algebra.OpLit:
		fmt.Fprintf(&sb, " t%p", o.Lit)
	case algebra.OpProject:
		for _, p := range o.Proj {
			fmt.Fprintf(&sb, " %s:%s", p.New, p.Old)
		}
	case algebra.OpSelect, algebra.OpRowID:
		sb.WriteString(" " + o.Col)
	case algebra.OpJoin, algebra.OpSemiJoin, algebra.OpDiff, algebra.OpRange:
		fmt.Fprintf(&sb, " %v=%v", o.KeyL, o.KeyR)
	case algebra.OpRowNum:
		fmt.Fprintf(&sb, " %s %v %s", o.Col, o.Order, o.Part)
	case algebra.OpFun:
		fmt.Fprintf(&sb, " %s %d %v %d %s", o.Col, o.Fun, o.Args, o.Type, o.TypeName)
	case algebra.OpAggr:
		fmt.Fprintf(&sb, " %s %d %v %s %q", o.Col, o.Agg, o.Args, o.Part, o.Sep)
	case algebra.OpStep:
		fmt.Fprintf(&sb, " %d %d %s", o.Axis, o.Test.Kind, o.Test.Name)
	}
	return sb.String()
}

// pruneAndFuse runs the demand analysis and rebuilds the DAG with pruned
// and fused projections.
func pruneAndFuse(root *algebra.Op) (*algebra.Op, error) {
	needed := demandMap(root)

	// Rebuild bottom-up with pruned projections, fused π∘π chains, and
	// order-property rewrites.
	memo := make(map[*algebra.Op]*algebra.Op)
	pr := newProps()
	var rebuild func(o *algebra.Op) (*algebra.Op, error)
	rebuild = func(o *algebra.Op) (*algebra.Op, error) {
		if c, ok := memo[o]; ok {
			return c, nil
		}
		children := make([]*algebra.Op, len(o.In))
		for i, in := range o.In {
			c, err := rebuild(in)
			if err != nil {
				return nil, err
			}
			children[i] = c
		}
		out, err := rebuildOp(o, children, needed[o], pr)
		if err != nil {
			return nil, err
		}
		memo[o] = out
		return out, nil
	}
	return rebuild(root)
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	//pfvet:allow maporder -- keys is the sorted-iteration helper itself
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func rebuildOp(o *algebra.Op, in []*algebra.Op, need map[string]bool, pr *props) (*algebra.Op, error) {
	switch o.Kind {
	case algebra.OpLit:
		return o, nil
	case algebra.OpProject:
		// Prune unneeded output columns (keep at least one column: a
		// zero-column relation has no row representation in the engine).
		specs := make([]string, 0, len(o.Proj))
		for _, p := range o.Proj {
			if need == nil || need[p.New] {
				specs = append(specs, p.New+":"+p.Old)
			}
		}
		if len(specs) == 0 {
			specs = append(specs, o.Proj[0].New+":"+o.Proj[0].Old)
		}
		// Fuse with a child projection.
		child := in[0]
		if child.Kind == algebra.OpProject {
			lookup := make(map[string]string, len(child.Proj))
			for _, p := range child.Proj {
				lookup[p.New] = p.Old
			}
			fused := make([]string, len(specs))
			for i, s := range specs {
				nw, old, _ := strings.Cut(s, ":")
				fused[i] = nw + ":" + lookup[old]
			}
			specs = fused
			child = child.In[0]
		}
		// Identity projection: same names, same order, full schema.
		if identityProjection(specs, child.Schema()) {
			return child, nil
		}
		return algebra.Project(child, specs...)
	case algebra.OpSelect:
		return algebra.Select(in[0], o.Col)
	case algebra.OpUnion:
		l, r := in[0], in[1]
		// Pruning may have left the sides with different schemas; align
		// them on the intersection demanded from the union.
		if !sameCols(l.Schema(), r.Schema()) {
			shared := intersect(l.Schema(), r.Schema())
			if len(shared) == 0 {
				return nil, fmt.Errorf("union sides lost all shared columns")
			}
			var err error
			if len(shared) != len(l.Schema()) {
				if l, err = algebra.Project(l, shared...); err != nil {
					return nil, err
				}
			}
			if len(shared) != len(r.Schema()) {
				if r, err = algebra.Project(r, shared...); err != nil {
					return nil, err
				}
			}
		}
		return algebra.Union(l, r)
	case algebra.OpDiff:
		return algebra.Diff(in[0], in[1], o.KeyL, o.KeyR)
	case algebra.OpDistinct:
		// Key-property rewrite: a strict ordering is a key, and sorted
		// inputs keep duplicates adjacent — so a keyed input has no
		// duplicate rows and δ is the identity.
		if pr.orderingOf(in[0]).strict {
			return in[0], nil
		}
		return algebra.Distinct(in[0]), nil
	case algebra.OpJoin:
		return algebra.Join(in[0], in[1], o.KeyL, o.KeyR)
	case algebra.OpSemiJoin:
		return algebra.SemiJoin(in[0], in[1], o.KeyL, o.KeyR)
	case algebra.OpCross:
		return algebra.Cross(in[0], in[1])
	case algebra.OpRowNum:
		// Order-property rewrite ([3]): a global ϱ whose input is already
		// sorted by its order columns is MonetDB's no-cost mark operator.
		if o.Part == "" {
			ascending := true
			cols := make([]string, 0, len(o.Order))
			for _, s := range o.Order {
				if s.Desc {
					ascending = false
					break
				}
				cols = append(cols, s.Col)
			}
			if ascending && hasPrefix(pr.sortedPrefix(in[0]), cols) {
				return algebra.RowID(in[0], o.Col)
			}
		}
		return algebra.RowNum(in[0], o.Col, o.Order, o.Part)
	case algebra.OpRowID:
		return algebra.RowID(in[0], o.Col)
	case algebra.OpFun:
		f, err := algebra.Fun(in[0], o.Col, o.Fun, o.Args...)
		if err != nil {
			return nil, err
		}
		f.Type, f.TypeName = o.Type, o.TypeName
		return f, nil
	case algebra.OpAggr:
		arg := ""
		if len(o.Args) > 0 {
			arg = o.Args[0]
		}
		a, err := algebra.Aggr(in[0], o.Col, o.Agg, arg, o.Part)
		if err != nil {
			return nil, err
		}
		a.Sep = o.Sep
		return a, nil
	case algebra.OpStep:
		return algebra.Step(in[0], o.Axis, o.Test)
	case algebra.OpDoc:
		return algebra.DocOp(in[0])
	case algebra.OpRoots:
		return algebra.Roots(in[0])
	case algebra.OpElem:
		return algebra.Elem(in[0], in[1])
	case algebra.OpText:
		return algebra.Text(in[0])
	case algebra.OpAttrC:
		return algebra.AttrC(in[0], in[1])
	case algebra.OpRange:
		return algebra.Range(in[0], o.KeyL[0], o.KeyL[1])
	case algebra.OpColl:
		return algebra.CollOp(in[0])
	}
	return nil, fmt.Errorf("unknown operator %s", o.Kind)
}

func identityProjection(specs, schema []string) bool {
	if len(specs) != len(schema) {
		return false
	}
	for i, s := range specs {
		nw, old, _ := strings.Cut(s, ":")
		if nw != old || nw != schema[i] {
			return false
		}
	}
	return true
}

func sameCols(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[string]bool, len(a))
	for _, c := range a {
		set[c] = true
	}
	for _, c := range b {
		if !set[c] {
			return false
		}
	}
	return true
}

func intersect(a, b []string) []string {
	set := make(map[string]bool, len(b))
	for _, c := range b {
		set[c] = true
	}
	var out []string
	for _, c := range a {
		if set[c] {
			out = append(out, c)
		}
	}
	return out
}
