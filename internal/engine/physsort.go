package engine

import (
	"sort"
	"strings"

	"pathfinder/internal/algebra"
	"pathfinder/internal/bat"
)

// Typed comparators for the physical ϱ kernels. A boxed comparator
// builds two Items and calls CompareTotal for every comparison — during
// the sortedness scan and then O(n log n) more times inside the sort.
// A typed column admits a monomorphic comparator over the raw slice;
// each one reproduces CompareTotal's same-kind behavior exactly
// (integers compare through float64 like the boxed path, nodes by
// (fragment, preorder) document position).

// totalCmp returns a comparator equivalent to CompareTotal over rows of
// one column, specialized to the column's physical type.
func totalCmp(v bat.Vec) func(a, b int) int {
	switch x := v.(type) {
	case bat.IntVec:
		return func(a, b int) int { return cmpF(float64(x[a]), float64(x[b])) }
	case bat.FloatVec:
		return func(a, b int) int { return cmpF(x[a], x[b]) }
	case bat.StrVec:
		return func(a, b int) int { return strings.Compare(x[a], x[b]) }
	case bat.BoolVec:
		return func(a, b int) int {
			bi := func(v bool) int {
				if v {
					return 1
				}
				return 0
			}
			return bi(x[a]) - bi(x[b])
		}
	case bat.NodeVec:
		return func(a, b int) int {
			if x[a].Frag != x[b].Frag {
				return int(x[a].Frag) - int(x[b].Frag)
			}
			return int(x[a].Pre) - int(x[b].Pre)
		}
	default:
		return func(a, b int) int { return bat.CompareTotal(v.ItemAt(a), v.ItemAt(b)) }
	}
}

// physRowNumSort brings t into ϱ's (partition, order...) order with
// typed comparators and reports whether the input was already sorted.
// Sorted inputs are returned as a column-sharing slice (no row copies) —
// the order-property fast path (the paper's [3]): loop-lifting emits many
// ϱ operators over inputs that are already in numbering order, e.g. a
// freshly stepped iter|item table, and a linear scan detects this and
// skips the stable sort, the analogue of MonetDB's no-cost void
// numbering.
func physRowNumSort(t *bat.Table, order []algebra.OrderSpec, part string) (*bat.Table, bool, error) {
	cmps := make([]func(a, b int) int, 0, len(order)+1)
	descs := make([]bool, 0, len(order)+1)
	if part != "" {
		v, err := t.Col(part)
		if err != nil {
			return nil, false, err
		}
		cmps = append(cmps, totalCmp(v))
		descs = append(descs, false)
	}
	for _, o := range order {
		v, err := t.Col(o.Col)
		if err != nil {
			return nil, false, err
		}
		cmps = append(cmps, totalCmp(v))
		descs = append(descs, o.Desc)
	}
	less := func(ia, ib int) int {
		for k, cmp := range cmps {
			if c := cmp(ia, ib); c != 0 {
				if descs[k] {
					return -c
				}
				return c
			}
		}
		return 0
	}
	sorted := true
	for i := 1; i < t.Rows(); i++ {
		if less(i-1, i) > 0 {
			sorted = false
			break
		}
	}
	if sorted {
		return t.Slice(0, t.Rows()), true, nil
	}
	idx := make([]int32, t.Rows())
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.SliceStable(idx, func(a, b int) bool { return less(int(idx[a]), int(idx[b])) < 0 })
	return t.Gather(idx), false, nil
}

// physAggr is the aggregation kernel with typed partitioned grouping:
// an int partition column groups through a float64-keyed map (the same
// numeric normalization Item.Key applies, so group identity — including
// the int/float meet — is unchanged) without boxing a Key per row.
// Group order stays first-occurrence; per-group aggregation reuses the
// shared aggregate() so every diagnostic and promotion rule is the
// boxed one. Non-int partitions fall back to the boxed grouping.
func physAggr(t *bat.Table, newCol string, agg algebra.AggKind, args []string, part, sep string) (*bat.Table, string, error) {
	if part == "" {
		out, err := evalAggr(t, newCol, agg, args, part, sep)
		return out, "", err
	}
	pv, err := t.Col(part)
	if err != nil {
		return nil, "", err
	}
	pInts, ok := pv.(bat.IntVec)
	if !ok {
		out, err := evalAggr(t, newCol, agg, args, part, sep)
		return out, "", err
	}
	var argVec bat.Vec
	if len(args) > 0 {
		if argVec, err = t.Col(args[0]); err != nil {
			return nil, "", err
		}
	}
	n := t.Rows()
	groups := make(map[float64][]int32)
	var order []float64
	rep := make(map[float64]int64)
	for i := 0; i < n; i++ {
		k := float64(pInts[i])
		if _, seen := groups[k]; !seen {
			order = append(order, k)
			rep[k] = pInts[i]
		}
		groups[k] = append(groups[k], int32(i))
	}
	partOut := make(bat.IntVec, 0, len(order))
	aggOut := make(bat.ItemVec, 0, len(order))
	for _, k := range order {
		it, err := aggregate(agg, argVec, groups[k], sep)
		if err != nil {
			return nil, "", err
		}
		partOut = append(partOut, rep[k])
		aggOut = append(aggOut, it)
	}
	out, err := bat.NewTable(part, partOut, newCol, aggOut)
	return out, ":int", err
}

// physAggrMorsel is physAggr with morsel-parallel grouping for the int
// partitioned path: each morsel groups its own row range (group lists in
// input order, group discovery in first-occurrence order), the partial
// groupings merge in morsel order — so the merged group lists and the
// global first-occurrence order are exactly the sequential scan's — and
// the per-group aggregation then fans out across group ranges, each
// group writing its own output slot. Scalar aggregates and non-int
// partitions keep the sequential physAggr (the lowering never marks a
// scalar aggregate Parallel: it is a single fold whose float summation
// order must not change).
func physAggrMorsel(ms *morsels, t *bat.Table, newCol string, agg algebra.AggKind, args []string, part, sep string) (*bat.Table, string, error) {
	ranges := ms.split(t.Rows())
	if part == "" || len(ranges) == 1 {
		return physAggr(t, newCol, agg, args, part, sep)
	}
	pv, err := t.Col(part)
	if err != nil {
		return nil, "", err
	}
	pInts, ok := pv.(bat.IntVec)
	if !ok {
		return physAggr(t, newCol, agg, args, part, sep)
	}
	var argVec bat.Vec
	if len(args) > 0 {
		if argVec, err = t.Col(args[0]); err != nil {
			return nil, "", err
		}
	}
	type grouping struct {
		groups map[float64][]int32
		order  []float64
		rep    map[float64]int64
	}
	parts := make([]grouping, len(ranges))
	if err := ms.run(len(ranges), func(m int) error {
		r := ranges[m]
		g := grouping{groups: make(map[float64][]int32), rep: make(map[float64]int64)}
		for i := r.Lo; i < r.Hi; i++ {
			k := float64(pInts[i])
			if _, seen := g.groups[k]; !seen {
				g.order = append(g.order, k)
				g.rep[k] = pInts[i]
			}
			g.groups[k] = append(g.groups[k], int32(i))
		}
		parts[m] = g
		return nil
	}); err != nil {
		return nil, "", err
	}
	groups, order, rep := parts[0].groups, parts[0].order, parts[0].rep
	for _, p := range parts[1:] {
		for _, k := range p.order {
			if _, seen := groups[k]; !seen {
				order = append(order, k)
				rep[k] = p.rep[k]
			}
			groups[k] = append(groups[k], p.groups[k]...)
		}
	}
	partOut := make(bat.IntVec, len(order))
	aggOut := make(bat.ItemVec, len(order))
	gRanges := ms.split(len(order))
	if err := ms.run(len(gRanges), func(m int) error {
		for gi := gRanges[m].Lo; gi < gRanges[m].Hi; gi++ {
			k := order[gi]
			it, err := aggregate(agg, argVec, groups[k], sep)
			if err != nil {
				return err
			}
			partOut[gi] = rep[k]
			aggOut[gi] = it
		}
		return nil
	}); err != nil {
		return nil, "", err
	}
	out, err := bat.NewTable(part, partOut, newCol, aggOut)
	return out, ":int", err
}

// physRowNumAttach appends ϱ's numbering column to a table already in
// (partition, order...) order, restarting at 1 on every partition change
// (a typed partition-change test).
func physRowNumAttach(out *bat.Table, newCol, part string) error {
	nums := make(bat.IntVec, out.Rows())
	var n int64
	if part == "" {
		for i := range nums {
			nums[i] = int64(i) + 1
		}
		return out.AddCol(newCol, nums)
	}
	cmp := totalCmp(out.MustCol(part))
	for i := range nums {
		if i == 0 || cmp(i, i-1) != 0 {
			n = 0
		}
		n++
		nums[i] = n
	}
	return out.AddCol(newCol, nums)
}
