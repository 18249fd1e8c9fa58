package algebra

import "testing"

// diamond builds a DAG with one shared leaf consumed by two branches that
// rejoin: leaf → {l, r} → union.
func diamond(t *testing.T) (root, leaf, l, r *Op) {
	t.Helper()
	leaf = LitSeq()
	var err error
	if l, err = Project(leaf, "pos", "item"); err != nil {
		t.Fatal(err)
	}
	if r, err = Project(leaf, "pos", "item"); err != nil {
		t.Fatal(err)
	}
	if root, err = Union(l, r); err != nil {
		t.Fatal(err)
	}
	return root, leaf, l, r
}

func TestTopoOrderAndUniqueness(t *testing.T) {
	root, _, _, _ := diamond(t)
	order := Topo(root)
	if len(order) != 4 {
		t.Fatalf("Topo visited %d operators, diamond has 4", len(order))
	}
	pos := make(map[*Op]int)
	for i, o := range order {
		if _, dup := pos[o]; dup {
			t.Fatalf("operator appears twice in Topo order")
		}
		pos[o] = i
	}
	for _, o := range order {
		for _, in := range o.In {
			if pos[in] >= pos[o] {
				t.Errorf("input ordered at %d, after its consumer at %d", pos[in], pos[o])
			}
		}
	}
	if order[len(order)-1] != root {
		t.Error("root is not last in bottom-up order")
	}
}

func TestTopoDownReverses(t *testing.T) {
	root, leaf, _, _ := diamond(t)
	down := TopoDown(root)
	if down[0] != root {
		t.Error("TopoDown must start at the root")
	}
	if down[len(down)-1] != leaf {
		t.Error("TopoDown must end at the shared leaf")
	}
}

func TestConsumersEdges(t *testing.T) {
	root, leaf, l, r := diamond(t)
	cons := Consumers(root)
	if got := len(cons[leaf]); got != 2 {
		t.Errorf("shared leaf has %d consumers, want 2", got)
	}
	if len(cons[l]) != 1 || cons[l][0] != root {
		t.Errorf("left branch consumers = %v, want just the root", cons[l])
	}
	if len(cons[r]) != 1 || cons[r][0] != root {
		t.Errorf("right branch consumers = %v, want just the root", cons[r])
	}
	if cons[root] != nil {
		t.Error("root must have no consumers")
	}

	// Same input twice → two consuming edges (pending count must be 2).
	dup, err := Union(l, l)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(Consumers(dup)[l]); got != 2 {
		t.Errorf("doubly-consumed input has %d edges, want 2", got)
	}
}
