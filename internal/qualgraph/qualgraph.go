// Package qualgraph implements qual graphs and qual trees (paper §3.1):
// undirected graphs over the relation schemas of D in which, for every
// attribute A, the nodes whose schemas contain A induce a connected
// subgraph. D is a tree schema iff some qual graph for D is a tree.
//
// Two independent qual-tree constructions are provided — a maximum-
// weight-spanning-tree method and a GYO-trace method — plus exhaustive
// enumeration for small schemas, and the Theorem 3.1 characterization
// of subtrees via GYO reductions.
//
// Forest weight identity: a forest F over the relations of D is a qual
// graph iff Σ_v |R_v| − Σ_{(u,v)∈F} |R_u ∩ R_v| = |U(D)|. Proof: for
// each attribute A the nodes holding A induce a subforest F_A, which
// has |V_A| − |E_A| ≥ 1 components; summed over A, the |V_A| give
// Σ_v |R_v| and the |E_A| give Σ_F |R_u ∩ R_v|, so the left side counts
// the components of all the F_A, and equals |U(D)| iff each F_A is
// connected. QualTreeMST checks its tree this way in O(|D| + |F|) set
// operations instead of a connectivity sweep per attribute.
package qualgraph

import (
	"cmp"
	"slices"

	"gyokit/internal/graph"
	"gyokit/internal/gyo"
	"gyokit/internal/schema"
)

// IsQualGraph reports whether g (on nodes 0..len(d.Rels)-1) is a qual
// graph for d: for every attribute A ∈ U(D), the subgraph induced by
// the nodes whose relation schemas contain A is connected.
func IsQualGraph(d *schema.Schema, g *graph.Undirected) bool {
	if g.N() != len(d.Rels) {
		return false
	}
	ok := true
	d.Attrs().ForEach(func(a schema.Attr) bool {
		if !g.ConnectedOn(func(v int) bool { return d.Rels[v].Has(a) }) {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// QualTreeMST constructs a qual tree for d using the classical maximum-
// weight spanning tree of the intersection graph (weight |Rᵢ ∩ Rⱼ|),
// built over the reduction of d with subsumed relations re-attached as
// leaves of a superset. ok is false iff d is a cyclic schema.
//
// Kruskal takes the positive-weight edges in (weight desc, U, V) order.
// Zero-weight edges come last in (U, V) order, so when that forest does
// not span they join the first kept relation to the least one of each
// other component. The forest weight identity of the package comment
// then decides the qual property.
func QualTreeMST(d *schema.Schema) (t *graph.Undirected, ok bool) {
	n := len(d.Rels)
	if n == 0 {
		return graph.NewUndirected(0), true
	}
	// Map each relation either to itself (kept) or to a chosen superset.
	kept, parentOf := reduceWithParents(d)
	type edge struct{ u, v, w int }
	edges := make([]edge, 0, len(kept)-1)
	for i, u := range kept {
		for _, v := range kept[i+1:] {
			if w := d.Rels[u].IntersectCard(d.Rels[v]); w > 0 {
				edges = append(edges, edge{u, v, w})
			}
		}
	}
	slices.SortFunc(edges, func(a, b edge) int {
		return cmp.Or(cmp.Compare(b.w, a.w), cmp.Compare(a.u, b.u), cmp.Compare(a.v, b.v))
	})
	root := make([]int, n) // union-find over d's indexes
	for i := range root {
		root[i] = i
	}
	find := func(i int) int {
		for root[i] != i {
			root[i] = root[root[i]]
			i = root[i]
		}
		return i
	}
	attrs, gap := d.Attrs().Card(), 0
	for _, v := range kept {
		gap += d.Rels[v].Card()
	}
	forest := edges[:0]
	for _, e := range edges {
		if ru, rv := find(e.u), find(e.v); ru != rv {
			root[ru] = rv
			forest = append(forest, e)
			gap -= e.w
		}
	}
	for _, v := range kept[1:] {
		if ru, rv := find(kept[0]), find(v); ru != rv {
			root[rv] = ru
			forest = append(forest, edge{kept[0], v, 0})
		}
	}
	if gap != attrs {
		return nil, false
	}
	// Lift back to all n nodes: kept nodes take the forest's edges; each
	// eliminated relation hangs as a leaf off its superset, which adds
	// |R′| − |R′ ∩ R| = 0 to the gap when R′ ⊆ R. Edges go in (U, V)
	// order, then by ascending child: edge order fixes Neighbors order,
	// which fixes the statement order of every plan built over this tree.
	slices.SortFunc(forest, func(a, b edge) int {
		return cmp.Or(cmp.Compare(a.u, b.u), cmp.Compare(a.v, b.v))
	})
	t = graph.NewUndirected(n)
	for _, e := range forest {
		t.MustAddEdge(e.u, e.v)
	}
	for child, parent := range parentOf {
		if parent >= 0 {
			t.MustAddEdge(child, parent)
			gap += d.Rels[child].Card() - d.Rels[child].IntersectCard(d.Rels[parent])
		}
	}
	if gap != attrs {
		// Should be impossible; fail loudly rather than return a bogus tree.
		panic("qualgraph: internal: lifted MST tree lost the qual property")
	}
	return t, true
}

// reduceWithParents partitions relation indexes into kept (maximal,
// first occurrence) and eliminated ones, mapping each eliminated index
// to a kept superset (parentOf is -1 at kept indexes).
func reduceWithParents(d *schema.Schema) (kept []int, parentOf []int) {
	n := len(d.Rels)
	block := make([]int, 2*n)
	parentOf, kept = block[:n:n], block[n:n]
	// parentOf[i] is 1 once i is eliminated, until the superset is chosen.
	for i, ri := range d.Rels {
		for j, rj := range d.Rels {
			if i != j && parentOf[j] == 0 && ri.SubsetOf(rj) && (!rj.SubsetOf(ri) || i > j) {
				parentOf[i] = 1
				break
			}
		}
	}
	for i, p := range parentOf {
		if p == 0 {
			kept = append(kept, i)
		}
	}
	for i, p := range parentOf {
		parentOf[i] = -1
		if p == 0 {
			continue
		}
		for _, k := range kept {
			if d.Rels[i].SubsetOf(d.Rels[k]) {
				parentOf[i] = k
				break
			}
		}
	}
	return kept, parentOf
}

// QualTreeGYO constructs a qual tree for d by replaying a full GYO
// reduction: each subset elimination R ⊆ S contributes the tree edge
// {R, S}. ok is false iff d is cyclic (the reduction does not empty).
func QualTreeGYO(d *schema.Schema) (t *graph.Undirected, ok bool) {
	n := len(d.Rels)
	res := gyo.ReduceFull(d)
	if !res.Empty() {
		return nil, false
	}
	t = graph.NewUndirected(n)
	for _, op := range res.Trace {
		if op.Kind == gyo.SubsetEliminate {
			t.MustAddEdge(op.Rel, op.Into)
		}
	}
	if n > 0 && !t.IsTree() {
		panic("qualgraph: internal: GYO trace did not produce a tree")
	}
	if !IsQualGraph(d, t) {
		panic("qualgraph: internal: GYO trace tree lost the qual property")
	}
	return t, true
}

// QualTree returns a qual tree for d (MST method) and whether one exists.
func QualTree(d *schema.Schema) (*graph.Undirected, bool) {
	return QualTreeMST(d)
}

// EnumerateQualTrees enumerates every qual tree for d, calling yield for
// each. It inspects all labeled trees on len(d.Rels) nodes and is
// therefore super-exponential; intended for |D| ≤ 7 in tests.
// Enumeration stops early when yield returns false.
func EnumerateQualTrees(d *schema.Schema, yield func(*graph.Undirected) bool) {
	n := len(d.Rels)
	k := graph.NewUndirected(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			k.MustAddEdge(i, j)
		}
	}
	k.SpanningTrees(func(edges [][2]int) bool {
		t := graph.NewUndirected(n)
		for _, e := range edges {
			t.MustAddEdge(e[0], e[1])
		}
		if IsQualGraph(d, t) {
			return yield(t)
		}
		return true
	})
}

// IsTreeSchemaExhaustive reports tree-ness by brute-force qual-tree
// enumeration; a slow, independent oracle for cross-checking gyo.IsTree
// on small schemas.
func IsTreeSchemaExhaustive(d *schema.Schema) bool {
	found := false
	EnumerateQualTrees(d, func(*graph.Undirected) bool {
		found = true
		return false
	})
	if len(d.Rels) == 0 {
		return true
	}
	return found
}

// IsSubtree implements Theorem 3.1(ii): for a tree schema D and
// D′ a sub-multiset of D's relation schemas, D′ is a subtree of D
// (some qual tree for D has a connected subgraph whose nodes are
// exactly D′) iff every relation schema of GR(D, ∪D′) occurs in D′.
// For cyclic D it returns false (no qual tree exists at all).
func IsSubtree(d, dprime *schema.Schema) bool {
	if !dprime.SubmultisetOf(d) {
		return false
	}
	if !gyo.IsTree(d) {
		return false
	}
	if len(dprime.Rels) == 0 {
		return true
	}
	gr := gyo.Reduce(d, dprime.Attrs()).GR
	for _, r := range gr.Rels {
		if !dprime.Contains(r) {
			return false
		}
	}
	return true
}
