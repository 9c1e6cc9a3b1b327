// Package qualgraph implements qual graphs and qual trees (paper §3.1):
// undirected graphs over the relation schemas of D in which, for every
// attribute A, the nodes whose schemas contain A induce a connected
// subgraph. D is a tree schema iff some qual graph for D is a tree.
//
// Two independent qual-tree constructions are provided — a maximum-
// weight-spanning-tree method and a GYO-trace method — plus exhaustive
// enumeration for small schemas, and the Theorem 3.1 characterization
// of subtrees via GYO reductions.
package qualgraph

import (
	"fmt"

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

// VerifyAttributeConnectivity checks the paper's "useful fact" on a qual
// tree T: for nodes r, s and any node p on the tree path from r to s,
// R ∩ S ⊆ P. It returns a descriptive error on the first violation.
// For trees this is equivalent to the qual-graph property.
func VerifyAttributeConnectivity(d *schema.Schema, t *graph.Undirected) error {
	if !t.IsTree() {
		return fmt.Errorf("qualgraph: graph is not a tree")
	}
	n := len(d.Rels)
	for r := 0; r < n; r++ {
		for s := r + 1; s < n; s++ {
			shared := d.Rels[r].Intersect(d.Rels[s])
			if shared.IsEmpty() {
				continue
			}
			path, ok := t.Path(r, s)
			if !ok {
				return fmt.Errorf("qualgraph: no path between %d and %d", r, s)
			}
			for _, p := range path {
				if !shared.SubsetOf(d.Rels[p]) {
					return fmt.Errorf("qualgraph: R%d ∩ R%d = %s ⊄ R%d on path",
						r, s, d.U.FormatSet(shared), p)
				}
			}
		}
	}
	return nil
}

// QualTreeMST constructs a qual tree for d using the classical maximum-
// weight spanning tree of the intersection graph (weight |Rᵢ ∩ Rⱼ|),
// built over the reduction of d with subsumed relations re-attached as
// leaves of a superset. ok is false iff d is a cyclic schema.
func QualTreeMST(d *schema.Schema) (t *graph.Undirected, ok bool) {
	n := len(d.Rels)
	if n == 0 {
		return graph.NewUndirected(0), true
	}
	// Map each relation either to itself (kept) or to a chosen superset.
	kept, parentOf := reduceWithParents(d)
	// MST over the kept relations.
	var edges []graph.WeightedEdge
	for i := 0; i < len(kept); i++ {
		for j := i + 1; j < len(kept); j++ {
			w := d.Rels[kept[i]].IntersectCard(d.Rels[kept[j]])
			edges = append(edges, graph.WeightedEdge{U: i, V: j, Weight: w})
		}
	}
	sub := graph.MaxSpanningForest(len(kept), edges)
	// Verify qual property on the reduced schema.
	red := d.Restrict(kept)
	if !IsQualGraph(red, sub) {
		return nil, false
	}
	// Lift back to all n nodes: kept nodes take the MST edges; each
	// eliminated relation hangs as a leaf off its superset. Hanging a
	// subset R′ ⊆ R as a leaf of R preserves the qual property: any
	// attribute of R′ is also in R, so its induced subgraph gains a
	// pendant vertex adjacent to an existing member.
	t = graph.NewUndirected(n)
	for _, e := range sub.Edges() {
		t.MustAddEdge(kept[e[0]], kept[e[1]])
	}
	// Ascending child order: edge order fixes Neighbors order, which fixes
	// the statement order of every plan built over this tree.
	for child, parent := range parentOf {
		if parent >= 0 {
			t.MustAddEdge(child, parent)
		}
	}
	if !IsQualGraph(d, t) {
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
	parentOf = make([]int, n)
	eliminated := make([]bool, n)
	for i := 0; i < n; i++ {
		if eliminated[i] {
			continue
		}
		for j := 0; j < n; j++ {
			if i == j || eliminated[j] || eliminated[i] {
				continue
			}
			ri, rj := d.Rels[i], d.Rels[j]
			if ri.SubsetOf(rj) && (!rj.SubsetOf(ri) || i > j) {
				eliminated[i] = true
			}
		}
	}
	for i := 0; i < n; i++ {
		if !eliminated[i] {
			kept = append(kept, i)
		}
	}
	for i := 0; i < n; i++ {
		parentOf[i] = -1
		if !eliminated[i] {
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

// IsSubtreeExhaustive decides subtree-ness by enumerating qual trees; a
// slow oracle for tests. idx selects the candidate node set of d.
func IsSubtreeExhaustive(d *schema.Schema, idx []int) bool {
	want := make(map[int]bool, len(idx))
	for _, i := range idx {
		want[i] = true
	}
	found := false
	EnumerateQualTrees(d, func(t *graph.Undirected) bool {
		if t.ConnectedOn(func(v int) bool { return want[v] }) {
			found = true
			return false
		}
		return true
	})
	return found
}
