package qualgraph

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"gyokit/internal/gen"
	"gyokit/internal/graph"
	"gyokit/internal/gyo"
	"gyokit/internal/schema"
)

// verifyAttributeConnectivity checks the paper's "useful fact" on a qual
// tree T: for nodes r, s and any node p on the tree path from r to s,
// R ∩ S ⊆ P. It returns a descriptive error on the first violation.
// For trees this is equivalent to the qual-graph property.
func verifyAttributeConnectivity(d *schema.Schema, t *graph.Undirected) error {
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

// isSubtreeExhaustive decides subtree-ness by enumerating qual trees; a
// slow oracle for IsSubtree. idx selects the candidate node set of d.
func isSubtreeExhaustive(d *schema.Schema, idx []int) bool {
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

func parse(t *testing.T, u *schema.Universe, s string) *schema.Schema {
	t.Helper()
	d, err := schema.Parse(u, s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestFig1QualGraphs verifies Figure 1's qual graphs directly.
func TestFig1QualGraphs(t *testing.T) {
	u := schema.NewUniverse()

	// (ab, bc, cd): the path ab—bc—cd is a qual tree.
	d1 := parse(t, u, "ab, bc, cd")
	g1 := graph.NewUndirected(3)
	g1.MustAddEdge(0, 1)
	g1.MustAddEdge(1, 2)
	if !IsQualGraph(d1, g1) {
		t.Error("ab—bc—cd should be a qual graph for (ab,bc,cd)")
	}
	// ab—cd—bc is NOT a qual graph: nodes containing b are {ab, bc},
	// disconnected in that tree.
	g1bad := graph.NewUndirected(3)
	g1bad.MustAddEdge(0, 2)
	g1bad.MustAddEdge(2, 1)
	if IsQualGraph(d1, g1bad) {
		t.Error("ab—cd—bc should not be a qual graph")
	}

	// (ab, bc, ac): the triangle is the only qual graph, so cyclic.
	d2 := parse(t, u, "ab, bc, ac")
	tri := graph.NewUndirected(3)
	tri.MustAddEdge(0, 1)
	tri.MustAddEdge(1, 2)
	tri.MustAddEdge(0, 2)
	if !IsQualGraph(d2, tri) {
		t.Error("triangle should be a qual graph for (ab,bc,ac)")
	}
	count := 0
	EnumerateQualTrees(d2, func(*graph.Undirected) bool { count++; return true })
	if count != 0 {
		t.Errorf("(ab,bc,ac) has %d qual trees, want 0", count)
	}

	// (abc, cde, ace, afe): Figure 1 exhibits the qual tree
	// abc—ace—afe with cde hanging off ace.
	d3 := parse(t, u, "abc, cde, ace, afe")
	g3 := graph.NewUndirected(4)
	g3.MustAddEdge(0, 2) // abc—ace
	g3.MustAddEdge(2, 3) // ace—afe
	g3.MustAddEdge(2, 1) // ace—cde
	if !IsQualGraph(d3, g3) {
		t.Error("Figure 1's qual tree for (abc,cde,ace,afe) rejected")
	}
	// The figure also shows the non-tree qual graph abc—ace—afe plus
	// cde adjacent to both abc and ace; verify it qualifies as a qual
	// graph but is not a tree.
	g3b := graph.NewUndirected(4)
	g3b.MustAddEdge(0, 2)
	g3b.MustAddEdge(2, 3)
	g3b.MustAddEdge(2, 1)
	g3b.MustAddEdge(0, 1) // abc—cde (share c)
	if !IsQualGraph(d3, g3b) {
		t.Error("non-tree qual graph rejected")
	}
	if g3b.IsTree() {
		t.Error("g3b should not be a tree")
	}
}

func TestQualTreeConstructionsAgreeWithGYO(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		var d *schema.Schema
		switch trial % 3 {
		case 0:
			d = gen.RandomSchema(rng, 1+rng.Intn(6), 2+rng.Intn(5), 0.5)
		case 1:
			d = gen.TreeSchema(rng, 1+rng.Intn(7), 2, 2)
		default:
			d = gen.Ring(3 + rng.Intn(4))
		}
		isTree := gyo.IsTree(d)
		mst, ok1 := QualTreeMST(d)
		gt, ok2 := QualTreeGYO(d)
		if ok1 != isTree || ok2 != isTree {
			t.Fatalf("construction disagrees with Corollary 3.1 on %s: mst=%v gyo=%v tree=%v",
				d, ok1, ok2, isTree)
		}
		if isTree {
			if !mst.IsTree() || !gt.IsTree() {
				t.Fatalf("returned graphs are not trees for %s", d)
			}
			if !IsQualGraph(d, mst) || !IsQualGraph(d, gt) {
				t.Fatalf("returned trees are not qual graphs for %s", d)
			}
			if err := verifyAttributeConnectivity(d, mst); err != nil {
				t.Fatalf("MST attribute connectivity: %v", err)
			}
			if err := verifyAttributeConnectivity(d, gt); err != nil {
				t.Fatalf("GYO attribute connectivity: %v", err)
			}
		}
	}
}

func TestExhaustiveAgreesWithGYO(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		d := gen.RandomSchema(rng, 1+rng.Intn(5), 2+rng.Intn(4), 0.5)
		if got, want := IsTreeSchemaExhaustive(d), gyo.IsTree(d); got != want {
			t.Fatalf("exhaustive=%v gyo=%v for %s", got, want, d)
		}
	}
}

func TestQualTreeWithSubsumedRelations(t *testing.T) {
	u := schema.NewUniverse()
	// Duplicates and subsets must hang off supersets.
	d := parse(t, u, "abc, ab, abc, c")
	tr, ok := QualTree(d)
	if !ok {
		t.Fatal("schema with subsets should be a tree schema")
	}
	if !IsQualGraph(d, tr) {
		t.Fatal("qual property lost")
	}
	gt, ok := QualTreeGYO(d)
	if !ok || !IsQualGraph(d, gt) {
		t.Fatal("GYO construction failed on subsumed relations")
	}
}

func TestVerifyAttributeConnectivityErrors(t *testing.T) {
	u := schema.NewUniverse()
	d := parse(t, u, "ab, bc, cd")
	notTree := graph.NewUndirected(3)
	notTree.MustAddEdge(0, 1)
	if err := verifyAttributeConnectivity(d, notTree); err == nil {
		t.Error("disconnected graph accepted")
	}
	bad := graph.NewUndirected(3)
	bad.MustAddEdge(0, 2)
	bad.MustAddEdge(2, 1)
	if err := verifyAttributeConnectivity(d, bad); err == nil {
		t.Error("tree violating attribute connectivity accepted")
	}
}

// TestTheorem31Subtree cross-checks the GYO characterization of
// subtrees (Theorem 3.1(ii)) against exhaustive qual-tree enumeration.
func TestTheorem31Subtree(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	trials, checked := 0, 0
	for trials < 300 && checked < 120 {
		trials++
		d := gen.TreeSchema(rng, 1+rng.Intn(5), 2, 2)
		if len(d.Rels) > 6 {
			continue
		}
		sub, idx := gen.SubSchema(rng, d)
		checked++
		got := IsSubtree(d, sub)
		want := isSubtreeExhaustive(d, idx)
		if got != want {
			t.Fatalf("subtree mismatch: D=%s D'=%s gyo=%v exhaustive=%v", d, sub, got, want)
		}
	}
	if checked < 50 {
		t.Fatalf("only %d cases checked", checked)
	}
}

func TestIsSubtreeEdgeCases(t *testing.T) {
	u := schema.NewUniverse()
	d := parse(t, u, "abc, ab, bc")
	// §5.1: (ab, bc) is not a subtree of (abc, ab, bc).
	if IsSubtree(d, parse(t, u, "ab, bc")) {
		t.Error("(ab,bc) should not be a subtree of (abc,ab,bc)")
	}
	// But (abc, ab) is: hang ab and bc off abc.
	if !IsSubtree(d, parse(t, u, "abc, ab")) {
		t.Error("(abc,ab) should be a subtree")
	}
	// D is always a subtree of itself (if a tree schema).
	if !IsSubtree(d, d) {
		t.Error("D should be a subtree of D")
	}
	// Not a sub-multiset → false.
	if IsSubtree(d, parse(t, u, "cd")) {
		t.Error("foreign relation accepted")
	}
	// Cyclic D → false even for D' = D.
	ring := parse(t, u, "ab, bc, ac")
	if IsSubtree(ring, ring) {
		t.Error("cyclic schema has no subtrees")
	}
	// Empty D' is trivially a subtree.
	if !IsSubtree(d, &schema.Schema{U: u}) {
		t.Error("empty sub-schema should be a subtree")
	}
}

func TestEnumerateQualTreesEarlyStop(t *testing.T) {
	u := schema.NewUniverse()
	d := parse(t, u, "ab, b, bc") // plenty of qual trees
	count := 0
	EnumerateQualTrees(d, func(*graph.Undirected) bool {
		count++
		return false
	})
	if count != 1 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestQualTreeEmptyAndSingle(t *testing.T) {
	u := schema.NewUniverse()
	empty := &schema.Schema{U: u}
	if tr, ok := QualTreeMST(empty); !ok || tr.N() != 0 {
		t.Error("empty schema should have the empty qual tree")
	}
	single := parse(t, u, "ab")
	if tr, ok := QualTreeMST(single); !ok || tr.N() != 1 {
		t.Error("singleton schema should have the one-node qual tree")
	}
	if tr, ok := QualTreeGYO(single); !ok || tr.N() != 1 {
		t.Error("GYO singleton failed")
	}
}

// weightedEdge and maxSpanningForest are the complete-graph Kruskal
// QualTreeMST replaced, kept as its oracle: every pair of vertices is a
// candidate, zero weights included, sorted by (weight desc, U, V).
type weightedEdge struct {
	U, V   int
	Weight int
}

func maxSpanningForest(n int, edges []weightedEdge) *graph.Undirected {
	sorted := append([]weightedEdge(nil), edges...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Weight != sorted[j].Weight {
			return sorted[i].Weight > sorted[j].Weight
		}
		if sorted[i].U != sorted[j].U {
			return sorted[i].U < sorted[j].U
		}
		return sorted[i].V < sorted[j].V
	})
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	t := graph.NewUndirected(n)
	for _, e := range sorted {
		ru, rv := find(e.U), find(e.V)
		if ru != rv {
			parent[ru] = rv
			t.MustAddEdge(e.U, e.V)
		}
	}
	return t
}

// refQualTreeMST is QualTreeMST as it was: Kruskal on the complete
// graph over the kept relations, and IsQualGraph on the forest and on
// the lifted tree.
func refQualTreeMST(d *schema.Schema) (*graph.Undirected, bool) {
	n := len(d.Rels)
	if n == 0 {
		return graph.NewUndirected(0), true
	}
	kept, parentOf := refReduceWithParents(d)
	var edges []weightedEdge
	for i := 0; i < len(kept); i++ {
		for j := i + 1; j < len(kept); j++ {
			edges = append(edges, weightedEdge{i, j, d.Rels[kept[i]].IntersectCard(d.Rels[kept[j]])})
		}
	}
	sub := maxSpanningForest(len(kept), edges)
	if !IsQualGraph(d.Restrict(kept), sub) {
		return nil, false
	}
	t := graph.NewUndirected(n)
	for _, e := range sub.Edges() {
		t.MustAddEdge(kept[e[0]], kept[e[1]])
	}
	for child, parent := range parentOf {
		if parent >= 0 {
			t.MustAddEdge(child, parent)
		}
	}
	if !IsQualGraph(d, t) {
		panic("lifted tree lost the qual property")
	}
	return t, true
}

// refReduceWithParents is reduceWithParents as it was, for
// refQualTreeMST.
func refReduceWithParents(d *schema.Schema) (kept []int, parentOf []int) {
	n := len(d.Rels)
	parentOf = make([]int, n)
	eliminated := make([]bool, n)
	for i := 0; i < n; i++ {
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

func TestMaxSpanningForest(t *testing.T) {
	// Square with a heavy diagonal: MST must keep the weight-5 diagonal.
	edges := []weightedEdge{
		{0, 1, 2}, {1, 2, 2}, {2, 3, 2}, {3, 0, 2}, {0, 2, 5},
	}
	t1 := maxSpanningForest(4, edges)
	if !t1.IsTree() {
		t.Fatal("not a tree")
	}
	if !t1.HasEdge(0, 2) {
		t.Error("max spanning tree dropped the heaviest edge")
	}
	// Weight-0 edges still connect components.
	t2 := maxSpanningForest(3, []weightedEdge{{0, 1, 0}, {1, 2, 0}})
	if !t2.IsTree() {
		t.Error("zero-weight edges should still produce a spanning tree")
	}
	// Deterministic under permutation of input.
	perm := []weightedEdge{{3, 0, 2}, {0, 2, 5}, {2, 3, 2}, {0, 1, 2}, {1, 2, 2}}
	t3 := maxSpanningForest(4, perm)
	if !reflect.DeepEqual(t1.Edges(), t3.Edges()) {
		t.Error("maxSpanningForest not deterministic")
	}
	// The same cases as schemas through QualTreeMST: the corners of the
	// square share two attributes with each other corner and five with
	// the opposite one, and three disjoint relations are joined by
	// zero-weight edges from the first.
	u := schema.NewUniverse()
	sq := parse(t, u, "pqrsta, pqc, pqrstb, pqd")
	mst, ok := QualTreeMST(sq)
	if !ok || !mst.HasEdge(0, 2) {
		t.Errorf("square: QualTreeMST = %v, %v; want the heavy diagonal", mst, ok)
	}
	apart := parse(t, u, "ab, cd, ef")
	if mst, ok := QualTreeMST(apart); !ok || !reflect.DeepEqual(mst.Edges(), [][2]int{{0, 1}, {0, 2}}) {
		t.Errorf("disjoint: QualTreeMST = %v, %v; want zero-weight edges from R0", mst, ok)
	}
}

// TestQualTreeMSTMatchesCompleteGraph holds QualTreeMST to
// refQualTreeMST on random schemas, cyclic ones included: the same ok
// and, for trees, the same Neighbors lists in the same order.
func TestQualTreeMSTMatchesCompleteGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	trees := 0
	for trial := 0; trial < 20_000; trial++ {
		var d *schema.Schema
		switch trial % 4 {
		case 0:
			d = gen.RandomSchema(rng, 1+rng.Intn(8), 1+rng.Intn(7), 0.2+0.5*rng.Float64())
		case 1:
			d = gen.TreeSchema(rng, 1+rng.Intn(9), 2, 1+rng.Intn(2))
		case 2:
			d = gen.RingWithTails(3+rng.Intn(3), rng.Intn(3))
		default:
			// A tree schema with copies, subsets and a disjoint part.
			d = gen.TreeSchema(rng, 1+rng.Intn(6), 2, 2)
			for k := rng.Intn(4); k > 0; k-- {
				r := d.Rels[rng.Intn(len(d.Rels))]
				d.Add(gen.RandomAttrSubset(rng, r, 0.6))
			}
			d.Add(schema.AttrSet{})
			if rng.Intn(2) == 0 {
				d.Add(d.U.Set("zz", "zy"))
			}
			rng.Shuffle(len(d.Rels), func(i, j int) { d.Rels[i], d.Rels[j] = d.Rels[j], d.Rels[i] })
		}
		want, wantOK := refQualTreeMST(d)
		got, ok := QualTreeMST(d)
		if ok != wantOK {
			t.Fatalf("%s: ok = %v, complete-graph Kruskal says %v", d, ok, wantOK)
		}
		if !ok {
			continue
		}
		trees++
		for v := 0; v < len(d.Rels); v++ {
			if !slices.Equal(got.Neighbors(v), want.Neighbors(v)) {
				t.Fatalf("%s: Neighbors(%d) = %v, complete-graph Kruskal gives %v", d, v, got.Neighbors(v), want.Neighbors(v))
			}
		}
	}
	if trees < 5_000 {
		t.Fatalf("only %d of the schemas were trees", trees)
	}
}
