package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

func mustPath(t *testing.T, g *Undirected, u, v int) []int {
	t.Helper()
	p, ok := g.Path(u, v)
	if !ok {
		t.Fatalf("no path %d→%d", u, v)
	}
	return p
}

func TestEdgesBasics(t *testing.T) {
	g := NewUndirected(4)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(2, 1)
	if !g.HasEdge(1, 0) || !g.HasEdge(1, 2) || g.HasEdge(0, 2) {
		t.Error("HasEdge wrong")
	}
	if g.EdgeCount() != 2 {
		t.Errorf("EdgeCount = %d", g.EdgeCount())
	}
	if g.Degree(1) != 2 || g.Degree(3) != 0 {
		t.Error("Degree wrong")
	}
	if got := g.Edges(); !reflect.DeepEqual(got, [][2]int{{0, 1}, {1, 2}}) {
		t.Errorf("Edges = %v", got)
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := NewUndirected(3)
	if err := g.AddEdge(0, 0); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(0, 5); err == nil {
		t.Error("out-of-range accepted")
	}
	g.MustAddEdge(0, 1)
	if err := g.AddEdge(1, 0); err == nil {
		t.Error("duplicate edge accepted")
	}
}

func TestConnectivityAndTrees(t *testing.T) {
	g := NewUndirected(5)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(3, 4)
	if g.Connected() {
		t.Error("disconnected graph claimed connected")
	}
	if g.IsTree() {
		t.Error("forest claimed tree")
	}
	if !g.IsForest() {
		t.Error("forest not recognized")
	}
	comps := g.Components()
	if len(comps) != 2 || !reflect.DeepEqual(comps[0], []int{0, 1, 2}) {
		t.Errorf("Components = %v", comps)
	}
	g.MustAddEdge(2, 3)
	if !g.IsTree() {
		t.Error("tree not recognized")
	}
	g.MustAddEdge(0, 4)
	if g.IsTree() || g.IsForest() {
		t.Error("cycle not detected")
	}
	if NewUndirected(0).IsTree() == false {
		t.Error("empty graph should be a tree")
	}
	if NewUndirected(1).IsTree() == false {
		t.Error("single vertex should be a tree")
	}
}

func TestConnectedOn(t *testing.T) {
	g := NewUndirected(5)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	in := map[int]bool{0: true, 1: true, 3: true}
	if g.ConnectedOn(func(v int) bool { return in[v] }) {
		t.Error("0,1,3 without 2 should be disconnected")
	}
	in[2] = true
	if !g.ConnectedOn(func(v int) bool { return in[v] }) {
		t.Error("0..3 should be connected")
	}
	if !g.ConnectedOn(func(v int) bool { return false }) {
		t.Error("empty induced subgraph should be connected")
	}
	if !g.ConnectedOn(func(v int) bool { return v == 4 }) {
		t.Error("single vertex should be connected")
	}
}

func TestPath(t *testing.T) {
	g := NewUndirected(6)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(1, 2)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(1, 4)
	p := mustPath(t, g, 0, 3)
	if !reflect.DeepEqual(p, []int{0, 1, 2, 3}) {
		t.Errorf("Path = %v", p)
	}
	if !reflect.DeepEqual(mustPath(t, g, 2, 2), []int{2}) {
		t.Error("trivial path wrong")
	}
	if _, ok := g.Path(0, 5); ok {
		t.Error("path to isolated vertex found")
	}
}

func TestClone(t *testing.T) {
	g := NewUndirected(3)
	g.MustAddEdge(0, 1)
	h := g.Clone()
	h.MustAddEdge(1, 2)
	if g.HasEdge(1, 2) {
		t.Error("Clone shares storage")
	}
	if !h.HasEdge(0, 1) {
		t.Error("Clone lost edge")
	}
}

func TestSpanningTreesCayley(t *testing.T) {
	// Cayley's formula: K_n has n^(n-2) spanning trees.
	for n, want := range map[int]int{2: 1, 3: 3, 4: 16, 5: 125} {
		k := NewUndirected(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				k.MustAddEdge(i, j)
			}
		}
		count := 0
		k.SpanningTrees(func(edges [][2]int) bool {
			count++
			// Every enumerated edge set must be a spanning tree.
			tr := NewUndirected(n)
			for _, e := range edges {
				tr.MustAddEdge(e[0], e[1])
			}
			if !tr.IsTree() {
				t.Fatalf("enumerated non-tree %v", edges)
			}
			return true
		})
		if count != want {
			t.Errorf("K_%d spanning trees = %d, want %d", n, count, want)
		}
	}
}

func TestSpanningTreesEarlyStopAndDisconnected(t *testing.T) {
	k := NewUndirected(4)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			k.MustAddEdge(i, j)
		}
	}
	count := 0
	k.SpanningTrees(func([][2]int) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("early stop visited %d", count)
	}
	disc := NewUndirected(3)
	disc.MustAddEdge(0, 1)
	disc.SpanningTrees(func([][2]int) bool {
		t.Error("disconnected graph yielded a spanning tree")
		return false
	})
}

func TestSpanningTreesRandomAgree(t *testing.T) {
	// Kirchhoff cross-check on random graphs: count spanning trees by
	// enumeration and compare against the Matrix-Tree theorem computed
	// with integer Gaussian elimination via fraction-free determinant.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(4)
		g := NewUndirected(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(2) == 0 {
					g.MustAddEdge(i, j)
				}
			}
		}
		count := 0
		g.SpanningTrees(func([][2]int) bool { count++; return true })
		if want := kirchhoff(g); count != want {
			t.Fatalf("trial %d: enumerated %d trees, Kirchhoff says %d (n=%d edges=%v)",
				trial, count, want, n, g.Edges())
		}
	}
}

// kirchhoff counts spanning trees via the Matrix-Tree theorem using
// Bareiss fraction-free elimination (exact over int64 at these sizes).
func kirchhoff(g *Undirected) int {
	n := g.N()
	if n <= 1 {
		return 1
	}
	m := make([][]int64, n-1)
	for i := range m {
		m[i] = make([]int64, n-1)
	}
	for i := 0; i < n-1; i++ {
		m[i][i] = int64(g.Degree(i))
		for _, j := range g.Neighbors(i) {
			if j < n-1 {
				m[i][j] = -1
			}
		}
	}
	prev := int64(1)
	for k := 0; k < n-1; k++ {
		if m[k][k] == 0 {
			swapped := false
			for r := k + 1; r < n-1; r++ {
				if m[r][k] != 0 {
					m[k], m[r] = m[r], m[k]
					for c := range m[k] {
						m[k][c] = -m[k][c]
					}
					swapped = true
					break
				}
			}
			if !swapped {
				return 0
			}
		}
		for i := k + 1; i < n-1; i++ {
			for j := k + 1; j < n-1; j++ {
				m[i][j] = (m[i][j]*m[k][k] - m[i][k]*m[k][j]) / prev
			}
			m[i][k] = 0
		}
		prev = m[k][k]
	}
	return int(m[n-2][n-2])
}
