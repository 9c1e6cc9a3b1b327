// Package graph provides the small undirected-graph substrate used by
// qual graphs, join trees, and the γ-acyclicity tests: adjacency
// structures, connectivity, spanning trees, and tree path queries.
package graph

import (
	"fmt"
	"sort"
)

// Undirected is a simple undirected graph on vertices 0..n-1.
// Parallel edges and self-loops are rejected.
type Undirected struct {
	n   int
	adj [][]int
}

// NewUndirected returns an edgeless graph with n vertices. Adjacency
// lists start in one block, two slots each: a tree's mean degree.
func NewUndirected(n int) *Undirected {
	adj, block := make([][]int, n), make([]int, 2*n)
	for u := range adj {
		adj[u] = block[2*u : 2*u : 2*u+2]
	}
	return &Undirected{n: n, adj: adj}
}

// N returns the number of vertices.
func (g *Undirected) N() int { return g.n }

// AddEdge inserts edge {u, v}. Adding an existing edge or a self-loop is
// an error.
func (g *Undirected) AddEdge(u, v int) error {
	if u < 0 || v < 0 || u >= g.n || v >= g.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at %d", u)
	}
	if g.HasEdge(u, v) {
		return fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
	}
	g.adj[u] = append(g.adj[u], v)
	g.adj[v] = append(g.adj[v], u)
	return nil
}

// MustAddEdge is AddEdge that panics on error.
func (g *Undirected) MustAddEdge(u, v int) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// HasEdge reports whether {u, v} is an edge.
func (g *Undirected) HasEdge(u, v int) bool {
	if u < 0 || u >= g.n {
		return false
	}
	for _, w := range g.adj[u] {
		if w == v {
			return true
		}
	}
	return false
}

// Neighbors returns the adjacency list of u (shared slice; do not modify).
func (g *Undirected) Neighbors(u int) []int { return g.adj[u] }

// Degree returns the degree of u.
func (g *Undirected) Degree(u int) int { return len(g.adj[u]) }

// EdgeCount returns the number of edges.
func (g *Undirected) EdgeCount() int {
	m := 0
	for _, a := range g.adj {
		m += len(a)
	}
	return m / 2
}

// Edges returns all edges as ordered pairs (u < v), sorted.
func (g *Undirected) Edges() [][2]int {
	var out [][2]int
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// ConnectedOn reports whether the subgraph induced by the vertex set
// `in` (given as a membership predicate over all vertices) is connected.
// An induced subgraph with no vertices is considered connected.
func (g *Undirected) ConnectedOn(in func(int) bool) bool {
	start := -1
	total := 0
	for v := 0; v < g.n; v++ {
		if in(v) {
			total++
			if start < 0 {
				start = v
			}
		}
	}
	if total <= 1 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []int{start}
	seen[start] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range g.adj[u] {
			if in(v) && !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == total
}

// Connected reports whether the whole graph is connected (vacuously true
// for n ≤ 1).
func (g *Undirected) Connected() bool {
	return g.ConnectedOn(func(int) bool { return true })
}

// IsTree reports whether the graph is a tree: connected with n-1 edges.
// The empty graph and single vertices are trees.
func (g *Undirected) IsTree() bool {
	if g.n == 0 {
		return true
	}
	return g.EdgeCount() == g.n-1 && g.Connected()
}

// IsForest reports whether the graph is acyclic.
func (g *Undirected) IsForest() bool {
	comp := g.Components()
	return g.EdgeCount() == g.n-len(comp)
}

// Components returns the connected components as sorted vertex lists.
func (g *Undirected) Components() [][]int {
	seen := make([]bool, g.n)
	var out [][]int
	for s := 0; s < g.n; s++ {
		if seen[s] {
			continue
		}
		var comp []int
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, v := range g.adj[u] {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		sort.Ints(comp)
		out = append(out, comp)
	}
	return out
}

// Path returns the unique path from u to v if the graph is a forest and
// they are connected, as a vertex sequence starting at u and ending at v.
// ok is false when no path exists. On graphs with cycles it returns some
// shortest path (BFS).
func (g *Undirected) Path(u, v int) (path []int, ok bool) {
	if u == v {
		return []int{u}, true
	}
	prev := make([]int, g.n)
	for i := range prev {
		prev[i] = -1
	}
	queue := []int{u}
	prev[u] = u
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, y := range g.adj[x] {
			if prev[y] == -1 {
				prev[y] = x
				if y == v {
					var rev []int
					for c := v; c != u; c = prev[c] {
						rev = append(rev, c)
					}
					rev = append(rev, u)
					for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
						rev[i], rev[j] = rev[j], rev[i]
					}
					return rev, true
				}
				queue = append(queue, y)
			}
		}
	}
	return nil, false
}

// Clone returns a deep copy.
func (g *Undirected) Clone() *Undirected {
	h := NewUndirected(g.n)
	for u := 0; u < g.n; u++ {
		for _, v := range g.adj[u] {
			if u < v {
				h.adj[u] = append(h.adj[u], v)
				h.adj[v] = append(h.adj[v], u)
			}
		}
	}
	return h
}

// SpanningTrees enumerates all spanning trees of the graph, calling
// yield for each (as an edge list). It is exponential and intended for
// small graphs (used by qual-tree enumeration in tests). Enumeration
// stops early if yield returns false.
func (g *Undirected) SpanningTrees(yield func(edges [][2]int) bool) {
	if g.n == 0 {
		yield(nil)
		return
	}
	if !g.Connected() {
		return
	}
	all := g.Edges()
	need := g.n - 1
	chosen := make([][2]int, 0, need)
	parent := make([]int, g.n)
	var rec func(start int) bool
	var find func([]int, int) int
	find = func(p []int, i int) int {
		for p[i] != i {
			p[i] = p[p[i]]
			i = p[i]
		}
		return i
	}
	rec = func(start int) bool {
		if len(chosen) == need {
			return yield(append([][2]int(nil), chosen...))
		}
		if need-len(chosen) > len(all)-start {
			return true
		}
		for i := start; i < len(all); i++ {
			e := all[i]
			// Rebuild union-find for the chosen set plus e.
			for v := range parent {
				parent[v] = v
			}
			ok := true
			for _, c := range chosen {
				ru, rv := find(parent, c[0]), find(parent, c[1])
				parent[ru] = rv
			}
			ru, rv := find(parent, e[0]), find(parent, e[1])
			if ru == rv {
				ok = false
			} else {
				parent[ru] = rv
			}
			if !ok {
				continue
			}
			chosen = append(chosen, e)
			if !rec(i + 1) {
				return false
			}
			chosen = chosen[:len(chosen)-1]
		}
		return true
	}
	rec(0)
}
