package program

import (
	"fmt"
	"sort"

	"gyokit/internal/graph"
	"gyokit/internal/gyo"
	"gyokit/internal/qualgraph"
	"gyokit/internal/schema"
)

// Decomposition is a plan's decision, before any statement is emitted:
// the tree schema Bags the program computes one state per bag of — the
// relations of D that stay bags, in D's order, then ∪GR(D) when D is
// cyclic — with Src[i] the inputs that build bag i (one whole relation
// of D, or, for ∪GR(D), the GYO survivors' projections joined in
// GreedyJoinOrder), Tree a qual tree for Bags and Root its AnswerRoot.
// D ≤ Bags ≤ P(D), so Bags is the tree projection witness of Theorem 6.1.
type Decomposition struct {
	Bags *schema.Schema
	Src  [][]InputRef
	Tree *graph.Undirected
	Root int
}

// Decompose decides the plan for (D, X) from res = GR(D), the GYO
// reduction of d with no sacred attributes: the paper's §4 strategy.
//
//  1. D is made a tree schema by adding the single relation schema
//     ∪GR(D) — the optimal choice by Corollary 3.2. Its state is built
//     with joins and projects: join, in GreedyJoinOrder, the projections
//     of the relations that survive in GR(D), and project onto ∪GR(D).
//  2. The bags are ∪GR(D) plus only the relations that did not go into
//     it whole. A survivor whose content is its whole schema Rᵢ
//     satisfies R_new[Rᵢ] ⊆ rᵢ on every database, so joining it back is
//     a no-op, and dropping a relation contained in another keeps the
//     schema a tree (GYO's subset rule applied to Theorem 3.2(ii)). A
//     survivor that lost attributes, and a relation GYO eliminated as a
//     subset of another (a in "ab, bc, ac, a"), are real filters and
//     stay.
//  3. The tree is rooted by AnswerRoot: when x lies inside ∪GR(D) — or
//     inside any one relation — Emit's program is one semijoin per tree
//     edge toward it and at most one projection.
//
// On a tree schema GR(D) is empty, nothing is materialized, and the bags
// are D itself.
func Decompose(d *schema.Schema, res *gyo.Result, x schema.AttrSet) (*Decomposition, error) {
	whole := make([]bool, len(d.Rels)) // goes into ∪GR(D) unprojected
	var core []InputRef
	if !res.Empty() {
		for _, k := range GreedyJoinOrder(res.GR, inputIDs(len(res.GR.Rels))) {
			in := InputRef{Rel: res.Alive[k]}
			if content := res.GR.Rels[k]; content.Equal(d.Rels[in.Rel]) {
				whole[in.Rel] = true
			} else {
				in.Proj = content
			}
			core = append(core, in)
		}
	}
	dec := &Decomposition{Bags: schema.New(d.U)}
	for i, r := range d.Rels {
		if !whole[i] {
			dec.Bags.Add(r)
			dec.Src = append(dec.Src, []InputRef{{Rel: i}})
		}
	}
	if core != nil {
		dec.Bags.Add(res.GR.Attrs())
		dec.Src = append(dec.Src, core)
	}
	t, ok := qualgraph.QualTree(dec.Bags)
	if !ok {
		return nil, fmt.Errorf("program: internal: %s with ∪GR(D) added is not a tree schema — Theorem 3.2(ii) violated", d)
	}
	dec.Tree, dec.Root = t, AnswerRoot(dec.Bags.Rels, t, x)
	return dec, nil
}

// Emit turns dec into the program solving (D, X) on arbitrary databases
// for d (not just UR ones): it builds each bag's state from its sources
// — the sources joined, then projected onto the bag where they are
// wider — and runs the answer-directed Yannakakis program (see
// YannakakisRooted) over the bags, with the built states as their
// relations.
func Emit(d *schema.Schema, dec *Decomposition, x schema.AttrSet) (*Program, error) {
	p := NewProgram(d)
	cur := make([]int, len(dec.Src))
	for i, src := range dec.Src {
		id, sch, err := p.emitJoin(src)
		if err != nil {
			return nil, err
		}
		if bag := dec.Bags.Rels[i]; !sch.Equal(bag) {
			id = p.emit(Stmt{Kind: Project, Left: id, Proj: bag})
		}
		cur[i] = id
	}
	if err := emitYannakakis(p, dec.Bags.Rels, cur, dec.Tree, dec.Root, x); err != nil {
		return nil, err
	}
	return p, nil
}

// CyclicPlan is the plan of Decompose and Emit for (D, X): the paper's
// §4 strategy when D is cyclic, and Yannakakis over D itself when D is
// a tree schema.
func CyclicPlan(d *schema.Schema, x schema.AttrSet) (*Program, error) {
	dec, err := Decompose(d, gyo.ReduceFull(d), x)
	if err != nil {
		return nil, err
	}
	return Emit(d, dec, x)
}

// GreedyJoinOrder reorders the inputs of a multiway join by repeatedly
// picking the relation sharing the most attributes with what has been
// joined so far (breaking ties toward smaller schemas, then lower
// index). This is the classic heuristic that keeps natural joins from
// degenerating into cross products; Decompose joins the cyclic core in
// this order.
func GreedyJoinOrder(d *schema.Schema, idx []int) []int {
	if len(idx) <= 1 {
		return append([]int(nil), idx...)
	}
	rest := append([]int(nil), idx...)
	// Start from the smallest relation schema.
	sort.Slice(rest, func(a, b int) bool {
		ca, cb := d.Rels[rest[a]].Card(), d.Rels[rest[b]].Card()
		if ca != cb {
			return ca < cb
		}
		return rest[a] < rest[b]
	})
	order := []int{rest[0]}
	joined := d.Rels[rest[0]].Clone()
	rest = rest[1:]
	for len(rest) > 0 {
		best := 0
		bestShared := -1
		for i, r := range rest {
			shared := joined.IntersectCard(d.Rels[r])
			if shared > bestShared ||
				(shared == bestShared && d.Rels[r].Card() < d.Rels[rest[best]].Card()) {
				best, bestShared = i, shared
			}
		}
		pick := rest[best]
		order = append(order, pick)
		joined = joined.Union(d.Rels[pick])
		rest = append(rest[:best], rest[best+1:]...)
	}
	return order
}
