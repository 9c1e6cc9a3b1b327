package program

import (
	"fmt"
	"sort"

	"gyokit/internal/gyo"
	"gyokit/internal/qualgraph"
	"gyokit/internal/schema"
)

// CyclicPlan implements the paper's §4 strategy for solving (D, X)
// when D is cyclic:
//
//  1. transform D into a tree schema by adding the single relation
//     schema ∪GR(D) — the optimal choice by Corollary 3.2;
//  2. build a state R_new for it with joins and projects: join, in
//     GreedyJoinOrder, the projections of the relations that survive in
//     GR(D), and project onto ∪GR(D);
//  3. solve the resulting tree schema with the answer-directed
//     Yannakakis program (see YannakakisRooted), rooted by AnswerRoot:
//     when x lies inside ∪GR(D) — or inside any one relation — that is
//     one semijoin per tree edge toward it and at most one projection.
//
// Step 3 runs over R_new plus only the relations that did not go into
// it whole. A survivor whose content is its whole schema Rᵢ satisfies
// R_new[Rᵢ] ⊆ rᵢ on every database, so joining it back is a no-op, and
// dropping a relation contained in another keeps the schema a tree
// (GYO's subset rule applied to Theorem 3.2(ii)). A survivor that lost
// attributes, and a relation GYO eliminated as a subset of another (a
// in "ab, bc, ac, a"), are real filters and stay.
//
// The returned program runs against databases for the ORIGINAL schema
// D and is correct on arbitrary databases (not just UR ones): R_new
// contains the corresponding projection of the full join. On a tree
// schema GR(D) is empty, nothing is materialized, and the program is
// Yannakakis over D itself.
func CyclicPlan(d *schema.Schema, x schema.AttrSet) (*Program, error) {
	if !x.SubsetOf(d.Attrs()) {
		return nil, fmt.Errorf("program: target %s ⊄ U(D)", d.U.FormatSet(x))
	}
	res := gyo.ReduceFull(d)

	// Step 1–2: materialize R_new = π_{∪GR}(⋈ of the GR survivors'
	// projections). Each survivor i currently holds attributes
	// res.GR.Rels[k] ⊆ d.Rels[i]; project the original relation down
	// first so the join runs on the cyclic core only.
	p := NewProgram(d)
	newRel := res.GR.Attrs()
	whole := make([]bool, len(d.Rels)) // went into R_new unprojected
	var core []int                     // the survivors to join: all of them, or none when GR(D) = ∅
	if !res.Empty() {
		core = inputIDs(len(res.GR.Rels))
	}
	acc := -1
	for _, k := range GreedyJoinOrder(res.GR, core) {
		id := res.Alive[k]
		if content := res.GR.Rels[k]; content.Equal(d.Rels[id]) {
			whole[id] = true
		} else {
			id = p.emit(Stmt{Kind: Project, Left: id, Proj: content})
		}
		if acc < 0 {
			acc = id
		} else {
			acc = p.emit(Stmt{Kind: Join, Left: acc, Right: id})
		}
	}
	if acc >= 0 && !p.SchemaOf(acc).Equal(newRel) {
		acc = p.emit(Stmt{Kind: Project, Left: acc, Proj: newRel})
	}

	// Step 3: Yannakakis over the tree schema (D minus the relations
	// R_new subsumes) ∪ (R_new), with acc as the state of R_new — the
	// program still expects databases for D alone.
	ext := schema.New(d.U)
	var cur []int
	for i, r := range d.Rels {
		if !whole[i] {
			ext.Add(r)
			cur = append(cur, i)
		}
	}
	if acc >= 0 {
		ext.Add(newRel)
		cur = append(cur, acc)
	}
	t, ok := qualgraph.QualTree(ext)
	if !ok {
		return nil, fmt.Errorf("program: internal: %s with ∪GR(D) added is not a tree schema — Theorem 3.2(ii) violated", d)
	}
	if err := emitYannakakis(p, ext.Rels, cur, t, AnswerRoot(ext.Rels, t, x), x); err != nil {
		return nil, err
	}
	return p, nil
}

// GreedyJoinOrder reorders the inputs of a multiway join by repeatedly
// picking the relation sharing the most attributes with what has been
// joined so far (breaking ties toward smaller schemas, then lower
// index). This is the classic heuristic that keeps natural joins from
// degenerating into cross products; CyclicPlan joins the cyclic core in
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
