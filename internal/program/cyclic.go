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
//  2. build a state for the added schema with joins and projects
//     (joining the projections of the relations that survive in GR(D)
//     and projecting onto ∪GR(D)), which reduces the problem to the
//     tree case;
//  3. solve the resulting tree schema with the full-reducer +
//     Yannakakis program.
//
// The returned program runs against databases for the ORIGINAL schema
// D and is correct on arbitrary databases (not just UR ones): the
// materialized relation contains the corresponding projection of the
// full join, so joining it back changes nothing.
//
// For tree schemas it degrades gracefully to the plain Yannakakis
// program.
func CyclicPlan(d *schema.Schema, x schema.AttrSet) (*Program, error) {
	if !x.SubsetOf(d.Attrs()) {
		return nil, fmt.Errorf("program: target %s ⊄ U(D)", d.U.FormatSet(x))
	}
	res := gyo.ReduceFull(d)
	if res.Empty() {
		t, ok := qualgraph.QualTree(d)
		if !ok {
			return nil, fmt.Errorf("program: internal: GYO says tree, qualgraph disagrees on %s", d)
		}
		return Yannakakis(d, x, t)
	}

	// Step 1–2: materialize R_new = π_{∪GR}(⋈ of the GR survivors'
	// projections). Each survivor i currently holds attributes
	// res.GR.Rels[k] ⊆ d.Rels[i]; project the original relation down
	// first so the join runs on the cyclic core only.
	p := NewProgram(d)
	newRel := res.GR.Attrs()
	var ids []int
	for k, i := range res.Alive {
		content := res.GR.Rels[k]
		if content.IsEmpty() {
			continue
		}
		if content.Equal(d.Rels[i]) {
			ids = append(ids, i)
			continue
		}
		ids = append(ids, p.emit(Stmt{Kind: Project, Left: i, Proj: content}))
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("program: internal: cyclic schema with empty GR core")
	}
	acc := ids[0]
	for _, id := range ids[1:] {
		acc = p.emit(Stmt{Kind: Join, Left: acc, Right: id})
	}
	if !p.SchemaOf(acc).Equal(newRel) {
		acc = p.emit(Stmt{Kind: Project, Left: acc, Proj: newRel})
	}

	// Step 3: Yannakakis over the extended tree schema D ∪ (R_new)
	// (a tree schema by Theorem 3.2(ii)), with acc as the state of
	// R_new — the program still expects databases for D alone.
	ext := d.WithRel(newRel)
	t, ok := qualgraph.QualTree(ext)
	if !ok {
		return nil, fmt.Errorf("program: internal: D ∪ (∪GR(D)) not a tree schema — Theorem 3.2(ii) violated")
	}
	if err := emitYannakakis(p, ext.Rels, append(inputIDs(len(d.Rels)), acc), t, 0, x); err != nil {
		return nil, err
	}
	return p, nil
}

// GreedyJoinOrder reorders the inputs of a multiway join by repeatedly
// picking the relation sharing the most attributes with what has been
// joined so far (breaking ties toward smaller schemas, then lower
// index). This is the classic heuristic that keeps natural joins from
// degenerating into cross products; used as an ablation baseline in
// the benchmark suite.
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

// JoinProjectOrdered is JoinProject with an explicit join order given
// as indexes into inputs.
func JoinProjectOrdered(d *schema.Schema, x schema.AttrSet, inputs []InputRef, order []int) (*Program, error) {
	if len(order) != len(inputs) {
		return nil, fmt.Errorf("program: order length %d ≠ inputs %d", len(order), len(inputs))
	}
	reordered := make([]InputRef, len(inputs))
	for i, o := range order {
		if o < 0 || o >= len(inputs) {
			return nil, fmt.Errorf("program: order index %d out of range", o)
		}
		reordered[i] = inputs[o]
	}
	return JoinProject(d, x, reordered)
}
