package program

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"gyokit/internal/gen"
	"gyokit/internal/qualgraph"
	"gyokit/internal/relation"
	"gyokit/internal/schema"
)

// planText renders every field of every statement (Kind, Left, Right,
// Proj), one statement per line, so a golden comparison is exact.
func planText(p *Program) string {
	var b strings.Builder
	for _, s := range p.Stmts {
		fmt.Fprintf(&b, "%s %d %d %s\n", s.Kind, s.Left, s.Right, p.D.U.FormatSet(s.Proj))
	}
	return b.String()
}

// cyclicShape is a cyclic schema d and head x of plan_shapes.golden.
type cyclicShape struct {
	name string
	d    *schema.Schema
	x    schema.AttrSet
}

// cyclicGoldenShapes returns the cyclic shapes of plan_shapes.golden, in
// its order: the rings of 3 to 6 relations, then a triangle with a tail
// and a triangle with a relation inside another.
func cyclicGoldenShapes(t *testing.T) []cyclicShape {
	var shapes []cyclicShape
	for n := 3; n <= 6; n++ {
		d := gen.Ring(n)
		attrs := d.Attrs().Attrs()
		shapes = append(shapes, cyclicShape{fmt.Sprintf("ring%d", n), d, schema.NewAttrSet(attrs[0], attrs[n/2])})
	}
	u := schema.NewUniverse()
	return append(shapes,
		cyclicShape{"ab,bc,cd,de,ac x=ab", parse(t, u, "ab, bc, cd, de, ac"), u.Set("a", "b")},
		cyclicShape{"ab,bc,ac,a x=ab", parse(t, u, "ab, bc, ac, a"), u.Set("a", "b")})
}

// TestCyclicPlansOnInconsistentData runs the plan of every cyclic shape
// of plan_shapes.golden on gen.Inconsistent's database for it — checked
// by brute force to be pairwise consistent with an empty join — the
// input a plan that trusted pairwise semijoins on a cyclic schema would
// get wrong. Every semijoin between two of its relations keeps every row,
// and the plan, whose ∪GR bag streams through JoinFilter, answers ∅ with
// card 0, whole and counted.
func TestCyclicPlansOnInconsistentData(t *testing.T) {
	ex := relation.NewExec()
	for _, sh := range cyclicGoldenShapes(t) {
		rels, ok := gen.Inconsistent(sh.d)
		if !ok {
			t.Fatalf("%s: no inconsistent database", sh.name)
		}
		if err := gen.CheckInconsistent(sh.d, rels); err != nil {
			t.Fatalf("%s: %v", sh.name, err)
		}
		db := &relation.Database{D: sh.d}
		for i, r := range sh.d.Rels {
			rel := relation.New(sh.d.U, r)
			for _, tp := range rels[i] {
				row := make(relation.Tuple, len(tp))
				for k, v := range tp {
					row[k] = relation.Value(v)
				}
				rel.Insert(row)
			}
			db.Rels = append(db.Rels, rel)
		}
		db.Freeze()
		for i, ri := range db.Rels {
			for j, rj := range db.Rels {
				if kept := ex.Semijoin(ri, rj).Card(); i != j && kept != ri.Card() {
					t.Errorf("%s: %s ⋉ %s keeps %d of %d rows", sh.name, sh.d.U.FormatSet(sh.d.Rels[i]), sh.d.U.FormatSet(sh.d.Rels[j]), kept, ri.Card())
				}
			}
		}
		p, err := CyclicPlan(sh.d, sh.x)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{relation.All, 1} {
			out, st, err := p.Run(db, ex, Limits{}, k)
			if err != nil || out.Card() != 0 || st.AnswerCard() != 0 {
				t.Errorf("%s at k=%d: %v, %d rows, card %d; want ∅\n%s", sh.name, k, err, out.Card(), st.AnswerCard(), st.Table())
			}
		}
	}
}

// TestPlanShapeGolden pins the statement lists CyclicPlan,
// YannakakisRooted and FullReducer emit; a change to the file is a
// change of plan and is reviewed as one. The chain5 x=af shapes have
// every node live at every root, so they are the full 2(n−1)-semijoin
// programs and must not lose a statement to the answer-directed
// pruning, and the full reducer always runs both whole passes. The
// "answer" shapes are rooted by AnswerRoot and record what a head that
// leaves part of the tree dead costs: the upward pass over everything,
// then semijoins, joins and projections over the live subtree only. The
// cyclic shapes are the record of what the §4 strategy materializes and
// which relations it joins back (every ring and the triangle reduce to
// the one-node tree {∪GR}; a relation GYO eliminated as a subset stays
// a filter).
func TestPlanShapeGolden(t *testing.T) {
	var got strings.Builder
	add := func(name string, p *Program) {
		fmt.Fprintf(&got, "== %s\n%s", name, planText(p))
	}
	var p *Program
	var err error
	for _, sh := range cyclicGoldenShapes(t) {
		if p, err = CyclicPlan(sh.d, sh.x); err != nil {
			t.Fatal(err)
		}
		add("cyclic "+sh.name, p)
	}

	chain := gen.Chain(5)
	tr, ok := qualgraph.QualTree(chain)
	if !ok {
		t.Fatal("chain rejected")
	}
	attrs := chain.Attrs().Attrs()
	x := schema.NewAttrSet(attrs[0], attrs[len(attrs)-1])
	if p, err = YannakakisRooted(chain, x, tr, 0); err != nil {
		t.Fatal(err)
	}
	add("yannakakis chain5", p)
	for root := range chain.Rels {
		if p, err = YannakakisRooted(chain, x, tr, root); err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("yannakakis chain5 root%d", root), p)
	}
	answer := func(name string, d *schema.Schema, head ...string) {
		tr, ok := qualgraph.QualTree(d)
		if !ok {
			t.Fatalf("%s rejected", name)
		}
		x := d.U.Set(head...)
		root := AnswerRoot(d.Rels, tr, x)
		if p, err = YannakakisRooted(d, x, tr, root); err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("answer %s x=%s root=%s", name, d.U.FormatSet(x), d.U.FormatSet(d.Rels[root])), p)
	}
	answer("chain4", gen.Chain(4), "a", "b")
	answer("chain4", gen.Chain(4), "d")
	answer("chain3", gen.Chain(3), "a", "b", "c")
	answer("chain8", gen.Chain(8), "a", "b")
	answer("star4", gen.Star(4), "c")
	answer("star4", gen.Star(4), "c", "e")
	// A single relation: nothing to semijoin, so the program is the root
	// projection alone — the input is copied once, not twice.
	one := gen.Chain(1)
	tr1, _ := qualgraph.QualTree(one)
	if p, err = YannakakisRooted(one, one.Rels[0], tr1, 0); err != nil {
		t.Fatal(err)
	}
	add("yannakakis chain1", p)
	fr, cur, err := FullReducer(chain, tr)
	if err != nil {
		t.Fatal(err)
	}
	add("fullreducer chain5", fr)
	fmt.Fprintln(&got, "reduced", cur)

	want, err := os.ReadFile("testdata/plan_shapes.golden")
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			t.Fatalf("line %d: got %q, testdata/plan_shapes.golden differs", i+1, gl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("%d lines emitted, golden has %d", len(gl), len(wl))
	}
}
