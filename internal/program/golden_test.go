package program

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"gyokit/internal/gen"
	"gyokit/internal/qualgraph"
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

// TestPlanShapeGolden pins the statement lists CyclicPlan, Yannakakis,
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
	for n := 3; n <= 6; n++ {
		d := gen.Ring(n)
		attrs := d.Attrs().Attrs()
		p, err := CyclicPlan(d, schema.NewAttrSet(attrs[0], attrs[n/2]))
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("cyclic ring%d", n), p)
	}
	u := schema.NewUniverse()
	d := parse(t, u, "ab, bc, cd, de, ac")
	p, err := CyclicPlan(d, u.Set("a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	add("cyclic ab,bc,cd,de,ac x=ab", p)
	if p, err = CyclicPlan(parse(t, u, "ab, bc, ac, a"), u.Set("a", "b")); err != nil {
		t.Fatal(err)
	}
	add("cyclic ab,bc,ac,a x=ab", p)

	chain := gen.Chain(5)
	tr, ok := qualgraph.QualTree(chain)
	if !ok {
		t.Fatal("chain rejected")
	}
	attrs := chain.Attrs().Attrs()
	x := schema.NewAttrSet(attrs[0], attrs[len(attrs)-1])
	if p, err = Yannakakis(chain, x, tr); err != nil {
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
	if p, err = Yannakakis(one, one.Rels[0], tr1); err != nil {
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
