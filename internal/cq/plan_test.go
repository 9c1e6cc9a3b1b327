package cq

import (
	"testing"

	"gyokit/internal/program"
	"gyokit/internal/relation"
)

func TestCompileKinds(t *testing.T) {
	cases := []struct {
		query string
		kind  Kind
	}{
		// Head covers an atom's full width plus a dangling variable: the
		// hypergraph plus the head edge stays a tree.
		{"ans(X, Y) :- ab(X, Y), bc(Y, Z).", KindFreeConnex},
		// The classic π_{x,z}(R ⋈ S): acyclic, but the head edge {X,Z}
		// closes the triangle.
		{"ans(X, Z) :- ab(X, Y), bc(Y, Z).", KindAcyclic},
		// The full join of a tree schema is always free-connex.
		{"ans(X, Y, Z) :- ab(X, Y), bc(Y, Z).", KindFreeConnex},
		// Endpoints of a length-3 chain: the head edge {A,D} closes a
		// 4-cycle.
		{"ans(A, D) :- ab(A, B), bc(B, C), cd(C, D).", KindAcyclic},
		// The triangle is cyclic before the head even enters.
		{"ans(X, Y) :- ab(X, Y), bc(Y, Z), ca(Z, X).", KindCyclic},
		// A single atom is trivially free-connex.
		{"ans(X) :- ab(X, Y).", KindFreeConnex},
	}
	for _, c := range cases {
		comp, err := Compile(c.query)
		if err != nil {
			t.Errorf("Compile(%q): %v", c.query, err)
			continue
		}
		if comp.Kind != c.kind {
			t.Errorf("Compile(%q).Kind = %s, want %s", c.query, comp.Kind, c.kind)
		}
		if c.kind == KindCyclic && comp.Root != -1 {
			t.Errorf("cyclic plan has root %d, want -1", comp.Root)
		}
	}
}

// maxStmtWidth is the widest schema any program statement materializes
// — the quantity free-connex rooting keeps bounded.
func maxStmtWidth(p *program.Program) int {
	max := 0
	n := len(p.D.Rels)
	for i := range p.Stmts {
		if w := p.SchemaOf(n + i).Card(); w > max {
			max = w
		}
	}
	return max
}

// TestFreeConnexPlanGolden is the plan-shape proof for the free-connex
// path: with the head {X, Y} covering atom ab entirely, rooting the
// Yannakakis reduction at ab keeps every intermediate at width ≤ 2 —
// the full join {X, Y, Z} never materializes. The same body with head
// {X, Z} (not free-connex) has no such root, and its plan provably
// widens to 3.
func TestFreeConnexPlanGolden(t *testing.T) {
	fc := MustCompile("ans(X, Y) :- ab(X, Y), bc(Y, Z).")
	if fc.Kind != KindFreeConnex {
		t.Fatalf("kind = %s, want free-connex", fc.Kind)
	}
	if fc.Root != 0 {
		t.Fatalf("root = %d, want 0 (the atom covering both head variables)", fc.Root)
	}
	if w := maxStmtWidth(fc.Prog); w > 2 {
		t.Errorf("free-connex plan materializes width %d > 2: projections were not pushed below the joins\n%v",
			w, fc.Prog)
	}

	ac := MustCompile("ans(X, Z) :- ab(X, Y), bc(Y, Z).")
	if ac.Kind != KindAcyclic {
		t.Fatalf("kind = %s, want acyclic", ac.Kind)
	}
	if w := maxStmtWidth(ac.Prog); w != 3 {
		t.Errorf("non-free-connex fallback plan has max width %d, want 3 (the full join)", w)
	}
}

// relFor fills one body atom's relation with the given rows (columns in
// the atom's sorted-variable order).
func relFor(c *Compiled, i int, rows [][]relation.Value) *relation.Relation {
	r := relation.New(c.U, c.D.Rels[i])
	for _, row := range rows {
		r.Insert(relation.Tuple(row))
	}
	return r
}

func evalCompiled(t *testing.T, c *Compiled, db *relation.Database) *relation.Relation {
	t.Helper()
	out, _, err := c.Prog.Eval(db)
	if err != nil {
		t.Fatalf("evaluating %q: %v", c.Canonical, err)
	}
	return out
}

// TestPlanCorrectness checks each plan kind against the naive
// join-everything-then-project plan on the same data.
func TestPlanCorrectness(t *testing.T) {
	queries := []string{
		"ans(X, Y) :- ab(X, Y), bc(Y, Z).",
		"ans(X, Z) :- ab(X, Y), bc(Y, Z).",
		"ans(X, Y, Z) :- ab(X, Y), bc(Y, Z).",
		"ans(X, Y) :- ab(X, Y), bc(Y, Z), ca(Z, X).",
	}
	for _, qt := range queries {
		c := MustCompile(qt)
		db := &relation.Database{D: c.D}
		for i := range c.D.Rels {
			// Small overlapping binary relations: every atom in these
			// queries is binary, and the value ranges make joins both hit
			// and miss.
			rows := [][]relation.Value{{1, 2}, {2, 3}, {3, 4}, {2, 2}, {5, 9}}
			db.Rels = append(db.Rels, relFor(c, i, rows))
		}
		got := evalCompiled(t, c, db)

		naive, err := program.NaivePlan(c.D, c.Head)
		if err != nil {
			t.Fatalf("NaivePlan(%q): %v", qt, err)
		}
		want, _, err := naive.Eval(db)
		if err != nil {
			t.Fatalf("naive eval(%q): %v", qt, err)
		}
		if !got.Equal(want) {
			t.Errorf("%q: compiled plan disagrees with naive plan:\ngot  %v\nwant %v", qt, got, want)
		}
	}
}
