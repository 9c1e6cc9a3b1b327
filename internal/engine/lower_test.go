package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"gyokit/internal/cq"
	"gyokit/internal/gen"
	"gyokit/internal/gyo"
	"gyokit/internal/program"
	"gyokit/internal/relation"
	"gyokit/internal/schema"
)

// randomDB fills every relation of d with its own random tuples: an
// arbitrary database, not the projection of one universal relation, so
// semijoins filter and a plan that leans on consistency shows.
func randomDB(d *schema.Schema, rng *rand.Rand, tuples, domain int) *relation.Database {
	db := &relation.Database{D: d}
	for _, r := range d.Rels {
		rel, _ := relation.RandomUniversal(d.U, r, tuples, domain, rng)
		db.Rels = append(db.Rels, rel)
	}
	return db
}

// writtenCQ spells the schema solve (d, x) in the query grammar: one
// atom per relation, variable "V<name>" per attribute, head x in
// attribute-id order. ok is false when the grammar cannot say it — a
// duplicated relation schema (every ab atom reads the first stored ab),
// an empty one, or one multi-character attribute alone (predicate
// "user" reads as u, s, e, r).
func writtenCQ(d *schema.Schema, x schema.AttrSet) (text string, ok bool) {
	atom := func(pred string, attrs []schema.Attr) string {
		vars := make([]string, len(attrs))
		for i, a := range attrs {
			vars[i] = "V" + d.U.Name(a)
		}
		return pred + "(" + strings.Join(vars, ", ") + ")"
	}
	var body []string
	for i, r := range d.Rels {
		for _, prev := range d.Rels[:i] {
			if prev.Equal(r) {
				return "", false
			}
		}
		attrs := r.Attrs()
		names := make([]string, len(attrs))
		compact := true
		for k, a := range attrs {
			names[k] = d.U.Name(a)
			compact = compact && len(names[k]) == 1
		}
		switch {
		case len(attrs) == 0, !compact && len(attrs) == 1:
			return "", false
		case compact:
			body = append(body, atom(strings.Join(names, ""), attrs))
		default:
			body = append(body, atom(strings.Join(names, "_"), attrs))
		}
	}
	return atom("ans", x.Attrs()) + " :- " + strings.Join(body, ", ") + ".", true
}

// rowsIn renders r's tuples with the columns in cols order, so answers
// over different universes (attributes vs query variables) compare.
func rowsIn(r *relation.Relation, cols []schema.Attr) map[string]bool {
	stored := r.Cols()
	out := make(map[string]bool, r.Card())
	for i := 0; i < r.Card(); i++ {
		row := r.TupleAt(i)
		t := make(relation.Tuple, len(cols))
		for j, c := range cols {
			t[j] = row[indexOfAttr(stored, c)]
		}
		out[fmt.Sprint(t)] = true
	}
	return out
}

func sameRows(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// targets returns every subset of attrs with 1 to 3 members.
func targets(attrs []schema.Attr) []schema.AttrSet {
	var out []schema.AttrSet
	for i := range attrs {
		out = append(out, schema.NewAttrSet(attrs[i]))
		for j := i + 1; j < len(attrs); j++ {
			out = append(out, schema.NewAttrSet(attrs[i], attrs[j]))
			for k := j + 1; k < len(attrs); k++ {
				out = append(out, schema.NewAttrSet(attrs[i], attrs[j], attrs[k]))
			}
		}
	}
	return out
}

// TestLoweredSolveDifferential checks the lowering against what it
// replaced. On tree and cyclic schemas, for every target of 1–3
// attributes and arbitrary (non-UR) databases, Engine.Solve(d, x), the
// same question hand-written as a conjunctive query through
// PrepareQuery, and the naive join-then-project plan must agree, with
// and without (generous) limits.
func TestLoweredSolveDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260928))
	cyclic := func() *schema.Schema {
		for {
			if d := gen.RandomSchema(rng, 4, 5, 0.5); !gyo.IsTree(d) {
				return d
			}
		}
	}
	schemas := []*schema.Schema{
		gen.Chain(4), gen.Star(4), gen.Ring(3), gen.Ring(5), gen.Clique(4),
		gen.TreeSchema(rng, 4, 2, 1), gen.TreeSchema(rng, 5, 2, 1), cyclic(), cyclic(),
		schema.MustParse(schema.NewUniverse(), "ab, bc, cd, de, ac"),
		schema.MustParse(schema.NewUniverse(), "ab, bc, ac, a"), // a is eliminated by GYO but still filters
		schema.MustParse(schema.NewUniverse(), "ab, ab, bc"),    // each ab binds its own state
		schema.MustParse(schema.NewUniverse(), "user id, id name, name user, user"),
	}
	generous := func() program.Limits {
		return program.Limits{MaxTuples: 1 << 30, Deadline: time.Now().Add(time.Minute)}
	}
	checked, written := 0, 0
	for _, d := range schemas {
		db := randomDB(d, rng, 14, 3)
		e := New(Options{})
		e.Swap(db)
		for _, x := range targets(d.Attrs().Attrs()) {
			cols := x.Attrs()
			naive, err := program.NaivePlan(d, x)
			if err != nil {
				t.Fatal(err)
			}
			ref, _, err := naive.Eval(db)
			if err != nil {
				t.Fatal(err)
			}
			want := rowsIn(ref, cols)
			name := fmt.Sprintf("%s x=%s", d, d.U.FormatSet(x))

			got, _, err := e.Solve(d, x)
			if err != nil {
				t.Fatalf("%s: Solve: %v", name, err)
			}
			if !sameRows(rowsIn(got, cols), want) {
				t.Fatalf("%s: Solve ≠ naive plan", name)
			}
			plans := map[string]*Plan{}
			if plans["lowered"], err = e.Plan(d, x); err != nil {
				t.Fatal(err)
			}
			if text, ok := writtenCQ(d, x); ok {
				if plans["written"], err = e.PrepareQuery(text); err != nil {
					t.Fatalf("%s: PrepareQuery(%q): %v", name, text, err)
				}
				if plans["written"].Kind != plans["lowered"].Kind {
					t.Errorf("%s: lowered plan is %s, written query %s", name, plans["lowered"].Kind, plans["written"].Kind)
				}
				written++
			}
			for how, pl := range plans {
				for _, lim := range []program.Limits{{}, generous()} {
					out, _, err := e.SolveQuery(pl, 1, lim)
					if err != nil {
						t.Fatalf("%s: %s plan: %v", name, how, err)
					}
					if !sameRows(rowsIn(out, pl.HeadIDs), want) {
						t.Fatalf("%s: %s plan ≠ naive plan", name, how)
					}
				}
			}
			checked++
		}
	}
	if checked < 250 || written < 250 {
		t.Fatalf("only %d (schema, target) pairs checked, %d against a written query", checked, written)
	}
}

// TestPlanCacheForeignUniverse: two universes that intern the same
// names in a different order produce equal bitsets for different
// relations ("ab, cd" as {0,1},{2,3} and "cd, ab" likewise). They must
// not share a plan — and each must answer in its own columns, against a
// snapshot stored under either.
func TestPlanCacheForeignUniverse(t *testing.T) {
	u1, u2 := schema.NewUniverse(), schema.NewUniverse()
	d1, d2 := schema.MustParse(u1, "ab, cd"), schema.MustParse(u2, "cd, ab")
	db := randomDB(d1, rand.New(rand.NewSource(3)), 10, 4)
	e := New(Options{})
	e.Swap(db)

	x1, x2 := u1.Set("a", "c"), u2.Set("a", "c")
	p1, err := e.Plan(d1, x1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e.Plan(d2, x2)
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatal("universes that name their ids differently share a plan")
	}
	if got := fmt.Sprint(p2.HeadVars); got != "[c a]" {
		t.Errorf("second universe's plan answers in columns %s, want [c a] (its id order)", got)
	}
	want := rowsIn(db.Eval(x1), []schema.Attr{u1.Attr("a"), u1.Attr("c")})
	for name, c := range map[string]struct {
		pl   *Plan
		a, c schema.Attr
	}{
		"first":  {p1, u1.Attr("a"), u1.Attr("c")},
		"second": {p2, u2.Attr("a"), u2.Attr("c")},
	} {
		out, _, err := e.SolveQuery(c.pl, 1, program.Limits{})
		if err != nil {
			t.Fatalf("%s universe: %v", name, err)
		}
		if !sameRows(rowsIn(out, []schema.Attr{c.a, c.c}), want) {
			t.Errorf("%s universe: wrong answer", name)
		}
	}
	// Same names, same ids, a third universe: that one does hit.
	u3 := schema.NewUniverse()
	p3, err := e.Plan(schema.MustParse(u3, "ab, cd"), u3.Set("a", "c"))
	if err != nil {
		t.Fatal(err)
	}
	if p3 != p1 {
		t.Error("a universe agreeing on names and ids missed the cache")
	}
	// A lowered key is not a query text, so no written query can be
	// served a lowered plan (or the reverse).
	if _, err := e.PrepareQuery(cq.LoweredText(d1, x1)); err == nil {
		t.Error("a lowered cache key parsed as a conjunctive query")
	}
}
