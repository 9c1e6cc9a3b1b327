package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"gyokit/internal/program"
	"gyokit/internal/relation"
	"gyokit/internal/schema"
)

// queryEngine builds an engine serving the chain schema "ab, bc, cd"
// with small hand-set relations, so expected query answers can be
// computed in the test.
func queryEngine(t *testing.T) (*Engine, *schema.Universe) {
	t.Helper()
	u := schema.NewUniverse()
	d := schema.MustParse(u, "ab, bc, cd")
	db := &relation.Database{D: d}
	fill := func(set schema.AttrSet, rows []relation.Tuple) {
		r := relation.New(u, set)
		for _, row := range rows {
			r.Insert(row)
		}
		db.Rels = append(db.Rels, r)
	}
	fill(d.Rels[0], []relation.Tuple{{1, 10}, {2, 20}, {3, 30}})
	fill(d.Rels[1], []relation.Tuple{{10, 100}, {20, 200}, {99, 999}})
	fill(d.Rels[2], []relation.Tuple{{100, 7}, {200, 7}})
	e := New(Options{})
	e.Swap(db)
	return e, u
}

func TestPrepareQueryCache(t *testing.T) {
	e, _ := queryEngine(t)

	p1, err := e.PrepareQuery("ans(A, C) :- ab(A, B), bc(B, C).")
	if err != nil {
		t.Fatal(err)
	}
	// A whitespace variant canonicalizes to the same text and must hit.
	p2, err := e.PrepareQuery("ans(A,C):-ab(A,B),bc(B,C).")
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("whitespace variant of the same query missed the plan cache")
	}
	st := e.Stats()
	if st.PlanHits != 1 || st.PlanMisses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", st)
	}

	// A different query misses.
	if _, err := e.PrepareQuery("ans(A, B) :- ab(A, B)."); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.PlanMisses != 2 {
		t.Errorf("distinct query did not miss: %+v", st)
	}
}

func tupleSet(r *relation.Relation) map[string]bool {
	out := make(map[string]bool, r.Card())
	for i := 0; i < r.Card(); i++ {
		out[fmt.Sprint(r.TupleAt(i))] = true
	}
	return out
}

func TestSolveQuery(t *testing.T) {
	e, _ := queryEngine(t)

	cases := []struct {
		query string
		want  [][]relation.Value // expected tuples in the result's sorted-column order
	}{
		// Identity scan.
		{"ans(A, B) :- ab(A, B).", [][]relation.Value{{1, 10}, {2, 20}, {3, 30}}},
		// Column swap: the same relation addressed with swapped variables.
		{"ans(B, A) :- ab(A, B).", [][]relation.Value{{1, 10}, {2, 20}, {3, 30}}},
		// Two-hop join projected to the endpoints (acyclic, not free-connex).
		{"ans(A, C) :- ab(A, B), bc(B, C).", [][]relation.Value{{1, 100}, {2, 200}}},
		// Free-connex: head covers atom ab.
		{"ans(A, B) :- ab(A, B), bc(B, C).", [][]relation.Value{{1, 10}, {2, 20}}},
		// Full chain.
		{"ans(A, D) :- ab(A, B), bc(B, C), cd(C, D).", [][]relation.Value{{1, 7}, {2, 7}}},
		// Self-join of bc with itself: b→c chained twice has no matches
		// (no c value is also a b value), so the answer is empty.
		{"ans(X, Z) :- bc(X, Y), bc(Y, Z).", nil},
	}
	for _, c := range cases {
		pl, err := e.PrepareQuery(c.query)
		if err != nil {
			t.Errorf("PrepareQuery(%q): %v", c.query, err)
			continue
		}
		out, st, err := e.SolveQuery(pl, 1, program.Limits{})
		if err != nil {
			t.Errorf("SolveQuery(%q): %v", c.query, err)
			continue
		}
		if st == nil {
			t.Errorf("SolveQuery(%q): nil stats", c.query)
		}
		got := tupleSet(out)
		if len(got) != len(c.want) {
			t.Errorf("%q: card = %d, want %d (%v)", c.query, out.Card(), len(c.want), out)
			continue
		}
		for _, w := range c.want {
			if !got[fmt.Sprint(relation.Tuple(w))] {
				t.Errorf("%q: missing tuple %v in %v", c.query, w, out)
			}
		}
	}

	// SolveQuery's middle argument (once a shard count) is ignored.
	pl, err := e.PrepareQuery("ans(A, D) :- ab(A, B), bc(B, C), cd(C, D).")
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := e.SolveQuery(pl, 4, program.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Card() != 2 {
		t.Errorf("SolveQuery(pl, 4, …) card = %d, want 2", out.Card())
	}
}

func TestSolveQueryBindErrors(t *testing.T) {
	e, _ := queryEngine(t)

	cases := []struct {
		query, frag string
	}{
		{"ans(X, Y) :- zq(X, Y).", "not in serving schema"},
		{"ans(X, Y) :- ba(X, Y).", "not in serving schema"}, // ba ≡ ab as a set… but attribute order still resolves; the set exists
	}
	// "ba" names attributes b, a — the set {a, b} exists, so it binds.
	pl, err := e.PrepareQuery(cases[1].query)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := e.SolveQuery(pl, 1, program.Limits{})
	if err != nil {
		t.Fatalf("ba(X, Y) should bind to the ab relation with swapped columns: %v", err)
	}
	if !tupleSet(out)[fmt.Sprint(relation.Tuple{10, 1})] {
		t.Errorf("ba(X, Y) did not swap columns: %v", out)
	}

	pl, err = e.PrepareQuery(cases[0].query)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.SolveQuery(pl, 1, program.Limits{}); err == nil || !strings.Contains(err.Error(), cases[0].frag) {
		t.Errorf("unknown predicate err = %v, want %q", err, cases[0].frag)
	}

	// A plan not built by PrepareQuery is rejected.
	if _, _, err := e.SolveQuery(&Plan{}, 1, program.Limits{}); err == nil {
		t.Error("SolveQuery accepted a non-query plan")
	}
}

func TestSolveQueryLimits(t *testing.T) {
	e, _ := queryEngine(t)
	pl, err := e.PrepareQuery("ans(A, D) :- ab(A, B), bc(B, C), cd(C, D).")
	if err != nil {
		t.Fatal(err)
	}
	out, st, err := e.SolveQuery(pl, 1, program.Limits{MaxTuples: 1})
	if out != nil || st != nil {
		t.Error("gas-limited query returned partial state")
	}
	if !errors.Is(err, program.ErrGasExhausted) {
		t.Errorf("err = %v, want ErrGasExhausted", err)
	}
}
