package program

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gyokit/internal/qualgraph"
	"gyokit/internal/relation"
	"gyokit/internal/schema"
)

// danglingDB builds a database for d that is nobody's projection: every
// relation is drawn on its own (rows tuples over [0, domain) per column),
// so semijoins drop rows — the opposite of urdb, on which each one is
// the identity. On top of the random misses, every neighbour of relation
// i loses the partners of i's rows on either side of each chunk edge and
// of its last row (deleted in place, so the neighbour carries dead
// rows): a semijoin of i drops exactly there whatever the seed drew.
func danglingDB(d *schema.Schema, seed int64, rows, domain int) *relation.Database {
	rng := rand.New(rand.NewSource(seed))
	db := &relation.Database{D: d}
	for _, r := range d.Rels {
		rel, _ := relation.RandomUniversal(d.U, r, rows, domain, rng)
		db.Rels = append(db.Rels, rel)
	}
	for i, ri := range db.Rels {
		rows := ri.Tuples()
		var edge []relation.Tuple
		for p := relation.ChunkRows; p < len(rows); p += relation.ChunkRows {
			edge = append(edge, rows[p-1], rows[p], rows[p+1])
		}
		edge = append(edge, rows[len(rows)-1])
		for j, rj := range db.Rels {
			shared := d.Rels[i].Intersect(d.Rels[j]).Attrs()
			if i == j || len(shared) == 0 {
				continue
			}
			lost := map[string]bool{}
			for _, ti := range edge {
				lost[keyOn(ri, ti, shared)] = true
			}
			var drop []relation.Tuple
			for _, tj := range rj.Tuples() {
				if lost[keyOn(rj, tj, shared)] {
					drop = append(drop, tj)
				}
			}
			db.Rels[j], _ = rj.Without(drop)
		}
	}
	return db
}

// keyOn renders tuple tp of r on the attributes shared (all of them r's).
func keyOn(r *relation.Relation, tp relation.Tuple, shared []schema.Attr) string {
	cols, k := r.Cols(), ""
	for _, a := range shared {
		k += fmt.Sprint(tp[slices.Index(cols, a)], ",")
	}
	return k
}

// TestOperatorOutputsOnDanglingDatabase runs the program of every
// eval_read shape (planned the way core.PlanQuery plans it) and the full
// reducer of the 5-chain over a database of more than two chunks per
// relation on which semijoins filter. The answer of Run must equal
// refEval's, with q5's join streamed into its projection, q7's and s8's
// into the join with ac, and no other join streamed. Walking the
// statements unfused on one shared Exec, every semijoin output must be
// exactly the rows of its left operand that have a partner — found by
// nested maps, not by the engine — in the left operand's own order.
func TestOperatorOutputsOnDanglingDatabase(t *testing.T) {
	const rows, domain = 2*relation.ChunkRows + 900, 3000
	u := schema.NewUniverse()
	chain4 := parse(t, u, "ab, bc, cd, de")
	chain5 := parse(t, u, "ab, bc, cd, de, ef")
	tr5, _ := qualgraph.QualTree(chain5)
	reducer, _, err := FullReducer(chain5, tr5)
	if err != nil {
		t.Fatal(err)
	}
	plan := func(d *schema.Schema, head string) *Program {
		x := schema.MustSet(u, head)
		tr, tree := qualgraph.QualTree(d)
		var p *Program
		var err error
		if tree {
			p, err = YannakakisRooted(d, x, tr, AnswerRoot(d.Rels, tr, x))
		} else {
			p, err = CyclicPlan(d, x)
		}
		if err != nil {
			t.Fatalf("%s x=%s: %v", d, head, err)
		}
		return p
	}
	ex := relation.NewExec()
	for i, tc := range []struct {
		name    string
		p       *Program
		streams []StmtKind // the consumers of the joins Run streams, in order
	}{
		{"q1_fc_ab", plan(chain4, "ab"), nil},
		{"q2_fc_bc", plan(chain4, "bc"), nil},
		{"q3_fc_cd", plan(chain4, "cd"), nil},
		{"q4_fc_d", plan(chain4, "d"), nil},
		{"q5_acyclic_ac", plan(parse(t, u, "ab, bc"), "ac"), []StmtKind{Project}},
		{"q6_wide_abc", plan(parse(t, u, "ab, bc, cd"), "abc"), nil},
		{"q7_triangle", plan(parse(t, u, "ab, bc, ac"), "abc"), []StmtKind{Join}},
		{"s8_solve_ab", plan(parse(t, u, "ab, bc, cd, de, ac"), "ab"), []StmtKind{Join}},
		{"fullreducer chain5", reducer, nil},
	} {
		name, p := tc.name, tc.p
		db := danglingDB(p.D, int64(i+1), rows, domain)
		db.Freeze()
		dead := 0
		for _, r := range db.Rels {
			if r.Card() <= 2*relation.ChunkRows {
				t.Fatalf("%s: a relation of %d rows does not span three chunks", name, r.Card())
			}
			dead += r.DeadRows()
		}
		if dead == 0 {
			t.Fatalf("%s: no stored relation carries a dead row", name)
		}

		want := refEval(p, db)
		got, st, err := p.Run(db, ex, Limits{}, relation.All)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !got.Equal(want) || !want.Equal(got) {
			t.Fatalf("%s: Run answers %d tuples, the reference %d", name, got.Card(), want.Card())
		}
		var consumers []StmtKind
		for si, d := range st.Detail {
			if d.Streamed {
				consumers = append(consumers, st.Detail[si+1].Kind)
			}
		}
		if w := tc.streams; !slices.Equal(consumers, w) {
			t.Fatalf("%s: joins streamed into %v, want %v\n%s", name, consumers, w, st.Table())
		}

		vals := slices.Clone(db.Rels)
		semijoins, filtering := 0, 0
		for si, s := range p.Stmts {
			var out *relation.Relation
			switch s.Kind {
			case Join:
				out = ex.Join(vals[s.Left], vals[s.Right])
			case Project:
				out = ex.Project(vals[s.Left], s.Proj)
			case Semijoin:
				l, r := vals[s.Left], vals[s.Right]
				out = ex.Semijoin(l, r)
				shared := l.Attrs().Intersect(r.Attrs()).Attrs()
				partners := map[string]bool{}
				for _, tp := range r.Tuples() {
					partners[keyOn(r, tp, shared)] = true
				}
				var kept []relation.Tuple
				for _, tp := range l.Tuples() {
					if partners[keyOn(l, tp, shared)] {
						kept = append(kept, tp)
					}
				}
				if !slices.EqualFunc(out.Tuples(), kept, func(a, b relation.Tuple) bool { return slices.Equal(a, b) }) {
					t.Fatalf("%s: statement %d: semijoin output (%d rows) is not the left operand's %d partnered rows in order",
						name, si, out.Card(), len(kept))
				}
				semijoins++
				if out.Card() < l.Card() {
					filtering++
				}
			}
			if out.DeadRows() != 0 {
				t.Fatalf("%s: statement %d: output carries %d dead rows", name, si, out.DeadRows())
			}
			vals = append(vals, out)
		}
		if last := vals[len(vals)-1]; !last.Equal(want) || !want.Equal(last) {
			t.Fatalf("%s: statement walk answers %d tuples, the reference %d", name, last.Card(), want.Card())
		}
		if semijoins > 0 && filtering == 0 {
			t.Fatalf("%s: none of %d semijoins dropped a row", name, semijoins)
		}
	}
}
