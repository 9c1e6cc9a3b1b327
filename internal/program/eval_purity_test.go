package program

import (
	"testing"

	"gyokit/internal/qualgraph"
	"gyokit/internal/relation"
	"gyokit/internal/schema"
)

// TestEvalDoesNotMutateDatabase is the regression test for the serving
// layer's core assumption: Eval treats the input database as read-only,
// so one frozen snapshot can back any number of concurrent evaluations.
// It runs the heaviest program shapes (full reducer + Yannakakis, whose
// semijoin reductions are exactly the statements that would be tempted
// to overwrite input relations in place, and the §4 cyclic strategy)
// and checks tuple-level equality of every input relation afterwards.
func TestEvalDoesNotMutateDatabase(t *testing.T) {
	cases := []struct {
		name, schema, x string
	}{
		{"yannakakis-chain", "ab, bc, cd, de", "ae"},
		{"cyclic-section6", "abg, bcg, acf, ad, de, ea", "abc"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			u := schema.NewUniverse()
			d := parse(t, u, tc.schema)
			x := schema.MustSet(u, tc.x)
			db := urdb(d, 7, 60, 5)
			plan, err := CyclicPlan(d, x)
			if err != nil {
				t.Fatal(err)
			}

			// Deep-copy the database state for the after-run comparison,
			// and freeze the original: any in-place write now panics.
			before := make([]*relation.Relation, len(db.Rels))
			for i, r := range db.Rels {
				before[i] = r.Clone()
			}
			rels := append([]*relation.Relation(nil), db.Rels...)
			db.Freeze()

			want, _, err := plan.Eval(db)
			if err != nil {
				t.Fatal(err)
			}
			// A second run on the same frozen snapshot must agree.
			got, _, err := plan.Eval(db)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Error("second Eval on the same snapshot disagrees with the first")
			}

			for i := range db.Rels {
				if db.Rels[i] != rels[i] {
					t.Errorf("Eval replaced db.Rels[%d]", i)
				}
				if !db.Rels[i].Equal(before[i]) {
					t.Errorf("Eval changed the tuples of db.Rels[%d]:\n before %s\n after  %s",
						i, before[i], db.Rels[i])
				}
			}
		})
	}
}

// TestEvalExecReuse runs many evaluations through one context and checks
// they all agree with a fresh-context run — scratch-state leakage
// between runs would surface as a wrong result.
func TestEvalExecReuse(t *testing.T) {
	u := schema.NewUniverse()
	d := parse(t, u, "ab, bc, cd")
	tr, ok := qualgraph.QualTree(d)
	if !ok {
		t.Fatal("chain rejected")
	}
	x := u.Set("a", "d")
	plan, err := YannakakisRooted(d, x, tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	ex := relation.NewExec()
	for seed := int64(0); seed < 5; seed++ {
		db := urdb(d, seed, 40, 4)
		want, _, err := plan.Eval(db)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := plan.Run(db, ex, Limits{}, relation.All)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("seed %d: pooled-context run disagrees with fresh run", seed)
		}
	}
}
