package program

import (
	"math/rand"
	"testing"

	"gyokit/internal/gen"
	"gyokit/internal/gyo"
	"gyokit/internal/relation"
	"gyokit/internal/schema"
)

// TestCyclicPlanOnRings: the §4 strategy solves (D, X) on Arings,
// agreeing with the naive join on UR databases.
func TestCyclicPlanOnRings(t *testing.T) {
	for n := 3; n <= 6; n++ {
		d := gen.Ring(n)
		attrs := d.Attrs().Attrs()
		x := schema.NewAttrSet(attrs[0], attrs[n/2])
		p, err := CyclicPlan(d, x)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 3; seed++ {
			db := urdb(d, seed, 20, 3)
			got, _, err := p.Eval(db)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(db.Eval(x)) || !got.Equal(refEval(p, db)) {
				t.Fatalf("cyclic plan wrong on Aring(%d) seed %d", n, seed)
			}
		}
	}
}

// TestCyclicPlanSection6: on the §6 example (cyclic), the plan must
// agree with the naive evaluation.
func TestCyclicPlanSection6(t *testing.T) {
	u := schema.NewUniverse()
	d := parse(t, u, "abg, bcg, acf, ad, de, ea")
	x := u.Set("a", "b", "c")
	p, err := CyclicPlan(d, x)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 5; seed++ {
		db := urdb(d, seed, 30, 3)
		got, _, err := p.Eval(db)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(db.Eval(x)) || !got.Equal(refEval(p, db)) {
			t.Fatalf("cyclic plan wrong on seed %d", seed)
		}
	}
}

// TestCyclicPlanNonUR: correctness holds on arbitrary (inconsistent)
// databases too, since the materialized ∪GR(D) relation is itself a
// join of the given states.
func TestCyclicPlanNonUR(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	d := gen.Ring(4)
	attrs := d.Attrs().Attrs()
	x := schema.NewAttrSet(attrs[0], attrs[2])
	p, err := CyclicPlan(d, x)
	if err != nil {
		t.Fatal(err)
	}
	db := &relation.Database{D: d}
	for _, r := range d.Rels {
		rr, _ := relation.RandomUniversal(d.U, r, 12, 3, rng)
		db.Rels = append(db.Rels, rr)
	}
	got, _, err := p.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(db.Eval(x)) || !got.Equal(refEval(p, db)) {
		t.Error("cyclic plan wrong on non-UR database")
	}
}

// TestCyclicPlanDegradesToYannakakis: on tree schemas GR(D) is empty,
// so nothing is materialized and the plan is the Yannakakis program
// over D itself.
func TestCyclicPlanDegradesToYannakakis(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		d := gen.TreeSchema(rng, 2+rng.Intn(4), 2, 2)
		x := gen.RandomAttrSubset(rng, d.Attrs(), 0.4)
		if x.IsEmpty() {
			x = schema.NewAttrSet(d.Attrs().Min())
		}
		p, err := CyclicPlan(d, x)
		if err != nil {
			t.Fatal(err)
		}
		db := urdb(d, int64(trial), 20, 3)
		got, _, err := p.Eval(db)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(db.Eval(x)) || !got.Equal(refEval(p, db)) {
			t.Fatalf("degraded plan wrong on %s", d)
		}
	}
}

// TestCyclicPlanRandomCyclicSchemas: random mixed schemas, UR
// databases, against naive evaluation.
func TestCyclicPlanRandomCyclicSchemas(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	checked := 0
	for trial := 0; trial < 80 && checked < 25; trial++ {
		d := gen.RandomSchema(rng, 2+rng.Intn(4), 3+rng.Intn(3), 0.5)
		if gyo.IsTree(d) {
			continue
		}
		checked++
		x := gen.RandomAttrSubset(rng, d.Attrs(), 0.4)
		if x.IsEmpty() {
			x = schema.NewAttrSet(d.Attrs().Min())
		}
		p, err := CyclicPlan(d, x)
		if err != nil {
			t.Fatal(err)
		}
		db := urdb(d, int64(trial), 15, 3)
		got, _, err := p.Eval(db)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(db.Eval(x)) || !got.Equal(refEval(p, db)) {
			t.Fatalf("cyclic plan wrong on %s X=%s", d, d.U.FormatSet(x))
		}
	}
	if checked < 10 {
		t.Fatalf("only %d cyclic schemas exercised", checked)
	}
}

func TestCyclicPlanErrors(t *testing.T) {
	u := schema.NewUniverse()
	d := parse(t, u, "ab, bc, ca")
	u.Attr("z")
	if _, err := CyclicPlan(d, u.Set("z")); err == nil {
		t.Error("X ⊄ U(D) accepted")
	}
}

func TestGreedyJoinOrder(t *testing.T) {
	u := schema.NewUniverse()
	d := parse(t, u, "ab, cd, bc, de")
	order := GreedyJoinOrder(d, []int{0, 1, 2, 3})
	// Starting from a smallest relation, every subsequent pick must
	// share attributes with the prefix (no cross products here).
	joined := d.Rels[order[0]].Clone()
	for _, i := range order[1:] {
		if !joined.Intersects(d.Rels[i]) {
			t.Fatalf("greedy order %v introduces a cross product at %d", order, i)
		}
		joined = joined.Union(d.Rels[i])
	}
	if got := GreedyJoinOrder(d, []int{2}); len(got) != 1 || got[2-2] != 2 {
		t.Error("singleton order wrong")
	}
	if got := GreedyJoinOrder(d, nil); len(got) != 0 {
		t.Error("empty order wrong")
	}
}

// TestJoinProjectGreedyOrder: a JoinProject over its inputs permuted
// into GreedyJoinOrder still solves the query.
func TestJoinProjectGreedyOrder(t *testing.T) {
	u := schema.NewUniverse()
	d := parse(t, u, "ab, bc, cd")
	x := u.Set("a", "d")
	var inputs []InputRef
	for _, rel := range GreedyJoinOrder(d, []int{0, 1, 2}) {
		inputs = append(inputs, InputRef{Rel: rel})
	}
	p, err := JoinProject(d, x, inputs)
	if err != nil {
		t.Fatal(err)
	}
	db := urdb(d, 3, 25, 3)
	got, _, err := p.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(db.Eval(x)) || !got.Equal(refEval(p, db)) {
		t.Error("ordered plan wrong")
	}
}

// TestDecomposeLeavesOutWholeSurvivors holds Decompose's step 2 on random
// cyclic schemas: the relations of D left out of Bags are exactly the GYO
// survivors whose GR(D) content is their whole schema, and ∪GR(D) is the
// last bag. On a UR database each relation left out is the projection of
// the ∪GR bag's state — the survivors' GR contents joined — onto its
// schema, so the semijoin that would join it back changes nothing.
func TestDecomposeLeavesOutWholeSurvivors(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	checked, dropped, projected := 0, 0, 0
	for trial := 0; trial < 400 && checked < 60; trial++ {
		d := gen.RandomSchema(rng, 3+rng.Intn(4), 3+rng.Intn(4), 0.45)
		if gyo.IsTree(d) {
			continue
		}
		checked++
		res := gyo.ReduceFull(d)
		dec, err := Decompose(d, res, schema.NewAttrSet(d.Attrs().Min()))
		if err != nil {
			t.Fatal(err)
		}
		whole := map[int]bool{}
		for k, i := range res.Alive {
			if res.GR.Rels[k].Equal(d.Rels[i]) {
				whole[i] = true
			} else {
				projected++
			}
		}
		last := len(dec.Bags.Rels) - 1
		if !dec.Bags.Rels[last].Equal(res.GR.Attrs()) {
			t.Fatalf("%s: last bag %s, want ∪GR(D) = %s", d, d.U.FormatSet(dec.Bags.Rels[last]), d.U.FormatSet(res.GR.Attrs()))
		}
		kept := map[int]bool{}
		for _, src := range dec.Src[:last] {
			kept[src[0].Rel] = true
		}
		for i := range d.Rels {
			if kept[i] == whole[i] {
				t.Fatalf("%s: relation %d (%s) kept as a bag %v, a survivor whole in GR(D) %v (GR(D) = %s)",
					d, i, d.U.FormatSet(d.Rels[i]), kept[i], whole[i], res.GR)
			}
		}
		dropped += len(whole)

		db := urdb(d, int64(trial), 30, 3)
		var bag *relation.Relation
		for k, i := range res.Alive {
			in := db.Rels[i].Project(res.GR.Rels[k])
			if bag == nil {
				bag = in
			} else {
				bag = bag.Join(in)
			}
		}
		for i := range whole {
			if got := bag.Project(d.Rels[i]); !got.Equal(db.Rels[i]) {
				t.Fatalf("%s: π_%s(∪GR bag) has %d rows, the relation it replaces %d",
					d, d.U.FormatSet(d.Rels[i]), got.Card(), db.Rels[i].Card())
			}
		}
	}
	if checked < 40 || dropped == 0 || projected == 0 {
		t.Fatalf("coverage: %d cyclic schemas, %d relations left out, %d survivors projected", checked, dropped, projected)
	}
}
