package program

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gyokit/internal/gen"
	"gyokit/internal/graph"
	"gyokit/internal/qualgraph"
	"gyokit/internal/relation"
	"gyokit/internal/schema"
	"gyokit/internal/tableau"
)

func parse(t *testing.T, u *schema.Universe, s string) *schema.Schema {
	t.Helper()
	d, err := schema.Parse(u, s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func urdb(d *schema.Schema, seed int64, tuples, domain int) *relation.Database {
	rng := rand.New(rand.NewSource(seed))
	i, _ := relation.RandomUniversal(d.U, d.Attrs(), tuples, domain, rng)
	return relation.URDatabase(d, i)
}

// refEval is the independent reference for Run: it walks the
// statements with the Relation operators directly — no Exec, no limits,
// no early exit, no stats — so it shares nothing with the evaluation
// loop but the statement list.
func refEval(p *Program, db *relation.Database) *relation.Relation {
	vals := append([]*relation.Relation(nil), db.Rels...)
	for _, s := range p.Stmts {
		switch s.Kind {
		case Join:
			vals = append(vals, vals[s.Left].Join(vals[s.Right]))
		case Semijoin:
			vals = append(vals, vals[s.Left].Semijoin(vals[s.Right]))
		case Project:
			vals = append(vals, vals[s.Left].Project(s.Proj))
		}
	}
	return vals[len(vals)-1]
}

// TestEvalDifferential checks Run against the reference evaluation on
// well over 100 randomized (program, database) pairs: random tree
// schemas — branching ones included — under the full reducer,
// Yannakakis and the naive join at three database sizes, and the §4
// strategy on rings with tails.
func TestEvalDifferential(t *testing.T) {
	cases := 0
	check := func(label string, p *Program, db *relation.Database) {
		t.Helper()
		got, st, err := p.Eval(db)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if ref := refEval(p, db); !got.Equal(ref) {
			t.Fatalf("%s: result (%d tuples) ≠ reference result (%d tuples)", label, got.Card(), ref.Card())
		}
		if len(st.PerStmt) != len(p.Stmts) || st.PerStmt[len(st.PerStmt)-1] != got.Card() {
			t.Fatalf("%s: stats cover %d of %d statements, last output %d for a %d-tuple answer",
				label, len(st.PerStmt), len(p.Stmts), st.PerStmt[len(st.PerStmt)-1], got.Card())
		}
		cases++
	}
	for seed := int64(0); seed < 18; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := gen.TreeSchema(rng, 3+rng.Intn(5), 2, 2)
		tr, ok := qualgraph.QualTree(d)
		if !ok {
			t.Fatalf("seed %d: tree schema rejected", seed)
		}
		attrs := d.Attrs().Attrs()
		x := schema.NewAttrSet(attrs[0], attrs[len(attrs)-1])

		fullRed, _, err := FullReducer(d, tr)
		if err != nil {
			t.Fatalf("seed %d: full reducer: %v", seed, err)
		}
		yan, err := YannakakisRooted(d, x, tr, 0)
		if err != nil {
			t.Fatalf("seed %d: yannakakis: %v", seed, err)
		}
		naive, err := NaivePlan(d, x)
		if err != nil {
			t.Fatalf("seed %d: naive: %v", seed, err)
		}

		for _, tuples := range []int{1, 40, 300} {
			i, _ := relation.RandomUniversal(d.U, d.Attrs(), tuples, 4+rng.Intn(8), rng)
			db := relation.URDatabase(d, i)
			progs := map[string]*Program{"fullreducer": fullRed, "yannakakis": yan}
			if tuples <= 40 {
				// The unpruned all-relations join can explode on dense
				// random databases; differential it only at small scale.
				progs["naive"] = naive
			}
			for name, prog := range progs {
				check(fmt.Sprintf("seed=%d n=%d %s", seed, tuples, name), prog, db)
			}
		}
	}
	// Cyclic schemas exercise the §4 strategy (join-heavy programs).
	for seed := int64(100); seed < 106; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := gen.RingWithTails(3, 2)
		ringEdge := d.Rels[0].Attrs()
		lastTail := d.Rels[len(d.Rels)-1].Attrs()
		x := schema.NewAttrSet(ringEdge[0], lastTail[len(lastTail)-1])
		plan, err := CyclicPlan(d, x)
		if err != nil {
			t.Fatalf("seed %d: cyclic plan: %v", seed, err)
		}
		i, _ := relation.RandomUniversal(d.U, d.Attrs(), 20+rng.Intn(60), 4+rng.Intn(4), rng)
		check(fmt.Sprintf("cyclic seed=%d", seed), plan, relation.URDatabase(d, i))
	}
	if cases < 100 {
		t.Fatalf("differential covered only %d randomized pairs, want ≥ 100", cases)
	}
}

func TestSchemaOfAndSchemaMap(t *testing.T) {
	u := schema.NewUniverse()
	d := parse(t, u, "ab, bc")
	p := NewProgram(d)
	p.Stmts = append(p.Stmts,
		Stmt{Kind: Join, Left: 0, Right: 1},                 // id 2: abc
		Stmt{Kind: Project, Left: 2, Proj: u.Set("a", "c")}, // id 3: ac
		Stmt{Kind: Semijoin, Left: 0, Right: 3},             // id 4: ab
	)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.SchemaOf(2); !got.Equal(u.Set("a", "b", "c")) {
		t.Errorf("join schema = %s", u.FormatSet(got))
	}
	if got := p.SchemaOf(3); !got.Equal(u.Set("a", "c")) {
		t.Errorf("project schema = %s", u.FormatSet(got))
	}
	if got := p.SchemaOf(4); !got.Equal(u.Set("a", "b")) {
		t.Errorf("semijoin schema = %s", u.FormatSet(got))
	}
	pd := p.SchemaMap()
	if pd.Len() != 5 {
		t.Errorf("P(D) has %d members", pd.Len())
	}
	if p.ResultID() != 4 {
		t.Errorf("ResultID = %d", p.ResultID())
	}
	if NewProgram(d).ResultID() != -1 {
		t.Error("empty program should have ResultID -1")
	}
}

// TestReusedOperandSchemas: a program may name one id as both operands
// (Rk+1 := Rk ⋈ Rk), so a schema computed by recursing into the operands
// costs 2^k — 48 self-joins would not finish. Validate, SchemaOf,
// SchemaMap, Eval and SpanTree all read one forward pass.
func TestReusedOperandSchemas(t *testing.T) {
	u := schema.NewUniverse()
	d := parse(t, u, "ab")
	p := NewProgram(d)
	for i := 0; i < 48; i++ {
		p.emit(Stmt{Kind: Join, Left: i, Right: i})
	}
	p.emit(Stmt{Kind: Project, Left: 48, Proj: u.Set("a")})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := p.SchemaOf(48); !got.Equal(u.Set("a", "b")) {
		t.Errorf("schema after 48 self-joins = %s", u.FormatSet(got))
	}
	if pd := p.SchemaMap(); pd.Len() != 50 || !pd.Rels[49].Equal(u.Set("a")) {
		t.Errorf("P(D) = %s", pd)
	}
	db := urdb(d, 5, 3, 4)
	got, st, err := p.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(db.Rels[0].Project(u.Set("a"))) || !got.Equal(refEval(p, db)) {
		t.Errorf("answer %s", got)
	}
	if _, err := p.SpanTree(st); err != nil {
		t.Error(err)
	}
}

func TestValidateRejectsBadPrograms(t *testing.T) {
	u := schema.NewUniverse()
	d := parse(t, u, "ab, bc")
	bad := []Program{
		{D: d, Stmts: []Stmt{{Kind: Join, Left: 0, Right: 5}}},
		{D: d, Stmts: []Stmt{{Kind: Join, Left: -1, Right: 0}}},
		{D: d, Stmts: []Stmt{{Kind: Join, Left: 2, Right: 0}}}, // forward ref
		{D: d, Stmts: []Stmt{{Kind: Project, Left: 0, Proj: u.Set("c")}}},
		{D: d, Stmts: []Stmt{{Kind: StmtKind(9), Left: 0, Right: 1}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad program %d accepted", i)
		}
	}
}

func TestEvalStats(t *testing.T) {
	u := schema.NewUniverse()
	d := parse(t, u, "ab, bc")
	db := urdb(d, 1, 20, 3)
	p, err := NaivePlan(d, u.Set("a", "c"))
	if err != nil {
		t.Fatal(err)
	}
	res, st, err := p.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	want := db.Eval(u.Set("a", "c"))
	if !res.Equal(want) {
		t.Error("naive plan result wrong")
	}
	if st.Joins != 1 || st.Projects != 1 || st.Semijoins != 0 {
		t.Errorf("stats wrong: %+v", st)
	}
	if len(st.PerStmt) != 2 || st.MaxIntermediate == 0 {
		t.Errorf("per-stmt stats wrong: %+v", st)
	}
	if len(st.Detail) != 2 {
		t.Fatalf("Detail has %d entries, want 2", len(st.Detail))
	}
	// Statement 0 is the join ab ⋈ bc, statement 1 the projection.
	d0, d1 := st.Detail[0], st.Detail[1]
	if d0.Kind != Join || d0.InLeft != db.Rels[0].Card() || d0.InRight != db.Rels[1].Card() {
		t.Errorf("join detail wrong: %+v", d0)
	}
	if d1.Kind != Project || d1.InRight != -1 || d1.InLeft != d0.Out || d1.Out != res.Card() {
		t.Errorf("project detail wrong: %+v", d1)
	}
	for i, d := range st.Detail {
		if d.Out != st.PerStmt[i] {
			t.Errorf("Detail[%d].Out = %d ≠ PerStmt %d", i, d.Out, st.PerStmt[i])
		}
	}
	if st.Table() == "" {
		t.Error("empty stats table")
	}
	// Eval on a mismatched database errors.
	other := urdb(parse(t, u, "ab"), 2, 5, 3)
	if _, _, err := p.Eval(other); err == nil {
		t.Error("schema mismatch accepted")
	}
	empty := NewProgram(d)
	if _, _, err := empty.Eval(db); err == nil {
		t.Error("empty program evaluated")
	}
}

// TestCorollary41CCPlan: joining exactly the CC members (with
// pre-projections) solves (D, X) on UR databases — the §6 worked
// example schema.
func TestCorollary41CCPlan(t *testing.T) {
	u := schema.NewUniverse()
	d := parse(t, u, "abg, bcg, acf, ad, de, ea")
	x := u.Set("a", "b", "c")
	cc := tableau.CC(d, x)
	plan, err := CCPlan(d, x, cc)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 5; seed++ {
		db := urdb(d, seed, 30, 3)
		got, _, err := plan.Eval(db)
		if err != nil {
			t.Fatal(err)
		}
		want := db.Eval(x)
		if !got.Equal(want) {
			t.Fatalf("CC plan wrong on seed %d", seed)
		}
	}
	// The plan must have dropped relations ad, de, ea: only 3 inputs.
	joins := 0
	for _, s := range plan.Stmts {
		if s.Kind == Join {
			joins++
		}
	}
	if joins != 2 {
		t.Errorf("CC plan uses %d joins, want 2 (3 inputs)", joins)
	}
}

// TestTheorem41Necessity: dropping a CC member from the join breaks
// the plan on some UR database.
func TestTheorem41Necessity(t *testing.T) {
	u := schema.NewUniverse()
	d := parse(t, u, "abg, bcg, acf, ad, de, ea")
	x := u.Set("a", "b", "c")
	// Join only abg and bcg — misses the ac piece of CC.
	plan, err := JoinProject(d, x, []InputRef{{Rel: 0}, {Rel: 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Constructed universal relation: two tuples agreeing on b and g
	// but differing on a and c. Joining abg ⋈ bcg manufactures the
	// mixed (a, c) pairs; the acf projection kills them in the real
	// query.
	i := relation.New(u, d.Attrs())
	cols := i.Cols() // sorted attribute order
	mk := func(vals map[string]relation.Value) relation.Tuple {
		tup := make(relation.Tuple, len(cols))
		for k, c := range cols {
			tup[k] = vals[u.Name(c)]
		}
		return tup
	}
	i.Insert(mk(map[string]relation.Value{"a": 0, "b": 0, "c": 0, "d": 0, "e": 0, "f": 0, "g": 0}))
	i.Insert(mk(map[string]relation.Value{"a": 1, "b": 0, "c": 1, "d": 1, "e": 1, "f": 1, "g": 0}))
	db := relation.URDatabase(d, i)
	got, _, err := plan.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	want := db.Eval(x)
	if got.Equal(want) {
		t.Errorf("under-covering plan agreed on the constructed witness:\n got %s\nwant %s", got, want)
	}
	if got.Card() <= want.Card() {
		t.Errorf("under-covering join should overshoot: got %d ≤ want %d", got.Card(), want.Card())
	}
}

// TestFullReducerGlobalConsistency: after the two-pass reducer, every
// relation equals the projection of the full join.
func TestFullReducerGlobalConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		d := gen.TreeSchema(rng, 1+rng.Intn(6), 2, 2)
		tr, ok := qualgraph.QualTree(d)
		if !ok {
			t.Fatal("generated tree schema rejected")
		}
		p, reduced, err := FullReducer(d, tr)
		if err != nil {
			t.Fatal(err)
		}
		i, _ := relation.RandomUniversal(d.U, d.Attrs(), 20, 3, rng)
		db := relation.URDatabase(d, i)
		// Interpret manually to extract all intermediate values.
		vals := make([]*relation.Relation, len(db.Rels), p.NumIDs())
		copy(vals, db.Rels)
		for _, s := range p.Stmts {
			switch s.Kind {
			case Semijoin:
				vals = append(vals, vals[s.Left].Semijoin(vals[s.Right]))
			case Project:
				vals = append(vals, vals[s.Left].Project(s.Proj))
			case Join:
				vals = append(vals, vals[s.Left].Join(vals[s.Right]))
			}
		}
		full := relation.JoinAll(db.Rels)
		for i2, id := range reduced {
			got := vals[id]
			want := full.Project(d.Rels[i2])
			if !got.Equal(want) {
				t.Fatalf("relation %d not globally consistent after full reduction (schema %s)", i2, d)
			}
		}
		// Semijoin count: 2(n−1) ≤ 2|D| (Theorem 6.1's budget).
		semis := 0
		for _, s := range p.Stmts {
			if s.Kind == Semijoin {
				semis++
			}
		}
		if n := len(d.Rels); semis != 2*(n-1) && n > 1 {
			t.Errorf("full reducer used %d semijoins for n=%d", semis, n)
		}
	}
}

// TestYannakakisCorrect: the Yannakakis program computes π_X(⋈D) on
// random tree schemas and UR databases.
func TestYannakakisCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		d := gen.TreeSchema(rng, 1+rng.Intn(6), 2, 2)
		tr, _ := qualgraph.QualTree(d)
		x := gen.RandomAttrSubset(rng, d.Attrs(), 0.4)
		if x.IsEmpty() {
			x = schema.NewAttrSet(d.Attrs().Min())
		}
		p, err := YannakakisRooted(d, x, tr, 0)
		if err != nil {
			t.Fatal(err)
		}
		db := urdb(d, int64(trial), 25, 3)
		got, _, err := p.Eval(db)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(db.Eval(x)) {
			t.Fatalf("Yannakakis wrong on %s, X=%s", d, d.U.FormatSet(x))
		}
	}
}

// TestYannakakisNonURDatabase: full reduction makes Yannakakis correct
// even on inconsistent (non-UR) databases, where the naive comparison
// is against the join of the given states.
func TestYannakakisNonURDatabase(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	u := schema.NewUniverse()
	d := parse(t, u, "ab, bc, cd")
	tr, _ := qualgraph.QualTree(d)
	x := u.Set("a", "d")
	p, err := YannakakisRooted(d, x, tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Independent random states per relation (not projections of one I).
	db := &relation.Database{D: d}
	for _, r := range d.Rels {
		rr, _ := relation.RandomUniversal(u, r, 15, 3, rng)
		db.Rels = append(db.Rels, rr)
	}
	got, _, err := p.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(db.Eval(x)) {
		t.Error("Yannakakis wrong on non-UR database")
	}
}

func TestYannakakisSingleRelation(t *testing.T) {
	u := schema.NewUniverse()
	d := parse(t, u, "ab")
	tr, _ := qualgraph.QualTree(d)
	p, err := YannakakisRooted(d, u.Set("a"), tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	db := urdb(d, 4, 10, 3)
	got, _, err := p.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(db.Rels[0].Project(u.Set("a"))) {
		t.Error("single-relation Yannakakis wrong")
	}
}

func TestBuilderErrors(t *testing.T) {
	u := schema.NewUniverse()
	d := parse(t, u, "ab, bc")
	if _, err := JoinProject(d, u.Set("a"), nil); err == nil {
		t.Error("no inputs accepted")
	}
	if _, err := JoinProject(d, u.Set("a"), []InputRef{{Rel: 7}}); err == nil {
		t.Error("out-of-range input accepted")
	}
	if _, err := JoinProject(d, u.Set("a"), []InputRef{{Rel: 0, Proj: u.Set("c")}}); err == nil {
		t.Error("bad pre-projection accepted")
	}
	if _, err := CCPlan(d, u.Set("a"), &schema.Schema{U: u}); err == nil {
		t.Error("empty CC accepted")
	}
	foreign := &schema.Schema{U: u, Rels: []schema.AttrSet{u.Set("z")}}
	if _, err := CCPlan(d, u.Set("a"), foreign); err == nil {
		t.Error("uncovered CC member accepted")
	}
	tri := parse(t, u, "ab, bc, ac")
	if _, ok := qualgraph.QualTree(tri); ok {
		t.Fatal("triangle should have no qual tree")
	}
	// FullReducer rejects graphs of the wrong size or shape.
	tr, _ := qualgraph.QualTree(d)
	if _, _, err := FullReducer(parse(t, u, "ab"), tr); err == nil {
		t.Error("size mismatch accepted")
	}
	notTree := graph.NewUndirected(2)
	if _, _, err := FullReducer(d, notTree); err == nil {
		t.Error("disconnected graph accepted")
	}
	if _, _, err := FullReducer(&schema.Schema{U: u}, graph.NewUndirected(0)); err == nil {
		t.Error("empty schema accepted")
	}
	u.Attr("z")
	if _, err := YannakakisRooted(d, u.Set("z"), tr, 0); err == nil {
		t.Error("X ⊄ U(D) accepted")
	}
}

// TestEarlyExitOnEmpty: on a chain with one empty relation every plan's
// answer is empty, and the evaluators must say so as soon as a statement
// the answer depends on comes out empty — without running the rest, but
// still accounting one entry per statement. Checked against NaivePlan.
func TestEarlyExitOnEmpty(t *testing.T) {
	u := schema.NewUniverse()
	d := parse(t, u, "ab, bc, cd, de")
	tr, ok := qualgraph.QualTree(d)
	if !ok {
		t.Fatal("chain schema rejected as tree")
	}
	x := u.Set("a", "e")
	full := urdb(d, 3, 200, 6)
	naive, err := NaivePlan(d, x)
	if err != nil {
		t.Fatal(err)
	}
	yan, err := YannakakisRooted(d, x, tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	fullRed, _, err := FullReducer(d, tr)
	if err != nil {
		t.Fatal(err)
	}
	_, fullSt, err := yan.Eval(full)
	if err != nil {
		t.Fatal(err)
	}
	for hole := range d.Rels {
		db := full.WithRelation(hole, relation.New(u, d.Rels[hole]))
		want, _, err := naive.Eval(db)
		if err != nil {
			t.Fatal(err)
		}
		if want.Card() != 0 {
			t.Fatalf("hole %d: naive answer has %d tuples", hole, want.Card())
		}
		for name, p := range map[string]*Program{"yannakakis": yan, "fullreducer": fullRed, "naive": naive} {
			got, st, err := p.Eval(db)
			if err != nil {
				t.Fatalf("hole %d %s: %v", hole, name, err)
			}
			if got.Card() != 0 || !got.Attrs().Equal(p.SchemaOf(p.ResultID())) {
				t.Errorf("hole %d %s: answer %v, want empty over the result schema", hole, name, got)
			}
			if name != "fullreducer" && !got.Equal(want) {
				t.Errorf("hole %d %s: answer differs from the naive plan's", hole, name)
			}
			if !got.Equal(refEval(p, db)) {
				t.Errorf("hole %d %s: answer differs from the reference evaluation", hole, name)
			}
			if len(st.Detail) != len(p.Stmts) || len(st.PerStmt) != len(p.Stmts) ||
				st.Joins+st.Projects+st.Semijoins != len(p.Stmts) {
				t.Fatalf("hole %d %s: stats cover %d/%d of %d statements", hole, name,
					len(st.Detail), len(st.PerStmt), len(p.Stmts))
			}
			// Everything after the first empty statement was skipped.
			first := 0
			for first < len(st.Detail) && st.Detail[first].Out != 0 {
				first++
			}
			for i := first + 1; i < len(st.Detail); i++ {
				if sd := st.Detail[i]; sd.Kind != p.Stmts[i].Kind || sd.InLeft != 0 || sd.Out != 0 || sd.Elapsed != 0 {
					t.Errorf("hole %d %s: stmt %d ran after the answer was known empty: %+v", hole, name, i, sd)
				}
			}
			if name == "yannakakis" && st.TuplesProduced >= fullSt.TuplesProduced {
				t.Errorf("hole %d: produced %d tuples, no fewer than the full run's %d", hole, st.TuplesProduced, fullSt.TuplesProduced)
			}
			if _, err := p.SpanTree(st); err != nil {
				t.Errorf("hole %d %s: span tree: %v", hole, name, err)
			}
		}
	}

	// An empty statement the answer does not depend on ends nothing.
	side := NewProgram(d)
	side.Stmts = []Stmt{
		{Kind: Semijoin, Left: 2, Right: 3}, // cd ⋉ ∅, unused below
		{Kind: Join, Left: 0, Right: 1},
	}
	db := full.WithRelation(3, relation.New(u, d.Rels[3]))
	wantJoin := full.Rels[0].Join(full.Rels[1])
	got, st, err := side.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	if st.PerStmt[0] != 0 || !got.Equal(wantJoin) || !got.Equal(refEval(side, db)) {
		t.Errorf("unused empty statement changed the answer: %d tuples, want %d", got.Card(), wantJoin.Card())
	}
}

// TestStreamedPairs runs hand-written programs over ab, bc, ac, cd — a
// database on which ac drops rows of ab ⋈ bc — and checks which join Run
// streams into its successor: a projection of it, a join with a filter
// on either side, a semijoin by a filter; not a join with a relation
// outside its attributes, a semijoin of the filter by it, a join with
// two uses or a use that is not the next statement. Either way the
// answer is refEval's and the stats are those of the statements run one
// by one: the same Out per statement, InLeft/InRight from the operands,
// and so the same TuplesProduced and MaxIntermediate.
func TestStreamedPairs(t *testing.T) {
	u := schema.NewUniverse()
	d := parse(t, u, "ab, bc, ac, cd")
	db := danglingDB(d, 5, 3000, 300)
	const ab, bc, ac, cd, j = 0, 1, 2, 3, 4 // j: the join ab ⋈ bc, statement 0
	join := Stmt{Kind: Join, Left: ab, Right: bc}
	for _, tc := range []struct {
		name     string
		stmts    []Stmt
		streamed bool
	}{
		{"project", []Stmt{join, {Kind: Project, Left: j, Proj: u.Set("a", "c")}}, true},
		{"join filter", []Stmt{join, {Kind: Join, Left: j, Right: ac}}, true},
		{"filter join", []Stmt{join, {Kind: Join, Left: ac, Right: j}}, true},
		{"semijoin filter", []Stmt{join, {Kind: Semijoin, Left: j, Right: ac}}, true},
		{"join wider", []Stmt{join, {Kind: Join, Left: j, Right: cd}}, false},
		{"semijoin of the filter", []Stmt{join, {Kind: Semijoin, Left: ac, Right: j}}, false},
		{"two uses", []Stmt{join, {Kind: Project, Left: j, Proj: u.Set("a")}, {Kind: Semijoin, Left: j, Right: j + 1}}, false},
		{"later use", []Stmt{join, {Kind: Project, Left: ab, Proj: u.Set("a")}, {Kind: Semijoin, Left: j, Right: j + 1}}, false},
	} {
		p := &Program{D: d, Stmts: tc.stmts}
		got, st, err := p.Eval(db)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if want := refEval(p, db); !got.Equal(want) || !want.Equal(got) {
			t.Fatalf("%s: %d tuples, the reference %d", tc.name, got.Card(), want.Card())
		}
		if st.Detail[0].Streamed != tc.streamed {
			t.Errorf("%s: join streamed %v, want %v\n%s", tc.name, st.Detail[0].Streamed, tc.streamed, st.Table())
		}
		vals := slices.Clone(db.Rels)
		produced, largest := 0, 0
		for si, s := range p.Stmts {
			out := refEval(&Program{D: d, Stmts: p.Stmts[:si+1]}, db)
			want := StmtStat{Kind: s.Kind, InLeft: vals[s.Left].Card(), InRight: -1, Out: out.Card()}
			if s.Kind != Project {
				want.InRight = vals[s.Right].Card()
			}
			if g := st.Detail[si]; g.Kind != want.Kind || g.InLeft != want.InLeft || g.InRight != want.InRight || g.Out != want.Out {
				t.Errorf("%s: statement %d: %+v, want %+v", tc.name, si, g, want)
			}
			vals = append(vals, out)
			produced, largest = produced+out.Card(), max(largest, out.Card())
		}
		if st.TuplesProduced != produced || st.MaxIntermediate != largest {
			t.Errorf("%s: %d produced, max intermediate %d; want %d, %d", tc.name, st.TuplesProduced, st.MaxIntermediate, produced, largest)
		}
		if got.Card() == 0 || tc.name == "join filter" && got.Card() == vals[j].Card() {
			t.Fatalf("%s: the fixture gives an empty answer or a filter that drops nothing", tc.name)
		}
	}
}
