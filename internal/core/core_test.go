package core

import (
	"math/rand"
	"reflect"
	"testing"

	"gyokit/internal/gen"
	"gyokit/internal/program"
	"gyokit/internal/qualgraph"
	"gyokit/internal/relation"
	"gyokit/internal/schema"
)

func parse(t *testing.T, u *schema.Universe, s string) *schema.Schema {
	t.Helper()
	d, err := schema.Parse(u, s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestClassify(t *testing.T) {
	u := schema.NewUniverse()
	d := parse(t, u, "ab, bc, cd")
	c, err := Classify(d)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Tree || !c.GammaAcyclic || c.QualTree == nil {
		t.Errorf("chain classification wrong: %+v", c)
	}
	if !c.TreefyingRelation.IsEmpty() {
		t.Error("tree schema needs no treefying relation")
	}

	ring := parse(t, u, "ab, bc, ca, cd")
	c2, err := Classify(ring)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Tree || c2.GammaAcyclic || c2.QualTree != nil {
		t.Errorf("ring classification wrong: %+v", c2)
	}
	if got := u.FormatSet(c2.TreefyingRelation); got != "abc" {
		t.Errorf("treefying relation = %s, want abc", got)
	}
	// The §5.1 schema: tree but not γ-acyclic.
	mid := parse(t, u, "abc, ab, bc")
	c3, _ := Classify(mid)
	if !c3.Tree || c3.GammaAcyclic {
		t.Errorf("(abc,ab,bc) should be tree but not γ-acyclic: %+v", c3)
	}
	// Invalid schema errors.
	if _, err := Classify(&schema.Schema{}); err == nil {
		t.Error("nil universe accepted")
	}
}

func TestCyclicityCertificate(t *testing.T) {
	u := schema.NewUniverse()
	ring := parse(t, u, "ab, bc, ca")
	w, found := CyclicityCertificate(ring)
	if !found || w.Kind == schema.CoreNone {
		t.Fatal("triangle should have a certificate")
	}
	if _, found := CyclicityCertificate(parse(t, u, "ab, bc")); found {
		t.Error("tree schema got a certificate")
	}
}

func TestSolveByJoinsSection6(t *testing.T) {
	u := schema.NewUniverse()
	d := parse(t, u, "abg, bcg, acf, ad, de, ea")
	x := u.Set("a", "b", "c")
	sol, err := SolveByJoins(d, x)
	if err != nil {
		t.Fatal(err)
	}
	if sol.CC.Len() != 3 {
		t.Errorf("CC size = %d", sol.CC.Len())
	}
	if len(sol.Irrelevant) != 3 {
		t.Errorf("irrelevant = %v", sol.Irrelevant)
	}
	if len(sol.Sources) != 3 {
		t.Errorf("sources = %v", sol.Sources)
	}
	// Errors.
	u.Attr("z")
	if _, err := SolveByJoins(d, u.Set("z")); err == nil {
		t.Error("X ⊄ U(D) accepted")
	}
}

func TestSufficientSubschema(t *testing.T) {
	u := schema.NewUniverse()
	d := parse(t, u, "abg, bcg, acf, ad, de, ea")
	x := u.Set("a", "b", "c")
	ok, err := SufficientSubschema(d, parse(t, u, "abg, bcg, acf"), x)
	if err != nil || !ok {
		t.Errorf("(abg,bcg,acf) should suffice: %v %v", ok, err)
	}
	ok, err = SufficientSubschema(d, parse(t, u, "abg, bcg"), x)
	if err != nil || ok {
		t.Errorf("(abg,bcg) should not suffice: %v %v", ok, err)
	}
	if _, err := SufficientSubschema(d, parse(t, u, "zz"), x); err == nil {
		t.Error("D′ ⊀ D accepted")
	}
}

func TestLosslessJoinReport(t *testing.T) {
	u := schema.NewUniverse()
	d := parse(t, u, "abc, ab, bc")
	rep, err := LosslessJoin(d, parse(t, u, "ab, bc"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Holds || !rep.SubtreeApplicable || rep.Subtree {
		t.Errorf("§5.1 report wrong: %+v", rep)
	}
	rep2, err := LosslessJoin(d, parse(t, u, "abc, bc"))
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Holds || !rep2.Subtree {
		t.Errorf("(abc, bc) should be lossless: %+v", rep2)
	}
	if _, err := LosslessJoin(d, parse(t, u, "xy")); err == nil {
		t.Error("D′ ⊀ D accepted")
	}
}

// TestAnalyzeProgram: Theorem 6.2/6.4 on the §6 example. A CC plan's
// P(D) admits a tree projection wrt CC ∪ (X); a useless program's
// P(D) does not.
func TestAnalyzeProgram(t *testing.T) {
	u := schema.NewUniverse()
	d := parse(t, u, "abg, bcg, acf, ad, de, ea")
	x := u.Set("a", "b", "c")
	sol, err := SolveByJoins(d, x)
	if err != nil {
		t.Fatal(err)
	}
	an, err := AnalyzeProgram(sol.Plan, x)
	if err != nil {
		t.Fatal(err)
	}
	if !an.TPWrtCC.Found {
		t.Error("solving program should admit a tree projection wrt CC ∪ (X) (Theorem 6.4)")
	}
	if an.SemijoinBudget != 2*an.CC.Len() {
		t.Error("budget wrong")
	}

	// A do-nothing program (projects R0 onto itself): no tree
	// projection wrt CC ∪ (X) exists, certifying it cannot solve the
	// query.
	lazy := program.NewProgram(d)
	lazy.Stmts = append(lazy.Stmts, program.Stmt{Kind: program.Project, Left: 0, Proj: d.Rels[0].Clone()})
	an2, err := AnalyzeProgram(lazy, x)
	if err != nil {
		t.Fatal(err)
	}
	if an2.TPWrtCC.Found {
		t.Errorf("lazy program should not admit a tree projection, got %s", an2.TPWrtCC.TP)
	}
	// Errors.
	u.Attr("z")
	if _, err := AnalyzeProgram(sol.Plan, u.Set("z")); err == nil {
		t.Error("bad target accepted")
	}
}

// TestTheorem62EndToEnd: when a program's P(D) admits a tree projection
// wrt CC ∪ (X), augmenting with semijoins solves the query — exercised
// via Yannakakis on the tree projection's schema. Here we verify the
// concrete UR-database consequence: the CC plan solves (already shown)
// and the analysis certifies it.
func TestTheorem62EndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 10; trial++ {
		d := gen.TreeSchema(rng, 2+rng.Intn(4), 2, 2)
		x := gen.RandomAttrSubset(rng, d.Attrs(), 0.4)
		if x.IsEmpty() {
			x = schema.NewAttrSet(d.Attrs().Min())
		}
		qp, err := PlanQuery(d, x)
		if err != nil {
			t.Fatal(err)
		}
		plan := qp.Prog
		an, err := AnalyzeProgram(plan, x)
		if err != nil {
			t.Fatal(err)
		}
		if !an.TPWrtD.Found || !an.TPWrtCC.Found {
			t.Fatalf("Yannakakis program lacks a tree projection on %s", d)
		}
		// And it really solves the query.
		i, _ := relation.RandomUniversal(d.U, d.Attrs(), 20, 3, rng)
		db := relation.URDatabase(d, i)
		got, _, err := plan.Eval(db)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(db.Eval(x)) {
			t.Fatal("tree plan wrong")
		}
	}
}

// TestPlanQueryCyclicKind: a cyclic schema is not an error — the plan
// says so (KindCyclic) and its decomposition adds the Corollary 3.2
// treefying relation ∪GR(D) as a bag.
func TestPlanQueryCyclicKind(t *testing.T) {
	u := schema.NewUniverse()
	ring := parse(t, u, "ab, bc, ca")
	qp, err := PlanQuery(ring, u.Set("a"))
	if err != nil {
		t.Fatal(err)
	}
	if qp.Kind != KindCyclic || qp.Prog == nil {
		t.Errorf("ring planned as %v", qp.Kind)
	}
	if bags := qp.Dec.Bags.Rels; len(bags) != 1 || !bags[0].Equal(u.Set("a", "b", "c")) {
		t.Errorf("bags %s, want the treefying relation abc alone", qp.Dec.Bags)
	}
}

// TestPlanQueryRoot pins the root rule (program.AnswerRoot: fewest live
// nodes, then most head attributes covered, then lowest index), the
// Kind label beside it, and, for both tree kinds, that Prog is the
// program YannakakisRooted emits over D at the decomposition's root.
func TestPlanQueryRoot(t *testing.T) {
	for _, tc := range []struct {
		schema, x string
		kind      Kind
		root      string // the bag Dec.Root names
		stmts     int
	}{
		{"ab, bc", "ab", KindFreeConnex, "ab", 1},
		{"ab, bc", "ac", KindAcyclic, "ab", 4}, // a tie: lowest index
		// Covering the most of x alone would root at ab and keep all three
		// nodes live; abc keeps ab dead.
		{"ab, abc, cd", "abd", KindAcyclic, "abc", 5},
		// Seven semijoins toward de and one projection; rooted at ab the
		// same emitter needs 16 statements.
		{"ab, bc, cd, de, ef, fg, gh, hi", "e", KindFreeConnex, "de", 8},
		{"ab, bc, cd, de, ac", "ab", KindCyclic, "abc", 5},
	} {
		u := schema.NewUniverse()
		d := parse(t, u, tc.schema)
		x := schema.MustSet(u, tc.x)
		qp, err := PlanQuery(d, x)
		if err != nil {
			t.Fatal(err)
		}
		name := tc.schema + " x=" + tc.x
		if qp.Kind != tc.kind || len(qp.Prog.Stmts) != tc.stmts {
			t.Errorf("%s: %v plan of %d statements, want %v and %d", name, qp.Kind, len(qp.Prog.Stmts), tc.kind, tc.stmts)
		}
		dec := qp.Dec
		if !dec.Bags.Rels[dec.Root].Equal(schema.MustSet(u, tc.root)) {
			t.Errorf("%s: root bag %s, want %s", name, u.FormatSet(dec.Bags.Rels[dec.Root]), tc.root)
			continue
		}
		if tc.kind == KindCyclic {
			continue
		}
		p, err := program.YannakakisRooted(d, x, dec.Tree, dec.Root)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p.Stmts, qp.Prog.Stmts) {
			t.Errorf("%s: Prog is not the program rooted at Root %d", name, dec.Root)
		}
	}
}

// TestClassifyAgreesWithQualgraph on random schemas.
func TestClassifyAgreesWithQualgraph(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 60; trial++ {
		d := gen.RandomSchema(rng, 1+rng.Intn(5), 2+rng.Intn(4), 0.5)
		c, err := Classify(d)
		if err != nil {
			t.Fatal(err)
		}
		_, ok := qualgraph.QualTree(d)
		if c.Tree != ok {
			t.Fatalf("Classify disagreement on %s", d)
		}
	}
}

func TestPrepareMatchesPlan(t *testing.T) {
	for _, tc := range []struct{ schema, x string }{
		{"ab, bc, cd, de", "ae"},             // tree
		{"abg, bcg, acf, ad, de, ea", "abc"}, // cyclic §6
	} {
		u := schema.NewUniverse()
		d := parse(t, u, tc.schema)
		x := schema.MustSet(u, tc.x)
		cls, prog, err := Prepare(d, x)
		if err != nil {
			t.Fatal(err)
		}
		qp, err := PlanQuery(d, x)
		if err != nil {
			t.Fatal(err)
		}
		want := qp.Prog
		rng := rand.New(rand.NewSource(3))
		i, _ := relation.RandomUniversal(u, d.Attrs(), 50, 5, rng)
		db := relation.URDatabase(d, i)
		got, _, err := prog.Eval(db)
		if err != nil {
			t.Fatal(err)
		}
		ref, _, err := want.Eval(db)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(ref) {
			t.Errorf("%s: Prepare program disagrees with PlanQuery program", tc.schema)
		}
		if cls != nil {
			t.Errorf("%s: Prepare returned a classification; only Classify classifies", tc.schema)
		}
	}
}

func TestPrepareBadTarget(t *testing.T) {
	u := schema.NewUniverse()
	d := parse(t, u, "ab, bc")
	if _, _, err := Prepare(d, u.Set("z")); err == nil {
		t.Error("Prepare accepted a target outside U(D)")
	}
}

// TestPlanQueryAllocBudget fails if a plan miss starts allocating more
// than half of what PlanQuery took before GYO re-tested only the
// relations that changed and the qual tree came from a sparse Kruskal
// (chain19 664, ring6 122, Dtiny's 8-chain with a 3-attribute target
// 346 allocations): every plan_churn request that misses the plan cache
// pays them, and their GC.
func TestPlanQueryAllocBudget(t *testing.T) {
	u := schema.NewUniverse()
	chain, ring := gen.Chain(19), gen.Ring(6)
	ca, ra := chain.Attrs().Attrs(), ring.Attrs().Attrs()
	for _, c := range []struct {
		name   string
		d      *schema.Schema
		x      schema.AttrSet
		budget float64
	}{
		{"chain19", chain, schema.NewAttrSet(ca[0], ca[len(ca)/2]), 664 / 2},
		{"ring6", ring, schema.NewAttrSet(ra[0], ra[3]), 122 / 2},
		{"Dtiny", parse(t, u, "ab, bc, cd, de, ef, fg, gh, hi"), u.Set("a", "e", "i"), 346 / 2},
	} {
		var err error
		allocs := testing.AllocsPerRun(50, func() { _, err = PlanQuery(c.d, c.x) })
		if err != nil {
			t.Fatal(err)
		}
		if allocs > c.budget {
			t.Errorf("%s: PlanQuery makes %.0f allocations, budget %.0f", c.name, allocs, c.budget)
		}
	}
}
