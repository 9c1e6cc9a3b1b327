package gyokit_test

import (
	"fmt"
	"testing"

	"gyokit"
)

// ExampleClassify demonstrates the §3 classification on Figure 1's
// schemas.
func ExampleClassify() {
	u := gyokit.NewUniverse()
	for _, s := range []string{"ab, bc, cd", "ab, bc, ac"} {
		d := gyokit.MustParse(u, s)
		cls, err := gyokit.Classify(d)
		if err != nil {
			panic(err)
		}
		kind := "cyclic"
		if cls.Tree {
			kind = "tree"
		}
		fmt.Printf("%s is a %s schema\n", d, kind)
	}
	// Output:
	// (ab, bc, cd) is a tree schema
	// (ab, bc, ac) is a cyclic schema
}

// ExampleSolveByJoins reproduces the §6 pruning example.
func ExampleSolveByJoins() {
	u := gyokit.NewUniverse()
	d := gyokit.MustParse(u, "abg, bcg, acf, ad, de, ea")
	sol, err := gyokit.SolveByJoins(d, u.Set("a", "b", "c"))
	if err != nil {
		panic(err)
	}
	fmt.Println("CC(D, abc) =", sol.CC.SortedString())
	fmt.Println("irrelevant relations:", sol.Irrelevant)
	// Output:
	// CC(D, abc) = (abg, ac, bcg)
	// irrelevant relations: [3 4 5]
}

// ExampleLosslessJoin reproduces the §5.1 example.
func ExampleLosslessJoin() {
	u := gyokit.NewUniverse()
	d := gyokit.MustParse(u, "abc, ab, bc")
	rep, err := gyokit.LosslessJoin(d, gyokit.MustParse(u, "ab, bc"))
	if err != nil {
		panic(err)
	}
	fmt.Println("⋈D ⊨ ⋈(ab, bc):", rep.Holds)
	fmt.Println("subtree of D:", rep.Subtree)
	// Output:
	// ⋈D ⊨ ⋈(ab, bc): false
	// subtree of D: false
}

func TestFacadeSmoke(t *testing.T) {
	u := gyokit.NewUniverse()
	ring := gyokit.Aring(u, 5)
	if gyokit.IsTreeSchema(ring) {
		t.Error("Aring(5) should be cyclic")
	}
	if gyokit.IsGammaAcyclic(ring) {
		t.Error("Aring(5) should not be γ-acyclic")
	}
	if _, ok := gyokit.QualTree(ring); ok {
		t.Error("cyclic schema has no qual tree")
	}
	tf := gyokit.TreefyingRelation(ring)
	if tf.Card() != 5 {
		t.Errorf("treefying relation size = %d", tf.Card())
	}
	aug := ring.WithRel(tf)
	if !gyokit.IsTreeSchema(aug) {
		t.Error("∪GR(D) did not treefy")
	}
	cl := gyokit.Aclique(gyokit.NewUniverse(), 4)
	if gyokit.IsTreeSchema(cl) {
		t.Error("Aclique(4) should be cyclic")
	}
}

func TestFacadeEndToEndQuery(t *testing.T) {
	u := gyokit.NewUniverse()
	d := gyokit.MustParse(u, "ab, bc, cd, de")
	x := u.Set("a", "e")
	qp, err := gyokit.Plan(d, x)
	if err != nil {
		t.Fatal(err)
	}
	if qp.Kind.String() != "acyclic" || !qp.Cls.Tree {
		t.Errorf("chain planned as %v", qp.Kind)
	}
	plan := qp.Prog
	db := gyokit.RandomURDatabase(d, 30, 4, 7)
	got, _, err := plan.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	want := db.Eval(x)
	if !got.Equal(want) {
		t.Error("Plan disagrees with naive evaluation")
	}
	an, err := gyokit.AnalyzeProgram(plan, x)
	if err != nil {
		t.Fatal(err)
	}
	if !an.TPWrtCC.Found {
		t.Error("solving program must admit a tree projection (Theorem 6.4)")
	}
}

func TestFacadeTreeProjection(t *testing.T) {
	u := gyokit.NewUniverse()
	d := gyokit.MustParse(u, "ab, bc, cd, de, ef, fg, gh, ha")
	dp := gyokit.MustParse(u, "abef, abch, cdgh, defg, ef")
	res := gyokit.FindTreeProjection(dp, d)
	if !res.Found {
		t.Fatal("§3.2 witness not found")
	}
	if !gyokit.IsTreeProjection(res.TP, dp, d) {
		t.Error("witness fails verification")
	}
}

func TestFacadeTreefy(t *testing.T) {
	u := gyokit.NewUniverse()
	ring := gyokit.Aring(u, 4)
	w, ok := gyokit.Treefy(ring, 1, 4)
	if !ok || len(w) != 1 || w[0].Card() != 4 {
		t.Errorf("Treefy(Aring(4), 1, 4) = %v, %v", w, ok)
	}
	if _, ok := gyokit.Treefy(ring, 1, 3); ok {
		t.Error("B=3 cannot cover a 4-attribute component")
	}
}

func TestFacadeQueriesEquivalent(t *testing.T) {
	u := gyokit.NewUniverse()
	d := gyokit.MustParse(u, "abc, ab, bc")
	dp := gyokit.MustParse(u, "abc")
	x := u.Set("a", "b", "c")
	if !gyokit.QueriesEquivalent(d, dp, x) {
		t.Error("(D, abc) should equal ((abc), abc)")
	}
	if !gyokit.CC(d, x).SetEqual(gyokit.MustParse(u, "abc")) {
		t.Error("CC wrong")
	}
	if !gyokit.Implies(d, dp) {
		t.Error("⋈D ⊨ ⋈(abc) should hold")
	}
	if !gyokit.IsSubtree(d, dp) {
		t.Error("(abc) should be a subtree")
	}
}

func TestFacadeGYOReduce(t *testing.T) {
	u := gyokit.NewUniverse()
	d := gyokit.MustParse(u, "abc, ab, bc")
	res := gyokit.GYOReduce(d, u.Set("a", "b", "c"))
	if res.GR.String() != "(abc)" {
		t.Errorf("GR = %s", res.GR)
	}
	s := gyokit.NewSchema(u, u.Set("a", "b"))
	if s.Len() != 1 {
		t.Error("NewSchema wrong")
	}
}

func TestFacadeEngine(t *testing.T) {
	u := gyokit.NewUniverse()
	d := gyokit.MustParse(u, "ab, bc, cd")
	x := u.Set("a", "d")
	db := gyokit.RandomURDatabase(d, 50, 4, 1)

	e := gyokit.NewEngine(gyokit.EngineOptions{})
	e.Swap(db)
	got, stats, err := e.Solve(d, x)
	if err != nil {
		t.Fatal(err)
	}
	if stats == nil || got.Card() == 0 {
		t.Fatalf("Solve returned card %d", got.Card())
	}
	if !got.Equal(db.Eval(x)) {
		t.Error("engine result ≠ naive eval")
	}
	if _, _, err := e.Solve(d, x); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.PlanHits == 0 || st.Evals != 2 {
		t.Errorf("engine stats = %+v", st)
	}
}
