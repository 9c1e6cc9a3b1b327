package gyo

import (
	"math/rand"
	"testing"

	"gyokit/internal/gen"
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

// TestFig1Classification reproduces the type column of the paper's
// Figure 1 via Corollary 3.1.
func TestFig1Classification(t *testing.T) {
	cases := []struct {
		schema string
		tree   bool
	}{
		{"ab, bc, cd", true},
		{"ab, bc, ac", false},
		{"abc, cde, ace, afe", true},
	}
	for _, c := range cases {
		u := schema.NewUniverse()
		d := parse(t, u, c.schema)
		if got := IsTree(d); got != c.tree {
			t.Errorf("IsTree(%s) = %v, want %v", c.schema, got, c.tree)
		}
	}
}

func TestReduceTrivia(t *testing.T) {
	u := schema.NewUniverse()
	// Single relation reduces to a single empty schema.
	r := ReduceFull(parse(t, u, "abc"))
	if !r.Empty() || len(r.Alive) != 1 {
		t.Errorf("single relation: GR = %s", r.GR)
	}
	// The empty schema is (vacuously) a tree schema.
	if !ReduceFull(&schema.Schema{U: u}).Empty() {
		t.Error("empty schema should reduce to empty")
	}
	// Disconnected tree schema still reduces to empty.
	if !IsTree(parse(t, u, "ab, cd")) {
		t.Error("(ab, cd) should be a tree schema")
	}
}

func TestReduceRingsAndCliques(t *testing.T) {
	// Arings and Acliques are irreducible under GYO with X = ∅: no
	// attribute occurs once, and no relation is a subset of another.
	for n := 3; n <= 8; n++ {
		ring := gen.Ring(n)
		r := ReduceFull(ring)
		if len(r.Trace) != 0 {
			t.Errorf("Aring(%d): GYO applied %d ops, want 0", n, len(r.Trace))
		}
		if r.Empty() {
			t.Errorf("Aring(%d) claimed tree", n)
		}
		cl := gen.Clique(n)
		rc := ReduceFull(cl)
		if len(rc.Trace) != 0 || rc.Empty() {
			t.Errorf("Aclique(%d): trace=%d empty=%v", n, len(rc.Trace), rc.Empty())
		}
	}
}

func TestSacredSet(t *testing.T) {
	u := schema.NewUniverse()
	d := parse(t, u, "ab, bc, cd")
	// With X = {a, d} sacred, GYO cannot empty the chain: b and c get
	// deleted where isolated, subsets collapse, but a and d survive.
	r := Reduce(d, u.Set("a", "d"))
	if r.Empty() {
		t.Fatal("sacred attributes were deleted")
	}
	got := r.GR.Attrs()
	if !got.Equal(u.Set("a", "d").Union(got.Intersect(u.Set("b", "c")))) {
		// a and d must be present; b/c may or may not survive depending
		// on subset collapses — but for the chain they must go.
	}
	if !r.GR.Attrs().Has(mustAttr(u, "a")) || !r.GR.Attrs().Has(mustAttr(u, "d")) {
		t.Errorf("GR(D, ad) = %s lost a sacred attribute", r.GR)
	}
	// GR(D, U(D)) on a reduced schema is D itself: only subset
	// elimination is permitted and none applies.
	d2 := parse(t, u, "ab, bc")
	r2 := Reduce(d2, d2.Attrs())
	if !r2.GR.MultisetEqual(d2) {
		t.Errorf("GR(D, U(D)) = %s, want %s", r2.GR, d2)
	}
}

// applicableOps returns every currently legal GYO operation, in a
// deterministic order.
func applicableOps(st *State) []Op {
	var ops []Op
	for i := range st.alive {
		st.Rel(i).ForEach(func(a schema.Attr) bool {
			if st.occ[a] == 1 && !st.x.Has(a) {
				ops = append(ops, Op{Kind: AttrDelete, Rel: i, Attr: a})
			}
			return true
		})
	}
	for i := range st.alive {
		for j := range st.alive {
			if i != j && st.alive[i] && st.alive[j] && st.Rel(i).SubsetOf(st.Rel(j)) {
				ops = append(ops, Op{Kind: SubsetEliminate, Rel: i, Into: j})
			}
		}
	}
	return ops
}

// runRandom applies up to maxSteps random applicable operations using
// rng, stopping early at a fixpoint. With maxSteps < 0 it runs to the
// fixpoint. It exercises partial reductions and confluence.
func runRandom(st *State, rng *rand.Rand, maxSteps int) {
	for steps := 0; maxSteps < 0 || steps < maxSteps; steps++ {
		ops := applicableOps(st)
		if len(ops) == 0 {
			return
		}
		if err := st.Apply(ops[rng.Intn(len(ops))]); err != nil {
			panic("gyo: internal: " + err.Error())
		}
	}
}

func mustAttr(u *schema.Universe, name string) schema.Attr {
	a, ok := u.Lookup(name)
	if !ok {
		panic("missing attr " + name)
	}
	return a
}

// TestSection51Example: GR((abc, ab, bc), ∪(ab, bc)) = (abc) ⊄ (ab, bc),
// the paper's §5.1 counterexample.
func TestSection51Example(t *testing.T) {
	u := schema.NewUniverse()
	d := parse(t, u, "abc, ab, bc")
	dp := parse(t, u, "ab, bc")
	r := Reduce(d, dp.Attrs())
	if r.GR.String() != "(abc)" {
		t.Errorf("GR = %s, want (abc)", r.GR)
	}
}

// TestConfluence verifies Maier–Ullman uniqueness: any maximal sequence
// of GYO operations reaches the same reduced schema.
func TestConfluence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 150; trial++ {
		var d *schema.Schema
		if trial%2 == 0 {
			d = gen.RandomSchema(rng, 2+rng.Intn(5), 2+rng.Intn(5), 0.5)
		} else {
			d = gen.TreeSchema(rng, 1+rng.Intn(6), 2, 2)
		}
		x := gen.RandomAttrSubset(rng, d.Attrs(), 0.3)
		want := Reduce(d, x).GR
		for run := 0; run < 4; run++ {
			st := NewState(d, x)
			runRandom(st, rng, -1)
			got := st.Result().GR
			if got.Key() != want.Key() {
				t.Fatalf("trial %d run %d: random order gave %s, deterministic gave %s (D=%s, X=%s)",
					trial, run, got, want, d, d.U.FormatSet(x))
			}
		}
	}
}

// TestPartialThenFull: completing any partial reduction reaches GR(D,X).
func TestPartialThenFull(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		d := gen.RandomSchema(rng, 2+rng.Intn(5), 3+rng.Intn(4), 0.4)
		x := gen.RandomAttrSubset(rng, d.Attrs(), 0.2)
		want := Reduce(d, x).GR.Key()
		st := NewState(d, x)
		runRandom(st, rng, rng.Intn(4)) // partial
		st.Run()                        // complete
		if st.Result().GR.Key() != want {
			t.Fatalf("partial+full ≠ full on %s", d)
		}
	}
}

func TestGRIsReduced(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		d := gen.RandomSchema(rng, 2+rng.Intn(6), 2+rng.Intn(6), 0.5)
		x := gen.RandomAttrSubset(rng, d.Attrs(), 0.3)
		gr := Reduce(d, x).GR
		if !gr.IsReduced() {
			t.Fatalf("GR(%s, %s) = %s is not reduced", d, d.U.FormatSet(x), gr)
		}
	}
}

// TestTypePreservation: GYO operations preserve schema type (the paper's
// §3.3 remark) — D is a tree schema iff any partial reduction of it is.
func TestTypePreservation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 120; trial++ {
		var d *schema.Schema
		if trial%2 == 0 {
			d = gen.RandomSchema(rng, 2+rng.Intn(5), 2+rng.Intn(5), 0.5)
		} else {
			d = gen.TreeSchema(rng, 1+rng.Intn(6), 2, 2)
		}
		x := gen.RandomAttrSubset(rng, d.Attrs(), 0.25)
		before := IsTree(d)
		st := NewState(d, x)
		runRandom(st, rng, 1+rng.Intn(5))
		after := IsTree(st.Result().GR)
		if before != after {
			t.Fatalf("partial GYO changed type: %s (tree=%v) → %s (tree=%v)",
				d, before, st.Result().GR, after)
		}
	}
}

// TestTheorem32 checks the four statements of Theorem 3.2 on random
// schemas:
//
//	(i)   D ∪ (R) tree ⇒ GR(D) ∪ (R) tree
//	(ii)  D ∪ (∪GR(D)) is a tree schema
//	(iii) D ∪ (S) tree ⇒ S ⊇ ∪GR(D)
//	(iv)  GR(D) ∪ (S) tree ⇒ S ⊇ ∪GR(D)
func TestTheorem32(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 150; trial++ {
		d := gen.RandomSchema(rng, 2+rng.Intn(5), 2+rng.Intn(5), 0.5)
		gr := ReduceFull(d).GR
		ugr := gr.Attrs()

		// (ii)
		if !IsTree(d.WithRel(ugr)) {
			t.Fatalf("(ii) failed: %s ∪ (%s) not a tree", d, d.U.FormatSet(ugr))
		}
		// Random candidate additions for (i), (iii), (iv).
		for k := 0; k < 5; k++ {
			s := gen.RandomAttrSubset(rng, d.Attrs(), 0.6)
			if IsTree(d.WithRel(s)) {
				if !IsTree(gr.WithRel(s)) {
					t.Fatalf("(i) failed: D∪(S) tree but GR(D)∪(S) cyclic; D=%s S=%s", d, d.U.FormatSet(s))
				}
				if !ugr.SubsetOf(s) {
					t.Fatalf("(iii) failed: D∪(S) tree but S=%s ⊉ ∪GR=%s; D=%s",
						d.U.FormatSet(s), d.U.FormatSet(ugr), d)
				}
			}
			if IsTree(gr.WithRel(s)) && !ugr.SubsetOf(s) {
				t.Fatalf("(iv) failed: GR(D)∪(S) tree but S ⊉ ∪GR; D=%s S=%s", d, d.U.FormatSet(s))
			}
		}
	}
}

// TestCorollary32 checks minimality of ∪GR(D): it treefies D, and for
// cyclic D no strictly smaller relation schema does.
func TestCorollary32(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	checked := 0
	for trial := 0; trial < 200 && checked < 30; trial++ {
		d := gen.RandomSchema(rng, 3, 2+rng.Intn(4), 0.6)
		if IsTree(d) {
			continue
		}
		checked++
		ugr := TreefyingRelation(d)
		if !IsTree(d.WithRel(ugr)) {
			t.Fatalf("∪GR did not treefy %s", d)
		}
		// By Theorem 3.2(iii) any treefying S contains ∪GR(D), so every
		// proper subset of ∪GR(D) must fail.
		attrs := ugr.Attrs()
		for _, a := range attrs {
			if IsTree(d.WithRel(ugr.Remove(a))) {
				t.Fatalf("smaller relation %s also treefies %s",
					d.U.FormatSet(ugr.Remove(a)), d)
			}
		}
	}
	if checked == 0 {
		t.Fatal("generator produced no cyclic schemas")
	}
}

func TestApplyValidation(t *testing.T) {
	u := schema.NewUniverse()
	d := parse(t, u, "ab, bc")
	st := NewState(d, u.Set("a"))
	a, b := mustAttr(u, "a"), mustAttr(u, "b")
	if err := st.Apply(Op{Kind: AttrDelete, Rel: 0, Attr: a}); err == nil {
		t.Error("deleting sacred attribute allowed")
	}
	if err := st.Apply(Op{Kind: AttrDelete, Rel: 0, Attr: b}); err == nil {
		t.Error("deleting shared attribute allowed")
	}
	if err := st.Apply(Op{Kind: SubsetEliminate, Rel: 0, Into: 1}); err == nil {
		t.Error("eliminating non-subset allowed")
	}
	if err := st.Apply(Op{Kind: SubsetEliminate, Rel: 0, Into: 0}); err == nil {
		t.Error("self-elimination allowed")
	}
	if err := st.Apply(Op{Kind: AttrDelete, Rel: 9, Attr: a}); err == nil {
		t.Error("op on out-of-range relation allowed")
	}
	if err := st.Apply(Op{Kind: OpKind(99)}); err == nil {
		t.Error("unknown op kind allowed")
	}
	// A legal deletion: c occurs only in R1.
	c := mustAttr(u, "c")
	if err := st.Apply(Op{Kind: AttrDelete, Rel: 1, Attr: c}); err != nil {
		t.Errorf("legal op rejected: %v", err)
	}
	// Now R1 = {b} ⊆ R0.
	if err := st.Apply(Op{Kind: SubsetEliminate, Rel: 1, Into: 0}); err != nil {
		t.Errorf("legal elimination rejected: %v", err)
	}
	if err := st.Apply(Op{Kind: AttrDelete, Rel: 1, Attr: b}); err == nil {
		t.Error("op on dead relation allowed")
	}
	if st.AliveCount() != 1 {
		t.Errorf("AliveCount = %d", st.AliveCount())
	}
	if !st.Rel(1).IsEmpty() {
		t.Error("dead relation should read as empty")
	}
}

func TestOpString(t *testing.T) {
	if (Op{Kind: AttrDelete, Rel: 2, Attr: 5}).String() == "" ||
		(Op{Kind: SubsetEliminate, Rel: 1, Into: 0}).String() == "" ||
		(Op{Kind: OpKind(9)}).String() != "invalid op" {
		t.Error("Op.String unhelpful")
	}
}

func TestTraceReplay(t *testing.T) {
	// Replaying a recorded trace on a fresh state reproduces GR.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		d := gen.RandomSchema(rng, 2+rng.Intn(5), 2+rng.Intn(5), 0.5)
		res := ReduceFull(d)
		st := NewState(d, schema.AttrSet{})
		for _, op := range res.Trace {
			if err := st.Apply(op); err != nil {
				t.Fatalf("replay failed at %v: %v", op, err)
			}
		}
		if st.Result().GR.Key() != res.GR.Key() {
			t.Fatal("replay diverged")
		}
		if len(applicableOps(st)) != 0 {
			t.Fatal("trace was not maximal")
		}
	}
}

// refReduce is the round-based reduction Run replaced, kept as its
// oracle: every round scans every alive relation for isolated
// attributes, then tests every ordered pair for a subset, eliminating
// each relation into its first superset. It copies a set per deletion.
func refReduce(d *schema.Schema, x schema.AttrSet) (gr []schema.AttrSet, alive []int, trace []Op) {
	rels := make([]schema.AttrSet, len(d.Rels))
	live := make([]bool, len(d.Rels))
	occ := make([]int, d.U.Size())
	for i, r := range d.Rels {
		rels[i], live[i] = r.Clone(), true
		r.ForEach(func(a schema.Attr) bool {
			occ[a]++
			return true
		})
	}
	for {
		progress := false
		for i, r := range rels {
			if !live[i] {
				continue
			}
			var doomed []schema.Attr
			r.ForEach(func(a schema.Attr) bool {
				if occ[a] == 1 && !x.Has(a) {
					doomed = append(doomed, a)
				}
				return true
			})
			for _, a := range doomed {
				rels[i] = rels[i].Remove(a)
				occ[a] = 0
				trace = append(trace, Op{Kind: AttrDelete, Rel: i, Attr: a})
				progress = true
			}
		}
		for i := range rels {
			for j := range rels {
				if i == j || !live[j] || !live[i] || !rels[i].SubsetOf(rels[j]) {
					continue
				}
				live[i] = false
				rels[i].ForEach(func(a schema.Attr) bool {
					occ[a]--
					return true
				})
				trace = append(trace, Op{Kind: SubsetEliminate, Rel: i, Into: j})
				progress = true
				break
			}
		}
		if !progress {
			break
		}
	}
	for i, r := range rels {
		if live[i] {
			gr, alive = append(gr, r), append(alive, i)
		}
	}
	return gr, alive, trace
}

// randomInstance draws a schema of 0–9 relations over up to 9
// attributes — empty, duplicate and disconnected relations included —
// and an X drawn from the whole universe, attributes outside U(D) too.
func randomInstance(rng *rand.Rand) (*schema.Schema, schema.AttrSet) {
	u, attrs := gen.Universe(1 + rng.Intn(9))
	d := schema.New(u)
	p := 0.15 + 0.5*rng.Float64()
	for n := rng.Intn(10); len(d.Rels) < n; {
		if len(d.Rels) > 0 && rng.Intn(6) == 0 {
			d.Add(d.Rels[rng.Intn(len(d.Rels))])
			continue
		}
		var r schema.AttrSet
		for _, a := range attrs {
			if rng.Float64() < p {
				r = r.Add(a)
			}
		}
		d.Add(r)
	}
	var x schema.AttrSet
	if rng.Intn(3) > 0 {
		q := 0.4 * rng.Float64()
		for _, a := range attrs {
			if rng.Float64() < q {
				x = x.Add(a)
			}
		}
	}
	return d, x
}

// TestRunMatchesRoundReduction holds Run to refReduce on random (D, X):
// the same Trace, survivors and surviving schemas.
func TestRunMatchesRoundReduction(t *testing.T) {
	trials := 100_000
	if testing.Short() {
		trials = 10_000
	}
	rng := rand.New(rand.NewSource(48))
	for trial := 0; trial < trials; trial++ {
		d, x := randomInstance(rng)
		gr, alive, trace := refReduce(d, x)
		res := Reduce(d, x)
		same := len(res.Trace) == len(trace) && len(res.Alive) == len(alive)
		for k := 0; same && k < len(trace); k++ {
			same = res.Trace[k] == trace[k]
		}
		for k := 0; same && k < len(alive); k++ {
			same = res.Alive[k] == alive[k] && res.GR.Rels[k].Equal(gr[k])
		}
		if !same {
			t.Fatalf("trial %d: D = %s, X = %s:\nRun   %v alive %v GR %s\nrounds %v alive %v GR %s",
				trial, d, d.U.FormatSet(x), res.Trace, res.Alive, res.GR, trace, alive, schema.New(d.U, gr...))
		}
	}
}
