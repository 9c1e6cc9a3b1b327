package relation

import (
	"math/rand"
	"testing"

	"gyokit/internal/gen"
	"gyokit/internal/schema"
)

func setup(t *testing.T) (*schema.Universe, *schema.Schema) {
	t.Helper()
	u := schema.NewUniverse()
	d, err := schema.Parse(u, "ab, bc")
	if err != nil {
		t.Fatal(err)
	}
	return u, d
}

func TestInsertDedupAndHas(t *testing.T) {
	u, _ := setup(t)
	r := New(u, u.Set("a", "b"))
	r.Insert(Tuple{1, 2})
	r.Insert(Tuple{1, 2})
	r.Insert(Tuple{2, 1})
	if r.Card() != 2 {
		t.Errorf("Card = %d, want 2", r.Card())
	}
	if !r.Has(Tuple{1, 2}) || r.Has(Tuple{3, 3}) {
		t.Error("Has wrong")
	}
	// Insert copies its argument.
	tup := Tuple{7, 8}
	r.Insert(tup)
	tup[0] = 99
	if !r.Has(Tuple{7, 8}) {
		t.Error("Insert aliased caller storage")
	}
}

func TestInsertMapAndPanics(t *testing.T) {
	u, _ := setup(t)
	r := New(u, u.Set("a", "b"))
	a, _ := u.Lookup("a")
	b, _ := u.Lookup("b")
	r.InsertMap(map[schema.Attr]Value{a: 1, b: 2})
	if !r.Has(Tuple{1, 2}) {
		t.Error("InsertMap failed")
	}
	mustPanic(t, func() { r.Insert(Tuple{1}) })
	mustPanic(t, func() { r.InsertMap(map[schema.Attr]Value{a: 1}) })
	mustPanic(t, func() { r.Project(u.Set("a", "c")) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestProject(t *testing.T) {
	u, _ := setup(t)
	r := New(u, u.Set("a", "b"))
	r.Insert(Tuple{1, 2})
	r.Insert(Tuple{1, 3})
	p := r.Project(u.Set("a"))
	if p.Card() != 1 || !p.Has(Tuple{1}) {
		t.Errorf("projection wrong: %s", p)
	}
	// Projection onto everything is identity.
	if !r.Project(r.Attrs()).Equal(r) {
		t.Error("identity projection broken")
	}
	// Projection onto ∅ of a nonempty relation: one empty tuple.
	e := r.Project(schema.AttrSet{})
	if e.Card() != 1 {
		t.Errorf("π_∅ card = %d, want 1", e.Card())
	}
}

func TestJoinBasic(t *testing.T) {
	u, _ := setup(t)
	ab := New(u, u.Set("a", "b"))
	bc := New(u, u.Set("b", "c"))
	ab.Insert(Tuple{1, 10})
	ab.Insert(Tuple{2, 20})
	bc.Insert(Tuple{10, 100}) // b=10, c=100
	bc.Insert(Tuple{10, 101})
	bc.Insert(Tuple{30, 300})
	j := ab.Join(bc)
	if j.Card() != 2 {
		t.Fatalf("join card = %d, want 2: %s", j.Card(), j)
	}
	// Column order is sorted attrs: a, b, c.
	if !j.Has(Tuple{1, 10, 100}) || !j.Has(Tuple{1, 10, 101}) {
		t.Errorf("join contents wrong: %s", j)
	}
}

func TestJoinCrossProduct(t *testing.T) {
	u := schema.NewUniverse()
	a := New(u, u.Set("a"))
	b := New(u, u.Set("b"))
	a.Insert(Tuple{1})
	a.Insert(Tuple{2})
	b.Insert(Tuple{7})
	b.Insert(Tuple{8})
	j := a.Join(b)
	if j.Card() != 4 {
		t.Errorf("cross product card = %d", j.Card())
	}
}

func TestJoinEmpty(t *testing.T) {
	u, _ := setup(t)
	ab := New(u, u.Set("a", "b"))
	bc := New(u, u.Set("b", "c"))
	ab.Insert(Tuple{1, 2})
	if ab.Join(bc).Card() != 0 {
		t.Error("join with empty should be empty")
	}
}

func TestSemijoinDefinition(t *testing.T) {
	// R ⋉ S = π_R(R ⋈ S), checked on random data.
	rng := rand.New(rand.NewSource(9))
	u := schema.NewUniverse()
	for trial := 0; trial < 50; trial++ {
		ra := gen.RandomAttrSubset(rng, u.Set("a", "b", "c", "d"), 0.7)
		sa := gen.RandomAttrSubset(rng, u.Set("b", "c", "d", "e"), 0.7)
		if ra.IsEmpty() || sa.IsEmpty() {
			continue
		}
		r, _ := RandomUniversal(u, ra, 20, 4, rng)
		s, _ := RandomUniversal(u, sa, 20, 4, rng)
		got := r.Semijoin(s)
		want := r.Join(s).Project(r.Attrs())
		if !got.Equal(want) {
			t.Fatalf("R⋉S ≠ π_R(R⋈S): R=%s S=%s", r, s)
		}
	}
}

func TestJoinAlgebraProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	u := schema.NewUniverse()
	pool := u.Set("a", "b", "c", "d", "e")
	for trial := 0; trial < 40; trial++ {
		ra := gen.RandomAttrSubset(rng, pool, 0.6)
		sa := gen.RandomAttrSubset(rng, pool, 0.6)
		ta := gen.RandomAttrSubset(rng, pool, 0.6)
		if ra.IsEmpty() || sa.IsEmpty() || ta.IsEmpty() {
			continue
		}
		r, _ := RandomUniversal(u, ra, 15, 3, rng)
		s, _ := RandomUniversal(u, sa, 15, 3, rng)
		w, _ := RandomUniversal(u, ta, 15, 3, rng)
		// Commutativity.
		if !r.Join(s).Equal(s.Join(r)) {
			t.Fatal("join not commutative")
		}
		// Associativity.
		if !r.Join(s).Join(w).Equal(r.Join(s.Join(w))) {
			t.Fatal("join not associative")
		}
		// Idempotence.
		if !r.Join(r).Equal(r) {
			t.Fatal("R ⋈ R ≠ R")
		}
		// Semijoin reduces cardinality.
		if r.Semijoin(s).Card() > r.Card() {
			t.Fatal("semijoin grew the relation")
		}
	}
}

func TestURDatabaseAndJD(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	u := schema.NewUniverse()
	d, _ := schema.Parse(u, "ab, bc, cd")
	i, _ := RandomUniversal(u, d.Attrs(), 30, 3, rng)
	db := URDatabase(d, i)
	if len(db.Rels) != 3 {
		t.Fatal("wrong relation count")
	}
	// The full join of projections always satisfies ⋈D.
	j := JoinAll(db.Rels)
	if !SatisfiesJD(j, d) {
		t.Error("⋈ of projections must satisfy the JD")
	}
	// And contains the original tuples.
	for _, tup := range i.Tuples() {
		if !j.Has(tup) {
			t.Fatal("join lost a universal tuple")
		}
	}
	// A deliberately JD-violating relation over the triangle schema:
	// the classic 2-tuple counterexample.
	tri, _ := schema.Parse(u, "ab, bc, ac")
	bad := New(u, tri.Attrs())
	bad.Insert(Tuple{0, 0, 1})
	bad.Insert(Tuple{1, 0, 0})
	bad.Insert(Tuple{0, 1, 0})
	if SatisfiesJD(bad, tri) {
		t.Error("triangle counterexample should violate ⋈D")
	}
}

func TestEvalMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	u := schema.NewUniverse()
	d, _ := schema.Parse(u, "ab, bc")
	i, _ := RandomUniversal(u, d.Attrs(), 25, 3, rng)
	db := URDatabase(d, i)
	x := u.Set("a", "c")
	got := db.Eval(x)
	want := db.Rels[0].Join(db.Rels[1]).Project(x)
	if !got.Equal(want) {
		t.Error("Eval mismatch")
	}
}

func TestRandomUniversalDeterminism(t *testing.T) {
	u := schema.NewUniverse()
	attrs := u.Set("a", "b", "c")
	r1, got1 := RandomUniversal(u, attrs, 20, 5, rand.New(rand.NewSource(1)))
	r2, got2 := RandomUniversal(u, attrs, 20, 5, rand.New(rand.NewSource(1)))
	if !r1.Equal(r2) {
		t.Error("same seed should give same relation")
	}
	if r1.Card() != 20 || got1 != 20 || got2 != 20 {
		t.Errorf("Card = %d (achieved %d, %d), want 20", r1.Card(), got1, got2)
	}
	// Tiny domain saturates: only 2 distinct tuples exist, and the
	// achieved count reports the shortfall instead of hiding it.
	tiny, got := RandomUniversal(u, u.Set("a"), 10, 2, rand.New(rand.NewSource(2)))
	if tiny.Card() != 2 || got != 2 {
		t.Errorf("saturated Card = %d, achieved = %d, want 2, 2", tiny.Card(), got)
	}
	if got == 10 {
		t.Error("achieved count must expose the truncation")
	}
}

func TestCloneAndEqual(t *testing.T) {
	u, _ := setup(t)
	r := New(u, u.Set("a", "b"))
	r.Insert(Tuple{1, 2})
	c := r.Clone()
	c.Insert(Tuple{3, 4})
	if r.Card() != 1 {
		t.Error("Clone shares storage")
	}
	if r.Equal(c) {
		t.Error("Equal ignores contents")
	}
	s := New(u, u.Set("a", "c"))
	s.Insert(Tuple{1, 2})
	if r.Equal(s) {
		t.Error("Equal ignores attribute sets")
	}
	mustPanic(t, func() { JoinAll(nil) })
}
