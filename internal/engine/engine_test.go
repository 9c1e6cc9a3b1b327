package engine

import (
	"math/rand"
	"sync"
	"testing"

	"gyokit/internal/program"
	"gyokit/internal/relation"
	"gyokit/internal/schema"
)

func urdb(d *schema.Schema, seed int64, tuples, domain int) *relation.Database {
	rng := rand.New(rand.NewSource(seed))
	i, _ := relation.RandomUniversal(d.U, d.Attrs(), tuples, domain, rng)
	return relation.URDatabase(d, i)
}

// solveOn evaluates (d, x) against an explicit database state, through
// the plan cache.
func solveOn(e *Engine, db *relation.Database, d *schema.Schema, x schema.AttrSet) (*relation.Relation, *program.Stats, error) {
	pl, hit, err := e.plan(d, x)
	if err != nil {
		return nil, nil, err
	}
	return e.run(db, pl, hit, program.Limits{}, relation.All)
}

func TestPlanCacheHit(t *testing.T) {
	e := New(Options{})
	u := schema.NewUniverse()
	d := schema.MustParse(u, "ab, bc, cd")
	x := u.Set("a", "d")

	p1, err := e.Plan(d, x)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := e.Plan(d, x)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("repeat Plan did not return the cached plan")
	}
	st := e.Stats()
	if st.PlanHits != 1 || st.PlanMisses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", st)
	}

	// The same schema with relations in a different order hits too.
	d2 := schema.MustParse(u, "cd, ab, bc")
	p3, err := e.Plan(d2, x)
	if err != nil {
		t.Fatal(err)
	}
	if p3 != p1 {
		t.Error("reordered schema missed the cache")
	}

	// A different target misses.
	if _, err := e.Plan(d, u.Set("a", "b")); err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if st.PlanHits != 2 || st.PlanMisses != 2 {
		t.Errorf("stats = %+v, want 2 hits / 2 misses", st)
	}
}

func TestCacheDisabled(t *testing.T) {
	e := New(Options{PlanCacheSize: -1})
	u := schema.NewUniverse()
	d := schema.MustParse(u, "ab, bc")
	x := u.Set("a", "c")
	for i := 0; i < 3; i++ {
		if _, err := e.Plan(d, x); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.PlanHits != 0 || st.PlanMisses != 3 || st.CachedPlans != 0 {
		t.Errorf("disabled cache stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	e := New(Options{PlanCacheSize: 2})
	u := schema.NewUniverse()
	d := schema.MustParse(u, "ab, bc, cd")
	xs := []schema.AttrSet{u.Set("a", "b"), u.Set("a", "c"), u.Set("a", "d")}
	for _, x := range xs {
		if _, err := e.Plan(d, x); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Stats().CachedPlans; got != 2 {
		t.Fatalf("CachedPlans = %d, want 2 (capacity)", got)
	}
	// xs[0] was evicted; xs[2] is resident.
	if _, err := e.Plan(d, xs[2]); err != nil {
		t.Fatal(err)
	}
	if e.Stats().PlanHits != 1 {
		t.Error("most recent plan was not resident")
	}
	if _, err := e.Plan(d, xs[0]); err != nil {
		t.Fatal(err)
	}
	if e.Stats().PlanMisses != 4 {
		t.Error("evicted plan was still resident")
	}
}

func TestSolveMatchesDirectEval(t *testing.T) {
	u := schema.NewUniverse()
	d := schema.MustParse(u, "ab, bc, cd, de")
	x := u.Set("a", "e")
	db := urdb(d, 42, 80, 5)
	want := db.Eval(x) // naive reference: π_X(⋈ᵢ Rᵢ)

	e := New(Options{})
	e.Swap(db)
	for i := 0; i < 3; i++ { // cold then cached
		got, st, err := e.Solve(d, x)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("run %d: Solve ≠ naive eval", i)
		}
		if st == nil || len(st.PerStmt) == 0 {
			t.Fatalf("run %d: missing stats", i)
		}
	}
}

func TestSolveAlignsReorderedDatabase(t *testing.T) {
	u := schema.NewUniverse()
	d := schema.MustParse(u, "ab, bc, cd")
	x := u.Set("a", "d")
	db := urdb(d, 9, 50, 4)

	e := New(Options{})
	// Warm the cache with one relation ordering…
	if _, err := e.Plan(d, x); err != nil {
		t.Fatal(err)
	}
	// …then solve with the database and schema in another ordering.
	perm := []int{2, 0, 1}
	d2 := d.Restrict(perm)
	db2 := &relation.Database{D: d2, Univ: db.Univ}
	for _, i := range perm {
		db2.Rels = append(db2.Rels, db.Rels[i])
	}
	got, _, err := solveOn(e, db2, d2, x)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(db.Eval(x)) {
		t.Error("reordered solve gave a different answer")
	}
	if e.Stats().PlanHits != 1 {
		t.Error("reordered query did not hit the plan cache")
	}
}

func TestSolveWithoutSnapshot(t *testing.T) {
	e := New(Options{})
	u := schema.NewUniverse()
	d := schema.MustParse(u, "ab")
	if _, _, err := e.Solve(d, u.Set("a")); err == nil {
		t.Error("Solve without a snapshot did not error")
	}
}

func TestSwapPublishesAndFreezes(t *testing.T) {
	u := schema.NewUniverse()
	d := schema.MustParse(u, "ab, bc")
	db := urdb(d, 1, 20, 4)
	e := New(Options{})
	if prev := e.Swap(db); prev != nil {
		t.Error("first Swap returned a previous snapshot")
	}
	if !db.Rels[0].Frozen() {
		t.Error("Swap did not freeze the snapshot")
	}
	db2 := db.InsertTuple(0, relation.Tuple{9, 9})
	if prev := e.Swap(db2); prev != db {
		t.Error("Swap did not return the displaced snapshot")
	}
	if e.Snapshot() != db2 {
		t.Error("Snapshot is not the latest Swap")
	}
}

// TestUpdateNoLostWrites runs several concurrent copy-on-write writers
// through Update: every insert must survive into the final snapshot
// (a Snapshot→modify→Swap race would drop some).
func TestUpdateNoLostWrites(t *testing.T) {
	u := schema.NewUniverse()
	d := schema.MustParse(u, "ab")
	db := &relation.Database{D: d, Rels: []*relation.Relation{relation.New(u, d.Rels[0])}}
	e := New(Options{})
	e.Swap(db)

	const writers = 8
	const perWriter = 50
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				tup := relation.Tuple{relation.Value(g), relation.Value(i)}
				e.Update(func(snap *relation.Database) *relation.Database {
					return snap.InsertTuple(0, tup)
				})
			}
		}(g)
	}
	wg.Wait()
	if got := e.Snapshot().Rels[0].Card(); got != writers*perWriter {
		t.Errorf("final snapshot has %d tuples, want %d (lost updates)", got, writers*perWriter)
	}
}

// TestEngineConcurrentStress is the -race acceptance test: 8 reader
// goroutines issue a mix of cached and uncached queries (the cache is
// deliberately smaller than the query population, so hits and misses
// interleave) while a writer continuously derives copy-on-write
// snapshots and swaps them in. Every result is checked against a naive
// evaluation of the exact snapshot the reader pinned.
func TestEngineConcurrentStress(t *testing.T) {
	u := schema.NewUniverse()
	d := schema.MustParse(u, "ab, bc, cd, de")
	attrs := d.Attrs().Attrs()

	// Query population: all attribute pairs — 10 targets against a
	// 4-plan cache, so steady-state traffic mixes hits and misses.
	var targets []schema.AttrSet
	for i := 0; i < len(attrs); i++ {
		for j := i + 1; j < len(attrs); j++ {
			targets = append(targets, schema.NewAttrSet(attrs[i], attrs[j]))
		}
	}

	e := New(Options{PlanCacheSize: 4})
	e.Swap(urdb(d, 11, 40, 4))

	const readers = 8
	const iters = 150
	stop := make(chan struct{})
	var writerWG, readerWG sync.WaitGroup

	// Writer: grow relation states copy-on-write and publish.
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		rng := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stop:
				return
			default:
			}
			e.Update(func(snap *relation.Database) *relation.Database {
				ri := rng.Intn(len(snap.Rels))
				tup := make(relation.Tuple, len(snap.Rels[ri].Cols()))
				for k := range tup {
					tup[k] = relation.Value(rng.Intn(4))
				}
				return snap.InsertTuple(ri, tup)
			})
		}
	}()

	for g := 0; g < readers; g++ {
		readerWG.Add(1)
		go func(g int) {
			defer readerWG.Done()
			for i := 0; i < iters; i++ {
				x := targets[(g+i)%len(targets)]
				// Pin one snapshot so the answer is checkable even as
				// the writer races ahead.
				snap := e.Snapshot()
				got, _, err := solveOn(e, snap, d, x)
				if err != nil {
					t.Errorf("reader %d iter %d: %v", g, i, err)
					return
				}
				if !got.Equal(snap.Eval(x)) {
					t.Errorf("reader %d iter %d: engine result ≠ naive eval on pinned snapshot", g, i)
					return
				}
			}
		}(g)
	}

	readerWG.Wait()
	close(stop)
	writerWG.Wait()
	if t.Failed() {
		return
	}
	st := e.Stats()
	if st.PlanHits == 0 || st.PlanMisses == 0 {
		t.Errorf("stress traffic was not mixed: %+v", st)
	}
	if st.Evals != readers*iters {
		t.Errorf("Evals = %d, want %d", st.Evals, readers*iters)
	}
}
