package program

import (
	"fmt"
	"math/rand"
	"testing"

	"gyokit/internal/gen"
	"gyokit/internal/qualgraph"
	"gyokit/internal/relation"
	"gyokit/internal/schema"
)

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

// evalBoth runs the program serially and in pe's context on db and
// asserts identical results and consistent statistics, and that both
// equal the reference evaluation.
func evalBoth(t *testing.T, label string, p *Program, db *relation.Database, pe *relation.ParExec) {
	t.Helper()
	want, wantSt, err := p.Eval(db)
	if err != nil {
		t.Fatalf("%s: serial eval: %v", label, err)
	}
	if ref := refEval(p, db); !want.Equal(ref) {
		t.Fatalf("%s: serial result (%d tuples) ≠ reference result (%d tuples)", label, want.Card(), ref.Card())
	}
	got, gotSt, err := p.Run(db, pe, Limits{})
	if err != nil {
		t.Fatalf("%s: parallel eval: %v", label, err)
	}
	if !got.Equal(want) {
		t.Fatalf("%s: parallel result (%d tuples) ≠ serial result (%d tuples)", label, got.Card(), want.Card())
	}
	if gotSt.TuplesProduced != wantSt.TuplesProduced || gotSt.MaxIntermediate != wantSt.MaxIntermediate {
		t.Fatalf("%s: parallel stats (produced %d, max %d) ≠ serial (produced %d, max %d)",
			label, gotSt.TuplesProduced, gotSt.MaxIntermediate, wantSt.TuplesProduced, wantSt.MaxIntermediate)
	}
	for i := range gotSt.PerStmt {
		if gotSt.PerStmt[i] != wantSt.PerStmt[i] {
			t.Fatalf("%s: stmt %d output %d parallel vs %d serial", label, i, gotSt.PerStmt[i], wantSt.PerStmt[i])
		}
	}
}

// TestEvalParDifferential is the acceptance-criteria differential: on
// well over 100 randomized databases, the partition-parallel executor
// must produce exactly the serial executor's result, across plan
// shapes (full reducer, Yannakakis, naive join, cyclic strategy),
// shard counts, and parallelism thresholds (MinParallel 0 forces every
// eligible statement through the parallel path even on tiny inputs).
func TestEvalParDifferential(t *testing.T) {
	cases := 0
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
		yan, err := Yannakakis(d, x, tr)
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
			for _, p := range []int{2, 4} {
				pe := relation.NewParExec(p)
				pe.MinParallel = 0 // force the parallel path
				for name, prog := range progs {
					evalBoth(t, fmt.Sprintf("seed=%d n=%d p=%d %s", seed, tuples, p, name), prog, db, pe)
					cases++
				}
			}
			// Default threshold: small inputs stay serial but results
			// must still match.
			pe := relation.NewParExec(4)
			evalBoth(t, fmt.Sprintf("seed=%d n=%d default-threshold", seed, tuples), yan, db, pe)
			cases++
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
		db := relation.URDatabase(d, i)
		pe := relation.NewParExec(4)
		pe.MinParallel = 0
		evalBoth(t, fmt.Sprintf("cyclic seed=%d", seed), plan, db, pe)
		cases++
	}
	if cases < 100 {
		t.Fatalf("differential covered only %d randomized databases, want ≥ 100", cases)
	}
	t.Logf("differential covered %d (program, database, parallelism) cases", cases)
}

// TestEvalParStats checks the parallel bookkeeping: statements that
// fan out are counted, their shard count is recorded, and forced
// thresholds behave.
func TestEvalParStats(t *testing.T) {
	d := gen.Chain(5)
	tr, ok := qualgraph.QualTree(d)
	if !ok {
		t.Fatal("chain rejected")
	}
	attrs := d.Attrs().Attrs()
	x := schema.NewAttrSet(attrs[0], attrs[len(attrs)-1])
	plan, err := Yannakakis(d, x, tr)
	if err != nil {
		t.Fatal(err)
	}
	i, _ := relation.RandomUniversal(d.U, d.Attrs(), 2000, 16, gen.RNG(42))
	db := relation.URDatabase(d, i)

	pe := relation.NewParExec(4)
	pe.MinParallel = 0
	_, st, err := plan.Run(db, pe, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if st.ParallelStmts == 0 {
		t.Fatal("no statement ran partition-parallel despite MinParallel=0")
	}
	if st.Repartitions == 0 {
		t.Fatal("no partitioning was ever built")
	}
	par := 0
	for _, dt := range st.Detail {
		if dt.Shards != 0 && dt.Shards != 4 {
			t.Fatalf("statement records %d shards, want 0 or 4", dt.Shards)
		}
		if dt.Shards == 4 {
			par++
		}
	}
	if par != st.ParallelStmts {
		t.Fatalf("Detail says %d parallel statements, counter says %d", par, st.ParallelStmts)
	}

	// A sky-high threshold must keep everything serial.
	pe2 := relation.NewParExec(4)
	pe2.MinParallel = 1 << 30
	_, st2, err := plan.Run(db, pe2, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if st2.ParallelStmts != 0 {
		t.Fatalf("%d statements fanned out despite a prohibitive threshold", st2.ParallelStmts)
	}
}

// TestEvalParSingleWorker: P=1 must be exactly the serial path, with
// no partition bookkeeping.
func TestEvalParSingleWorker(t *testing.T) {
	d := gen.Chain(4)
	tr, _ := qualgraph.QualTree(d)
	attrs := d.Attrs().Attrs()
	x := schema.NewAttrSet(attrs[0], attrs[len(attrs)-1])
	plan, err := Yannakakis(d, x, tr)
	if err != nil {
		t.Fatal(err)
	}
	i, _ := relation.RandomUniversal(d.U, d.Attrs(), 100, 8, gen.RNG(7))
	db := relation.URDatabase(d, i)
	pe := relation.NewParExec(1)
	evalBoth(t, "p=1", plan, db, pe)
	_, st, err := plan.Run(db, pe, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if st.ParallelStmts != 0 || st.Repartitions != 0 {
		t.Fatalf("one-worker run fanned out: %d parallel statements, %d repartitions", st.ParallelStmts, st.Repartitions)
	}
}

// TestEvalParDoesNotMutateDatabase mirrors the Eval purity guarantee
// for the parallel path: frozen snapshot relations must be usable.
func TestEvalParDoesNotMutateDatabase(t *testing.T) {
	d := gen.Chain(4)
	tr, _ := qualgraph.QualTree(d)
	attrs := d.Attrs().Attrs()
	x := schema.NewAttrSet(attrs[0], attrs[len(attrs)-1])
	plan, err := Yannakakis(d, x, tr)
	if err != nil {
		t.Fatal(err)
	}
	i, _ := relation.RandomUniversal(d.U, d.Attrs(), 500, 8, gen.RNG(21))
	db := relation.URDatabase(d, i)
	db.Freeze()
	before := make([]*relation.Relation, len(db.Rels))
	for k, r := range db.Rels {
		before[k] = r.Clone()
	}
	pe := relation.NewParExec(4)
	pe.MinParallel = 0
	if _, _, err := plan.Run(db, pe, Limits{}); err != nil {
		t.Fatal(err)
	}
	for k, r := range db.Rels {
		if !r.Equal(before[k]) {
			t.Fatalf("relation %d mutated by a parallel Run", k)
		}
	}
}
