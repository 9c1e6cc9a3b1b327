package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"gyokit/internal/gen"
	"gyokit/internal/graph"
	"gyokit/internal/gyo"
	"gyokit/internal/program"
	"gyokit/internal/qualgraph"
	"gyokit/internal/relation"
	"gyokit/internal/schema"
	"gyokit/internal/treeproj"
)

// fuzzInput deals decisions off the fuzz bytes, one byte each; an
// exhausted input reads as zeros, so every byte string decodes to a
// query.
type fuzzInput struct{ b []byte }

// next returns a value in [0, n).
func (in *fuzzInput) next(n int) int {
	if len(in.b) == 0 {
		return 0
	}
	v := int(in.b[0])
	in.b = in.b[1:]
	return v % n
}

// fuzzSchema picks a schema of at most 7 relations from the internal/gen
// families: paths, stars, random branching trees, rings (bare and with
// tails, the §4 workload) and unconstrained random schemas, which are
// cyclic, disconnected or nested as the draw falls.
func fuzzSchema(in *fuzzInput) *schema.Schema {
	switch in.next(5) {
	case 0:
		return gen.Chain(1 + in.next(7))
	case 1:
		return gen.Star(1 + in.next(7))
	case 2:
		rng := gen.RNG(int64(in.next(256)))
		return gen.TreeSchema(rng, 1+in.next(7), 2, 2)
	case 3:
		ring := [][2]int{{3, 0}, {3, 1}, {4, 0}, {5, 0}, {6, 0}}[in.next(5)]
		return gen.RingWithTails(ring[0], ring[1])
	default:
		rng := gen.RNG(int64(in.next(256)))
		n, m := 2+in.next(5), 3+in.next(4)
		return gen.RandomSchema(rng, n, m, 0.5)
	}
}

// fuzzHead picks a non-empty head. Half the draws take one or two
// attributes of a single relation — the heads that leave most of the tree
// dead, and the ones real traffic sends — a quarter one or two attributes
// from anywhere, a quarter an arbitrary subset of U(D).
func fuzzHead(in *fuzzInput, d *schema.Schema) schema.AttrSet {
	pool := d.Attrs().Attrs()
	switch in.next(4) {
	case 0, 1:
		pool = d.Rels[in.next(len(d.Rels))].Attrs()
	case 2:
	default:
		x := schema.NewAttrSet(pool[in.next(len(pool))])
		for _, a := range pool {
			if in.next(2) == 1 {
				x = x.Add(a)
			}
		}
		return x
	}
	x := schema.NewAttrSet(pool[in.next(len(pool))])
	if in.next(2) == 1 {
		x = x.Add(pool[in.next(len(pool))])
	}
	return x
}

// fuzzDatabase draws every relation independently (up to 6 tuples over a
// domain of 2–4 values, sometimes none), so the state is not the
// projection of any universal relation: tuples dangle, semijoins drop
// rows, and a plan that skips one it needs gives a different answer.
func fuzzDatabase(in *fuzzInput, d *schema.Schema) *relation.Database {
	rng := gen.RNG(int64(in.next(256)))
	domain := 2 + in.next(3)
	db := &relation.Database{D: d}
	for _, r := range d.Rels {
		rel, _ := relation.RandomUniversal(d.U, r, 6-in.next(7), domain, rng)
		db.Rels = append(db.Rels, rel)
	}
	return db
}

// FuzzQueryEquivalence holds every plan the planner can emit against the
// naive join on generated (schema, head, non-UR database) triples, and
// holds the plans themselves against the shape the answer-directed
// emitter promises: no statement the answer does not depend on, n−1
// upward semijoins plus one downward semijoin per live non-root node,
// and — on tree schemas — no intermediate wider than a relation ∪ X.
// Every plan is also held to its Theorem 6.1 certificate (certified):
// the decomposition is a tree schema between D and P(D), and with the
// joins' outputs and the answer it is a tree projection of P(D) wrt
// (D, X). On a tree schema it also holds FullReducer to global
// consistency: every relation it reduces equals the projection of the
// full join (on a cyclic schema that may fail, so it is not checked).
// The committed seeds run under plain `go test`.
func FuzzQueryEquivalence(f *testing.F) {
	for _, seed := range [][]byte{
		{},                                      // the 1-chain, x = a
		{0, 3, 0, 0, 0, 1, 1, 7, 1, 0, 2, 1, 3}, // 4-chain, x = ab
		{0, 3, 2, 3, 0, 9, 1, 1, 0, 2, 0},       // 4-chain, x = d
		{0, 6, 2, 0, 1, 7, 5, 1, 0, 1, 0, 1, 0, 1, 0},         // 7-chain, x = ah: nothing is dead
		{0, 6, 2, 0, 1, 7, 3, 2, 0, 0, 0, 6, 0, 0, 0},         // the same over an empty relation
		{0, 6, 0, 3, 1, 0, 8, 1, 1, 0, 0, 2, 0, 1, 0},         // 7-chain, head in the middle
		{1, 4, 0, 2, 1, 0, 4, 1, 0, 1, 2, 0, 1},               // star, head on one leaf
		{1, 4, 2, 1, 1, 4, 5, 1, 1, 0, 0, 2, 1},               // star, head on two leaves
		{2, 11, 6, 3, 1, 0, 1, 1, 0, 1, 0, 1, 21, 2},          // branching tree, subset head
		{2, 200, 5, 0, 2, 1, 1, 0, 33, 1},                     // branching tree, head inside one relation
		{2, 77, 6, 2, 5, 1, 9, 12, 1, 0, 0, 1, 0, 0, 2},       // branching tree, two far attributes
		{3, 1, 0, 4, 1, 0, 8, 1, 1, 0, 1},                     // ring3 with tails, head on a tail
		{3, 1, 2, 0, 1, 5, 3, 2},                              // ring3 with tails, head across ring and tail
		{3, 2, 2, 0, 1, 2, 77, 1},                             // ring4, two ring attributes
		{3, 4, 3, 1, 0, 1, 1, 0, 1, 0, 3, 1},                  // ring6, subset head
		{4, 17, 3, 2, 1, 0, 1, 1, 5, 1},                       // random schema
		{4, 99, 4, 3, 3, 2, 1, 0, 1, 1, 0, 1, 64, 1, 6, 0, 6}, // random schema, subset head, empty relations
		{4, 5, 4, 1, 0, 1, 1, 0, 1, 40, 2},                    // random schema, head inside one relation
	} {
		f.Add(seed)
	}
	f.Add(multiSourceSeed)
	for _, s := range streamingSeeds {
		f.Add(s.seed)
	}
	for _, s := range countedSeeds {
		f.Add(s.seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzInput{b: data}
		d := fuzzSchema(in)
		x := fuzzHead(in, d)
		db := fuzzDatabase(in, d)
		name := d.String() + " x=" + d.U.FormatSet(x)

		naive, err := program.NaivePlan(d, x)
		if err != nil {
			t.Fatalf("%s: naive plan: %v", name, err)
		}
		want, _, err := naive.Eval(db)
		if err != nil {
			t.Fatalf("%s: naive eval: %v", name, err)
		}
		// solves runs p and returns its stats, whose Joins/Projects/
		// Semijoins count every statement of p, skipped ones included. It
		// runs p again keeping k ∈ {0, 1, 10} answer rows, as a reply with
		// that limit does: the card must still be the naive join's, the
		// rows kept the whole run's first k, and the stats the whole run's
		// apart from Counted, which only the answer statement may carry.
		solves := func(label string, p *program.Program, lim program.Limits) *program.Stats {
			t.Helper()
			got, st, err := p.Run(db, relation.NewExec(), lim, relation.All)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, label, err)
			}
			if !got.Attrs().Equal(x) || !got.Equal(want) || st.AnswerCard() != want.Card() {
				t.Fatalf("%s: %s: %d tuples over %s (card %d), naive join has %d\n%s",
					name, label, got.Card(), d.U.FormatSet(got.Attrs()), st.AnswerCard(), want.Card(), st.Table())
			}
			if len(st.Detail) != len(p.Stmts) {
				t.Fatalf("%s: %s: stats cover %d of %d statements", name, label, len(st.Detail), len(p.Stmts))
			}
			for _, k := range []int{0, 1, 10} {
				first, kst, err := p.Run(db, relation.NewExec(), lim, k)
				if err != nil {
					t.Fatalf("%s: %s at k=%d: %v", name, label, k, err)
				}
				last := len(kst.Detail) - 1
				kept := first.Tuples()
				if kst.Detail[last].Counted && len(kept) != min(k, want.Card()) || len(kept) < min(k, want.Card()) {
					t.Fatalf("%s: %s at k=%d: %d rows kept of %d (counted %v)", name, label, k, len(kept), want.Card(), kst.Detail[last].Counted)
				}
				kept = kept[:min(k, len(kept))]
				if !slices.EqualFunc(kept, got.Tuples()[:len(kept)], slices.Equal) || kst.AnswerCard() != want.Card() {
					t.Fatalf("%s: %s at k=%d: card %d, rows %v; want %d and the first of %v\n%s",
						name, label, k, kst.AnswerCard(), kept, want.Card(), got.Tuples(), kst.Table())
				}
				if !sameStats(st, kst) {
					t.Fatalf("%s: %s at k=%d: stats differ from the whole run's\n%s\n%s", name, label, k, st.Table(), kst.Table())
				}
			}
			return st
		}

		qp, err := PlanQuery(d, x)
		if err != nil {
			t.Fatalf("%s: PlanQuery: %v", name, err)
		}
		solves("PlanQuery", qp.Prog, program.Limits{})
		st := solves("PlanQuery under generous limits", qp.Prog,
			program.Limits{MaxTuples: 1 << 40, Deadline: time.Now().Add(time.Hour)})
		noDeadStatement(t, name, qp.Prog)

		n := len(d.Rels)
		certified(t, name, qp, x)
		if (qp.Kind == KindCyclic) == gyo.IsTree(d) {
			t.Fatalf("%s: planned as %v", name, qp.Kind)
		}
		if qp.Kind == KindCyclic {
			return
		}
		if !slices.EqualFunc(qp.Dec.Bags.Rels, d.Rels, schema.AttrSet.Equal) {
			t.Fatalf("%s: tree schema decomposed into %s", name, qp.Dec.Bags)
		}
		tree := qp.Dec.Tree
		globallyConsistent(t, name, db, tree)
		minLive := n + 1
		for root := 0; root < n; root++ {
			p, err := program.YannakakisRooted(d, x, tree, root)
			if err != nil {
				t.Fatalf("%s: root %d: %v", name, root, err)
			}
			label := "YannakakisRooted at " + d.U.FormatSet(d.Rels[root])
			rst := solves(label, p, program.Limits{})
			noDeadStatement(t, name+": "+label, p)
			live := liveCount(d.Rels, tree, root, x)
			if rst.Semijoins != (n-1)+(live-1) || rst.Joins != live-1 {
				t.Fatalf("%s: %s: %d semijoins and %d joins, want %d and %d (|S| = %d)\n%s",
					name, label, rst.Semijoins, rst.Joins, (n-1)+(live-1), live-1, live, planText(p))
			}
			for i, sch := range p.SchemaMap().Rels[n:] {
				if !withinRelationAndHead(d, x, sch) {
					t.Fatalf("%s: %s: statement %d builds %s, wider than any relation ∪ X\n%s",
						name, label, i, d.U.FormatSet(sch), planText(p))
				}
			}
			if live < minLive {
				minLive = live
			}
		}
		if live := liveCount(d.Rels, tree, qp.Dec.Root, x); live != minLive || st.Semijoins != (n-1)+(live-1) {
			t.Fatalf("%s: planner root %s keeps %d nodes live with %d semijoins; the best root keeps %d\n%s",
				name, d.U.FormatSet(d.Rels[qp.Dec.Root]), live, st.Semijoins, minLive, planText(qp.Prog))
		}
		for _, r := range d.Rels {
			if x.SubsetOf(r) && (st.Semijoins != n-1 || st.Joins != 0 || st.Projects > 1) {
				t.Fatalf("%s: head inside %s, yet %d semijoins, %d joins, %d projections (want %d, 0, ≤ 1)\n%s",
					name, d.U.FormatSet(r), st.Semijoins, st.Joins, st.Projects, n-1, planText(qp.Prog))
			}
		}
	})
}

// certified holds qp to its Theorem 6.1 certificate, with P(D) the
// schema mapping of qp.Prog:
//
//	(i) D ≤ Dec.Bags ≤ P(D), and Dec.Tree is a qual tree for the bags
//	    with Dec.Root one of its nodes;
//	(ii) the bags, the output schema of every join and the answer's
//	    schema form a tree projection of P(D) wrt (D, X);
//	(iii) the program has at most 2·|D| semijoins, the budget Theorem
//	    6.1 allows once such a tree projection exists.
func certified(t *testing.T, name string, qp *QueryPlan, x schema.AttrSet) {
	t.Helper()
	p, dec := qp.Prog, qp.Dec
	d, pd := p.D, p.SchemaMap()
	if !d.LE(dec.Bags) || !dec.Bags.LE(pd) || !dec.Tree.IsTree() || !qualgraph.IsQualGraph(dec.Bags, dec.Tree) ||
		dec.Root < 0 || dec.Root >= len(dec.Bags.Rels) {
		t.Fatalf("%s: decomposition %s, tree %v, root %d is no tree schema between D and P(D) = %s",
			name, dec.Bags, dec.Tree.Edges(), dec.Root, pd)
	}
	w := dec.Bags.Clone()
	semijoins := 0
	for i, s := range p.Stmts {
		switch s.Kind {
		case program.Join:
			w.Add(pd.Rels[len(d.Rels)+i])
		case program.Semijoin:
			semijoins++
		}
	}
	w.Add(pd.Rels[p.ResultID()])
	if !treeproj.IsTreeProjectionWrtQuery(w, pd, d, x) {
		t.Fatalf("%s: %s is no tree projection of P(D) = %s wrt (D, X)\n%s", name, w, pd, planText(p))
	}
	if semijoins > 2*len(d.Rels) {
		t.Fatalf("%s: %d semijoins, budget %d\n%s", name, semijoins, 2*len(d.Rels), planText(p))
	}
}

// globallyConsistent runs FullReducer over db along the qual tree of its
// tree schema and fails unless every reduced relation equals π_Rᵢ of the
// full join.
func globallyConsistent(t *testing.T, name string, db *relation.Database, tree *graph.Undirected) {
	t.Helper()
	d := db.D
	p, reduced, err := program.FullReducer(d, tree)
	if err != nil {
		t.Fatalf("%s: FullReducer: %v", name, err)
	}
	ex := relation.NewExec()
	vals := append(make([]*relation.Relation, 0, p.NumIDs()), db.Rels...)
	for _, s := range p.Stmts {
		switch s.Kind {
		case program.Semijoin:
			vals = append(vals, ex.Semijoin(vals[s.Left], vals[s.Right]))
		case program.Project:
			vals = append(vals, ex.Project(vals[s.Left], s.Proj))
		default:
			t.Fatalf("%s: FullReducer emitted a %s", name, s.Kind)
		}
	}
	full := ex.JoinAll(db.Rels)
	for i, id := range reduced {
		if want := ex.Project(full, d.Rels[i]); !vals[id].Equal(want) {
			t.Fatalf("%s: FullReducer leaves %s with %v, π of the full join is %v\n%s",
				name, d.U.FormatSet(d.Rels[i]), vals[id], want, planText(p))
		}
	}
}

// multiSourceSeed is a FuzzQueryEquivalence seed whose decomposition
// builds ∪GR(D) from a projected GYO survivor and keeps a relation GYO
// eliminated as a subset beside it as a filter bag: (abde, acd, bcd, a),
// x = a, joins π_abd(abde), acd and bcd into abcd, and a filters it.
// TestMultiSourceSeed checks it.
var multiSourceSeed = []byte{4, 42, 232, 98, 161, 195, 52, 77, 143, 178, 159, 228, 31, 92, 164}

// TestMultiSourceSeed decodes multiSourceSeed the way
// FuzzQueryEquivalence does and checks that its plan still builds ∪GR(D)
// from a projected survivor, keeps a relation that is no survivor as a
// bag, and drops a row in some semijoin, so the committed seeds keep
// exercising a multi-source bag and its filters on a non-UR database.
func TestMultiSourceSeed(t *testing.T) {
	in := &fuzzInput{b: multiSourceSeed}
	d := fuzzSchema(in)
	x := fuzzHead(in, d)
	db := fuzzDatabase(in, d)
	qp, err := PlanQuery(d, x)
	if err != nil {
		t.Fatal(err)
	}
	name := d.String() + " x=" + d.U.FormatSet(x)
	if qp.Kind != KindCyclic {
		t.Fatalf("%s: planned as %v", name, qp.Kind)
	}
	core := qp.Dec.Src[len(qp.Dec.Src)-1]
	projected, survivor := false, make([]bool, len(d.Rels))
	for _, in := range core {
		projected = projected || !in.Proj.IsEmpty()
		survivor[in.Rel] = true
	}
	filter := false
	for _, src := range qp.Dec.Src[:len(qp.Dec.Src)-1] {
		filter = filter || !survivor[src[0].Rel]
	}
	_, st, err := qp.Prog.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	dropped := false
	for _, sd := range st.Detail {
		dropped = dropped || sd.Kind == program.Semijoin && sd.Out < sd.InLeft
	}
	if !projected || !filter || !dropped {
		t.Errorf("%s: bags %s from %v: projected survivor %v, eliminated relation kept %v, semijoin drops a row %v\n%s",
			name, qp.Dec.Bags, qp.Dec.Src, projected, filter, dropped, st.Table())
	}
}

// streamingSeeds are FuzzQueryEquivalence seeds whose PlanQuery plan has
// a join that Run streams into its successor, of the kind into; the
// planner emits no semijoin by a filter. TestStreamingSeeds checks each.
var streamingSeeds = []struct {
	seed []byte
	into program.StmtKind
}{
	{[]byte{1, 1, 10, 1, 9, 11, 11, 1, 3, 0, 2, 6}, program.Project}, // star ab, ac, x = bc: a tree's last join
	{[]byte{4, 9, 9, 4, 10, 8, 3, 3}, program.Project},               // random schema, acyclic, x = ac
	{[]byte{3, 6, 11, 9, 8, 7, 5}, program.Project},                  // ring3 with tails: the §4 plan's projection
	{[]byte{3, 9, 7, 6, 6, 4, 0}, program.Join},                      // ring6: a join filtered by a relation inside it
	{[]byte{4, 3, 8, 9, 3, 1, 4}, program.Join},                      // cyclic random schema: the filter drops rows
}

// TestStreamingSeeds decodes each streaming seed the way
// FuzzQueryEquivalence does and checks that Run streams a nonempty join
// of its PlanQuery plan into a statement of the kind the seed is for, so
// the fuzz seeds keep exercising both streamed sinks.
func TestStreamingSeeds(t *testing.T) {
	for _, s := range streamingSeeds {
		in := &fuzzInput{b: s.seed}
		d := fuzzSchema(in)
		x := fuzzHead(in, d)
		db := fuzzDatabase(in, d)
		qp, err := PlanQuery(d, x)
		if err != nil {
			t.Fatalf("%v: %v", s.seed, err)
		}
		_, st, err := qp.Prog.Eval(db)
		if err != nil {
			t.Fatalf("%v: %v", s.seed, err)
		}
		hit := false
		for i, sd := range st.Detail {
			hit = hit || sd.Streamed && sd.Out > 0 && st.Detail[i+1].Kind == s.into
		}
		if !hit {
			t.Errorf("seed %v (%s x=%s) streams no nonempty join into a %s\n%s",
				s.seed, d, d.U.FormatSet(x), s.into, st.Table())
		}
	}
}

// sameStats reports whether two runs of one program recorded the same
// costs, apart from wall times and from Counted on the answer statement.
func sameStats(a, b *program.Stats) bool {
	strip := func(st *program.Stats) []program.StmtStat {
		ds := slices.Clone(st.Detail)
		for i := range ds {
			ds[i].Elapsed = 0
			if i == len(ds)-1 {
				ds[i].Counted = false
			}
		}
		return ds
	}
	return a.TuplesProduced == b.TuplesProduced && a.MaxIntermediate == b.MaxIntermediate &&
		a.Joins == b.Joins && a.Projects == b.Projects && a.Semijoins == b.Semijoins &&
		slices.Equal(a.PerStmt, b.PerStmt) && slices.Equal(strip(a), strip(b))
}

// countedSeeds are FuzzQueryEquivalence seeds whose PlanQuery answer
// statement Run counts when it keeps one row: a join, and the consumer of
// a join streamed into a projection (JoinProject) or into a join with a
// filter (JoinFilter). Each answer has more rows than the oracle's
// middle k, so k = 1 and k = 10 both cut it. TestCountedSeeds checks
// each.
var countedSeeds = []struct {
	seed     []byte
	kind     program.StmtKind // the answer statement's kind
	streamed bool             // whether a join streams into it
}{
	{[]byte{5, 5, 3, 10, 7, 1, 5}, program.Join, false},                                // 6-chain, x = abcd
	{[]byte{2, 3, 6, 3, 14, 13, 13, 9, 4, 11, 11, 10, 2, 1, 5}, program.Project, true}, // branching tree, x = abcefij
	{[]byte{13, 2, 3, 3, 9, 15, 5}, program.Join, true},                                // ab, bc, cd, ad, x = abcd: the §4 join filtered by ad
}

// TestCountedSeeds decodes each counted seed the way FuzzQueryEquivalence
// does and checks that a run keeping one answer row counts the answer
// statement it is named for, and that the answer has more than ten rows.
func TestCountedSeeds(t *testing.T) {
	for _, s := range countedSeeds {
		in := &fuzzInput{b: s.seed}
		d := fuzzSchema(in)
		x := fuzzHead(in, d)
		db := fuzzDatabase(in, d)
		qp, err := PlanQuery(d, x)
		if err != nil {
			t.Fatalf("%v: %v", s.seed, err)
		}
		_, st, err := qp.Prog.Run(db, relation.NewExec(), program.Limits{}, 1)
		if err != nil {
			t.Fatalf("%v: %v", s.seed, err)
		}
		last := len(st.Detail) - 1
		if a := st.Detail[last]; !a.Counted || a.Kind != s.kind || st.Detail[last-1].Streamed != s.streamed || a.Out <= 10 {
			t.Errorf("seed %v (%s x=%s) answers with %+v, want a counted %s of more than 10 rows (streamed into: %v)\n%s",
				s.seed, d, d.U.FormatSet(x), a, s.kind, s.streamed, st.Table())
		}
	}
}

// noDeadStatement fails if the answer of p does not transitively depend
// on every statement of p.
func noDeadStatement(t *testing.T, name string, p *program.Program) {
	t.Helper()
	n := len(p.D.Rels)
	used := make([]bool, p.NumIDs())
	used[p.ResultID()] = true
	for i := len(p.Stmts) - 1; i >= 0; i-- {
		s := p.Stmts[i]
		if !used[n+i] {
			t.Fatalf("%s: statement %d (%s) does not reach the answer\n%s", name, i, s.Kind, planText(p))
		}
		used[s.Left] = true
		if s.Kind != program.Project {
			used[s.Right] = true
		}
	}
}

// liveCount is |S| straight from the definition, sharing nothing with
// the emitter: the root, plus every node whose subtree holds a head
// attribute outside the node's link to its parent.
func liveCount(rels []schema.AttrSet, t *graph.Undirected, root int, x schema.AttrSet) int {
	live := 0
	var walk func(v, parent int) schema.AttrSet
	walk = func(v, parent int) schema.AttrSet {
		sub := rels[v]
		for _, w := range t.Neighbors(v) {
			if w != parent {
				sub = sub.Union(walk(w, v))
			}
		}
		if parent < 0 || !x.Intersect(sub).SubsetOf(rels[v].Intersect(rels[parent])) {
			live++
		}
		return sub
	}
	walk(root, -1)
	return live
}

func withinRelationAndHead(d *schema.Schema, x, sch schema.AttrSet) bool {
	for _, r := range d.Rels {
		if sch.SubsetOf(r.Union(x)) {
			return true
		}
	}
	return false
}

// planText renders p one statement per line with the schema it builds.
func planText(p *program.Program) string {
	var b strings.Builder
	n := len(p.D.Rels)
	for i, sch := range p.SchemaMap().Rels[n:] {
		s := p.Stmts[i]
		fmt.Fprintf(&b, "%d := %s %d %d → %s\n", n+i, s.Kind, s.Left, s.Right, p.D.U.FormatSet(sch))
	}
	return b.String()
}
