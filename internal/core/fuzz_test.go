package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"gyokit/internal/gen"
	"gyokit/internal/graph"
	"gyokit/internal/program"
	"gyokit/internal/relation"
	"gyokit/internal/schema"
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
	for _, s := range streamingSeeds {
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
		// Semijoins count every statement of p, skipped ones included.
		solves := func(label string, p *program.Program, lim program.Limits) *program.Stats {
			t.Helper()
			got, st, err := p.Run(db, relation.NewExec(), lim)
			if err != nil {
				t.Fatalf("%s: %s: %v", name, label, err)
			}
			if !got.Attrs().Equal(x) || !got.Equal(want) {
				t.Fatalf("%s: %s: %d tuples over %s, naive join has %d\n%s",
					name, label, got.Card(), d.U.FormatSet(got.Attrs()), want.Card(), st.Table())
			}
			if len(st.Detail) != len(p.Stmts) {
				t.Fatalf("%s: %s: stats cover %d of %d statements", name, label, len(st.Detail), len(p.Stmts))
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
		if !qp.Cls.Tree {
			// The §4 tree has at most |D| + 1 nodes (D plus ∪GR).
			if qp.Kind != KindCyclic || qp.Root != -1 || st.Semijoins > 2*n {
				t.Fatalf("%s: cyclic plan labelled %v root %d with %d semijoins, budget %d", name, qp.Kind, qp.Root, st.Semijoins, 2*n)
			}
			return
		}
		tree := qp.Cls.QualTree
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
		if qp.Kind == KindCyclic || qp.Root < 0 || qp.Root >= n {
			t.Fatalf("%s: tree schema planned as %v root %d", name, qp.Kind, qp.Root)
		}
		if live := liveCount(d.Rels, tree, qp.Root, x); live != minLive || st.Semijoins != (n-1)+(live-1) {
			t.Fatalf("%s: planner root %s keeps %d nodes live with %d semijoins; the best root keeps %d\n%s",
				name, d.U.FormatSet(d.Rels[qp.Root]), live, st.Semijoins, minLive, planText(qp.Prog))
		}
		for _, r := range d.Rels {
			if x.SubsetOf(r) && (st.Semijoins != n-1 || st.Joins != 0 || st.Projects > 1) {
				t.Fatalf("%s: head inside %s, yet %d semijoins, %d joins, %d projections (want %d, 0, ≤ 1)\n%s",
					name, d.U.FormatSet(r), st.Semijoins, st.Joins, st.Projects, n-1, planText(qp.Prog))
			}
		}
	})
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
