package program

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"gyokit/internal/qualgraph"
	"gyokit/internal/relation"
	"gyokit/internal/schema"
)

// limitsFixture builds a chain-schema Yannakakis program and a database
// whose evaluation produces a known, nonzero number of tuples.
func limitsFixture(t *testing.T) (*Program, *relation.Database) {
	t.Helper()
	u := schema.NewUniverse()
	d := schema.MustParse(u, "ab, bc, cd")
	tr, ok := qualgraph.QualTree(d)
	if !ok {
		t.Fatal("chain schema rejected as tree")
	}
	p, err := YannakakisRooted(d, u.Set("a", "d"), tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	i, _ := relation.RandomUniversal(u, d.Attrs(), 200, 4, rng)
	return p, relation.URDatabase(d, i)
}

func TestGasExhausted(t *testing.T) {
	p, db := limitsFixture(t)

	// Establish the unlimited cost, then set the budget just below it.
	out, st, err := p.Eval(db)
	if err != nil {
		t.Fatal(err)
	}
	if st.TuplesProduced == 0 {
		t.Fatal("fixture produced no tuples; the gas rail has nothing to trip on")
	}
	want := out

	lim := Limits{MaxTuples: st.TuplesProduced - 1}
	out, st2, err := p.Run(db, relation.NewExec(), lim, relation.All)
	if err == nil {
		t.Fatal("evaluation under an insufficient gas budget succeeded")
	}
	if out != nil || st2 != nil {
		t.Error("aborted evaluation returned partial state")
	}
	if !errors.Is(err, ErrGasExhausted) {
		t.Errorf("err = %v, want ErrGasExhausted", err)
	}
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %T, want *LimitError", err)
	}
	if le.Produced <= lim.MaxTuples {
		t.Errorf("LimitError.Produced = %d, want > budget %d", le.Produced, lim.MaxTuples)
	}

	// An exactly-sufficient budget succeeds with the same answer: the
	// rail is > budget, not ≥.
	out, _, err = p.Run(db, relation.NewExec(), Limits{MaxTuples: st.TuplesProduced}, relation.All)
	if err != nil {
		t.Fatalf("evaluation under an exact budget: %v", err)
	}
	if !out.Equal(want) {
		t.Error("limited evaluation changed the answer")
	}
}

func TestDeadlineExceeded(t *testing.T) {
	p, db := limitsFixture(t)

	lim := Limits{Deadline: time.Now().Add(-time.Millisecond)}
	out, st, err := p.Run(db, relation.NewExec(), lim, relation.All)
	if err == nil {
		t.Fatal("evaluation past its deadline succeeded")
	}
	if out != nil || st != nil {
		t.Error("aborted evaluation returned partial state")
	}
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("err = %v, want ErrDeadlineExceeded", err)
	}

	// A generous deadline does not perturb the run.
	if _, _, err := p.Run(db, relation.NewExec(), Limits{Deadline: time.Now().Add(time.Minute)}, relation.All); err != nil {
		t.Fatalf("evaluation under a generous deadline: %v", err)
	}
}

// TestLimitErrorLeavesExecReusable: a run aborted by either rail returns
// no partial state, leaves the frozen snapshot untouched, and leaves the
// execution context it ran in — pooled across requests by the engine —
// good for the next run. One budget runs out halfway through a join that
// streams into its projection, the answer: the error names the join,
// stopped past the gas and before its last row, whether the run keeps
// every answer row or counts them and keeps one. Gas and a deadline also
// stop a streamed filter, and gas a streamed projection, inside one of
// their g-groups (streamStoppedInsideGroup).
func TestLimitErrorLeavesExecReusable(t *testing.T) {
	p, db := limitsFixture(t)
	db.Freeze()
	before := make([]*relation.Relation, len(db.Rels))
	for i, r := range db.Rels {
		before[i] = r.Clone()
	}
	ex := relation.NewExec()
	want, st, err := p.Run(db, ex, Limits{}, relation.All)
	if err != nil {
		t.Fatal(err)
	}

	// The last streamed join, and the tuples produced before it: a budget
	// that ends halfway through its rows stops it mid-stream.
	fused, prior := -1, 0
	for i, d := range st.Detail {
		if d.Streamed {
			fused, prior = i, sumOut(st.Detail[:i])
		}
	}
	if fused < 0 || st.Detail[fused].Out < 2 || fused+2 != len(p.Stmts) {
		t.Fatalf("fixture streams no join of two rows or more into its answer:\n%s", st.Table())
	}
	midStream := Limits{MaxTuples: prior + st.Detail[fused].Out/2}

	for name, tc := range map[string]struct {
		lim  Limits
		want error
		stmt int // the statement the LimitError names; -1: any
		k    int // the answer rows the run keeps
	}{
		"gas":                {Limits{MaxTuples: st.TuplesProduced - 1}, ErrGasExhausted, -1, relation.All},
		"one tuple":          {Limits{MaxTuples: 1}, ErrGasExhausted, -1, relation.All},
		"deadline":           {Limits{Deadline: time.Now().Add(-time.Millisecond)}, ErrDeadlineExceeded, -1, relation.All},
		"mid-stream":         {midStream, ErrGasExhausted, fused, relation.All},
		"counted gas":        {Limits{MaxTuples: st.TuplesProduced - 1}, ErrGasExhausted, -1, 1},
		"counted mid-stream": {midStream, ErrGasExhausted, fused, 1},
	} {
		out, st2, err := p.Run(db, ex, tc.lim, tc.k)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", name, err, tc.want)
		}
		var le *LimitError
		if errors.As(err, &le) && tc.stmt >= 0 &&
			(le.Stmt != tc.stmt || le.Produced <= tc.lim.MaxTuples || le.Produced >= prior+st.Detail[fused].Out) {
			t.Errorf("%s: stopped at statement %d with %d produced, want statement %d past %d, short of the whole join's %d",
				name, le.Stmt, le.Produced, tc.stmt, tc.lim.MaxTuples, prior+st.Detail[fused].Out)
		}
		if out != nil || st2 != nil {
			t.Errorf("%s: aborted evaluation returned partial state", name)
		}
		got, st3, err := p.Run(db, ex, Limits{}, relation.All)
		if err != nil {
			t.Fatalf("%s: run after the abort: %v", name, err)
		}
		if !got.Equal(want) || st3.TuplesProduced != st.TuplesProduced {
			t.Errorf("%s: run after the abort: %d tuples (%d produced), want %d (%d)",
				name, got.Card(), st3.TuplesProduced, want.Card(), st.TuplesProduced)
		}
	}
	for i, r := range db.Rels {
		if !r.Equal(before[i]) {
			t.Errorf("relation %d changed under aborted runs", i)
		}
	}
	// b's 3000 values spread 100 003 apart, past any bit rows: the chained
	// table; b over [0, 3000): bit rows. a's three values, 0, 1 and 2, are
	// numbered by value; 100 003 apart, by a keyTable of them.
	t.Run("filter inside a group", func(t *testing.T) { streamStoppedInsideGroup(t, 100003, 1) })
	t.Run("filter inside a group on bit rows", func(t *testing.T) { streamStoppedInsideGroup(t, 1, 1) })
	t.Run("inside a hash-numbered group", func(t *testing.T) { streamStoppedInsideGroup(t, 1, 100003) })
}

// streamStoppedInsideGroup is TestLimitErrorLeavesExecReusable's case of
// a streamed join stopped inside a g-group. The triangle's ∪GR bag is
// ab ⋈ bc ⋉ ac, streamed into the filter; with a ∈ [0, 3) times aStep,
// b ∈ [0, 3000) times bStep and c ∈ [0, 2), bc (6000 rows) is built, ab
// (9000) probed, and the filter's g = attrs(ac) ∩ attrs(ab) = a splits the
// probe side into three groups of 6000 join rows; so does the projection
// of ab ⋈ bc onto ac. Gas at half a group stops either run inside the
// first group walked; a deadline already past stops the filter itself at
// its first look, budgetStride join rows in, inside a group too. After
// each stop the same pooled Exec reruns the filter plan and the
// join→project program, and both must match a fresh Exec's output, row
// for row, and Stats.
func streamStoppedInsideGroup(t *testing.T, bStep, aStep relation.Value) {
	u := schema.NewUniverse()
	d := parse(t, u, "ab, bc, ac")
	db := &relation.Database{D: d}
	for _, r := range d.Rels {
		db.Rels = append(db.Rels, relation.New(u, r))
	}
	const na, nb, group = 3, 3000, 2 * 3000 // join rows per a-group: nb probe rows × 2 partners
	ab, bc, ac := db.Rels[0], db.Rels[1], db.Rels[2]
	for a := range relation.Value(na) {
		for b := range relation.Value(nb) {
			ab.Insert(relation.Tuple{a * aStep, b * bStep})
		}
	}
	for b := range relation.Value(nb) {
		bc.Insert(relation.Tuple{b * bStep, 0})
		bc.Insert(relation.Tuple{b * bStep, 1})
	}
	for _, t := range []relation.Tuple{{0, 0}, {0, 1}, {aStep, 0}, {2 * aStep, 1}} {
		ac.Insert(t)
	}
	db.Freeze()
	filter, err := CyclicPlan(d, d.Attrs())
	if err != nil {
		t.Fatal(err)
	}
	project := &Program{D: d, Stmts: []Stmt{{Kind: Join, Left: 0, Right: 1}, {Kind: Project, Left: 3, Proj: u.Set("a", "c")}}}

	// fresh runs p on a new Exec: the output and Stats a reused one must match.
	fresh := func(p *Program) (*relation.Relation, *Stats) {
		out, st, err := p.Run(db, relation.NewExec(), Limits{}, relation.All)
		if err != nil {
			t.Fatal(err)
		}
		return out, st
	}
	wantF, stF := fresh(filter)
	wantP, stP := fresh(project)
	if len(stF.Detail) != 2 || !stF.Detail[0].Streamed || filter.Stmts[1].Kind != Join || stF.Detail[0].Out != na*group {
		t.Fatalf("fixture: the filter plan is not one %d-row join streamed into a filter:\n%s", na*group, stF.Table())
	}
	if !stP.Detail[0].Streamed {
		t.Fatalf("fixture: the join does not stream into its projection:\n%s", stP.Table())
	}
	if byValue := groupsByValue(ab, bc, ac.Attrs()); byValue != (aStep == 1) {
		t.Fatalf("fixture: a %d apart numbers the groups by value %v", aStep, byValue)
	}

	ex := relation.NewExec()
	reuse := func(name string) {
		t.Helper()
		for _, c := range []struct {
			p    *Program
			want *relation.Relation
			st   *Stats
		}{{filter, wantF, stF}, {project, wantP, stP}} {
			got, st, err := c.p.Run(db, ex, Limits{}, relation.All)
			if err != nil {
				t.Fatalf("%s: run after the stop: %v", name, err)
			}
			if !slices.EqualFunc(got.Tuples(), c.want.Tuples(), slices.Equal) || !sameStats(st, c.st) {
				t.Fatalf("%s: run after the stop on the pooled Exec: %d rows,\n%s\nwant %d rows,\n%s",
					name, got.Card(), st.Table(), c.want.Card(), c.st.Table())
			}
		}
	}

	lim := Limits{MaxTuples: group / 2}
	_, _, err = filter.Run(db, ex, lim, relation.All)
	var le *LimitError
	if !errors.As(err, &le) || !errors.Is(err, ErrGasExhausted) || le.Stmt != 0 ||
		le.Produced <= lim.MaxTuples || le.Produced%group == 0 || le.Produced > group {
		t.Fatalf("gas: err = %v, want gas exhausted in statement 0 inside the first %d-row group, past %d", err, group, lim.MaxTuples)
	}
	reuse("gas")

	_, _, err = project.Run(db, ex, lim, relation.All)
	if !errors.As(err, &le) || !errors.Is(err, ErrGasExhausted) || le.Stmt != 0 ||
		le.Produced <= lim.MaxTuples || le.Produced%group == 0 || le.Produced > group {
		t.Fatalf("projection's gas: err = %v, want gas exhausted in statement 0 inside the first %d-row group, past %d", err, group, lim.MaxTuples)
	}
	reuse("projection's gas")

	out, cards := ex.JoinFilter(ab, bc, ac, relation.Chain{}, relation.All, relation.Budget{Deadline: time.Now().Add(-time.Millisecond)}, nil)
	if joined := cards[0]; out != nil || joined%group == 0 || joined >= na*group {
		t.Fatalf("deadline: the filter returned a relation %v after %d join rows, want it stopped inside a %d-row group", out != nil, joined, group)
	}
	reuse("deadline")
}

// sameStats reports whether two runs' Stats agree on everything but time.
func sameStats(a, b *Stats) bool {
	untimed := func(st *Stats) Stats {
		c := *st
		c.Elapsed = 0
		c.Detail = slices.Clone(st.Detail)
		for i := range c.Detail {
			c.Detail[i].Elapsed = 0
		}
		return c
	}
	return reflect.DeepEqual(untimed(a), untimed(b))
}

// sumOut is the sum of the Out of ds.
func sumOut(ds []StmtStat) int {
	n := 0
	for _, d := range ds {
		n += d.Out
	}
	return n
}

// TestGasStopsEveryJoin: the rails run inside a join that is neither
// streamed nor the answer too. ab ⋈ bc feeds a join with cd, which is
// wider than it, so it is materialized; a budget of half its rows stops
// it part way, at its own statement, and the Exec serves the next run.
func TestGasStopsEveryJoin(t *testing.T) {
	u := schema.NewUniverse()
	d := parse(t, u, "ab, bc, cd")
	db := danglingDB(d, 5, 3000, 300)
	const ab, bc, cd, j = 0, 1, 2, 3
	p := &Program{D: d, Stmts: []Stmt{{Kind: Join, Left: ab, Right: bc}, {Kind: Join, Left: j, Right: cd}}}
	ex := relation.NewExec()
	want, st, err := p.Run(db, ex, Limits{}, relation.All)
	if err != nil {
		t.Fatal(err)
	}
	if st.Detail[0].Streamed || st.Detail[0].Counted || st.Detail[0].Out < 2 {
		t.Fatalf("fixture's first join is streamed, counted or under two rows:\n%s", st.Table())
	}
	lim := Limits{MaxTuples: st.Detail[0].Out / 2}
	_, _, err = p.Run(db, ex, lim, relation.All)
	var le *LimitError
	if !errors.As(err, &le) || !errors.Is(err, ErrGasExhausted) || le.Stmt != 0 ||
		le.Produced <= lim.MaxTuples || le.Produced >= st.Detail[0].Out {
		t.Fatalf("err = %v, want gas exhausted in statement 0 past %d, short of its %d rows", err, lim.MaxTuples, st.Detail[0].Out)
	}
	if got, _, err := p.Run(db, ex, Limits{}, relation.All); err != nil || !got.Equal(want) {
		t.Fatalf("run after the abort: %v, %d tuples, want %d", err, got.Card(), want.Card())
	}
}
