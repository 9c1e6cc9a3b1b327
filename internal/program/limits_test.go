package program

import (
	"errors"
	"math/rand"
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
	p, err := Yannakakis(d, u.Set("a", "d"), tr)
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
	out, st2, err := p.Run(db, relation.NewExec(), lim)
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
	out, _, err = p.Run(db, relation.NewExec(), Limits{MaxTuples: st.TuplesProduced})
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
	out, st, err := p.Run(db, relation.NewExec(), lim)
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
	if _, _, err := p.Run(db, relation.NewExec(), Limits{Deadline: time.Now().Add(time.Minute)}); err != nil {
		t.Fatalf("evaluation under a generous deadline: %v", err)
	}
}

// TestLimitErrorLeavesExecReusable: a run aborted by either rail returns
// no partial state, leaves the frozen snapshot untouched, and leaves the
// execution context it ran in — pooled across requests by the engine —
// good for the next run. One budget runs out halfway through a join that
// streams into its projection: the error names the join, stopped past
// the gas and before its last row.
func TestLimitErrorLeavesExecReusable(t *testing.T) {
	p, db := limitsFixture(t)
	db.Freeze()
	before := make([]*relation.Relation, len(db.Rels))
	for i, r := range db.Rels {
		before[i] = r.Clone()
	}
	ex := relation.NewExec()
	want, st, err := p.Run(db, ex, Limits{})
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
	if fused < 0 || st.Detail[fused].Out < 2 {
		t.Fatalf("fixture streams no join of two rows or more:\n%s", st.Table())
	}
	midStream := Limits{MaxTuples: prior + st.Detail[fused].Out/2}

	for name, tc := range map[string]struct {
		lim  Limits
		want error
		stmt int // the statement the LimitError names; -1: any
	}{
		"gas":        {Limits{MaxTuples: st.TuplesProduced - 1}, ErrGasExhausted, -1},
		"one tuple":  {Limits{MaxTuples: 1}, ErrGasExhausted, -1},
		"deadline":   {Limits{Deadline: time.Now().Add(-time.Millisecond)}, ErrDeadlineExceeded, -1},
		"mid-stream": {midStream, ErrGasExhausted, fused},
	} {
		out, st2, err := p.Run(db, ex, tc.lim)
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
		got, st3, err := p.Run(db, ex, Limits{})
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
}

// sumOut is the sum of the Out of ds.
func sumOut(ds []StmtStat) int {
	n := 0
	for _, d := range ds {
		n += d.Out
	}
	return n
}
