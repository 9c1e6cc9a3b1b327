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
	out, st2, err := p.Run(db, relation.NewParExec(1), lim)
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
	out, _, err = p.Run(db, relation.NewParExec(1), Limits{MaxTuples: st.TuplesProduced})
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
	out, st, err := p.Run(db, relation.NewParExec(1), lim)
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
	if _, _, err := p.Run(db, relation.NewParExec(1), Limits{Deadline: time.Now().Add(time.Minute)}); err != nil {
		t.Fatalf("evaluation under a generous deadline: %v", err)
	}
}

// TestEvalParLimits drives both rails through the parallel path (run
// under -race in CI: the abort must not leak worker state).
func TestEvalParLimits(t *testing.T) {
	p, db := limitsFixture(t)
	pe := relation.NewParExec(4)
	pe.MinParallel = 0 // force every eligible statement parallel

	_, st, err := p.Run(db, pe, Limits{})
	if err != nil {
		t.Fatal(err)
	}

	out, st2, err := p.Run(db, pe, Limits{MaxTuples: st.TuplesProduced - 1})
	if !errors.Is(err, ErrGasExhausted) {
		t.Errorf("parallel gas err = %v, want ErrGasExhausted", err)
	}
	if out != nil || st2 != nil {
		t.Error("aborted parallel evaluation returned partial state")
	}

	out, _, err = p.Run(db, pe, Limits{Deadline: time.Now().Add(-time.Millisecond)})
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("parallel deadline err = %v, want ErrDeadlineExceeded", err)
	}
	if out != nil {
		t.Error("aborted parallel evaluation returned a relation")
	}

	// A one-worker context enforces limits too.
	pe1 := relation.NewParExec(1)
	if _, _, err := p.Run(db, pe1, Limits{MaxTuples: 1}); !errors.Is(err, ErrGasExhausted) {
		t.Errorf("one-worker gas err = %v, want ErrGasExhausted", err)
	}
}
