package relation

// Operator benchmarks for the columnar engine. Run with
//
//	go test ./internal/relation -run '^$' -bench 'Join|Semijoin|Insert|Project' -benchmem

import (
	"fmt"
	"math/rand"
	"testing"

	"gyokit/internal/schema"
)

// benchTuples generates n width-2 tuples: column 0 unique, column 1
// uniform over n/8 values, so an ab ⋈ bc join has ~8×8 matches per key.
func benchTuples(n int, seed int64) []Tuple {
	rng := rand.New(rand.NewSource(seed))
	dom := n / 8
	if dom < 1 {
		dom = 1
	}
	out := make([]Tuple, n)
	for i := range out {
		out[i] = Tuple{Value(i), Value(rng.Intn(dom))}
	}
	return out
}

func benchSizes() []int { return []int{1000, 10000, 50000} }

func BenchmarkInsertColumnar(b *testing.B) {
	u := schema.NewUniverse()
	ab := u.Set("a", "b")
	for _, n := range benchSizes() {
		data := benchTuples(n, 1)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := New(u, ab)
				for _, t := range data {
					r.Insert(t)
				}
			}
		})
	}
}

// benchJoinPair builds R(a,b) and S(b,c) with matching b distributions.
func benchJoinPair(u *schema.Universe, n int) (*Relation, *Relation) {
	r, s := New(u, u.Set("a", "b")), New(u, u.Set("b", "c"))
	for _, t := range benchTuples(n, 2) {
		r.Insert(t)
	}
	for _, t := range benchTuples(n, 3) {
		// S columns are (b, c) = (random, unique): swap so the shared
		// attribute b is the random column on both sides.
		s.Insert(Tuple{t[1], t[0]})
	}
	return r, s
}

// benchKeyPair builds R(k1..kw, a) and S(k1..kw, c), n rows each, that
// share w key columns: n/8 distinct keys spread over all w columns, so a
// key matches ~8 rows a side whatever its width. Widths 1 and 2 pack the
// key into the word; 3 takes the folded, verified branch.
func benchKeyPair(n, w int) (*Relation, *Relation) {
	u := schema.NewUniverse()
	keys := u.Set([]string{"k1", "k2", "k3"}[:w]...) // interned first: columns 0..w-1 on both sides
	r, s := New(u, keys.Union(u.Set("a"))), New(u, keys.Union(u.Set("c")))
	for side, rel := range []*Relation{r, s} {
		for i, t := range benchTuples(n, int64(4+side)) {
			row := make(Tuple, 0, w+1)
			for j := 1; j <= w; j++ {
				row = append(row, t[1]*Value(j))
			}
			rel.Insert(append(row, Value(i)))
		}
	}
	return r, s
}

// benchOperator times op over the benchmark pair at every size, and at
// n = 10000 over pairs sharing 1, 2 and 3 key columns.
func benchOperator(b *testing.B, op func(ex *Exec, r, s *Relation)) {
	u := schema.NewUniverse()
	run := func(name string, r, s *Relation) {
		ex := NewExec()
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op(ex, r, s)
			}
		})
	}
	for _, n := range benchSizes() {
		r, s := benchJoinPair(u, n)
		run(fmt.Sprintf("n=%d", n), r, s)
	}
	for w := 1; w <= 3; w++ {
		r, s := benchKeyPair(10000, w)
		run(fmt.Sprintf("keys=%d", w), r, s)
	}
}

func BenchmarkJoinColumnar(b *testing.B) {
	benchOperator(b, func(ex *Exec, r, s *Relation) { ex.Join(r, s) })
}

func BenchmarkSemijoinColumnar(b *testing.B) {
	benchOperator(b, func(ex *Exec, r, s *Relation) { ex.Semijoin(r, s) })
}

// BenchmarkProjectColumnar projects the ≈8n-row join of the benchmark
// pair back onto bc — the early projection a Yannakakis plan runs after
// each join — so every output row is found ≈8 times: the scan pays both
// the append and the duplicate hit.
func BenchmarkProjectColumnar(b *testing.B) {
	u := schema.NewUniverse()
	for _, n := range benchSizes() {
		r, s := benchJoinPair(u, n)
		ex := NewExec()
		abc := ex.Join(r, s)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ex.Project(abc, s.Attrs())
			}
		})
	}
}

// benchD20k returns 20 000 universal tuples over a, b, c drawn from
// [0, 2000), and their ab, bc and ac — the shape of the D20k triangle:
// about 20k rows a relation, and ab ⋈ bc about ten times that.
func benchD20k() (abc, ab, bc, ac *Relation) {
	u := schema.NewUniverse()
	abc, _ = RandomUniversal(u, u.Set("a", "b", "c"), 20000, 2000, rand.New(rand.NewSource(1)))
	return abc, abc.Project(u.Set("a", "b")), abc.Project(u.Set("b", "c")), abc.Project(u.Set("a", "c"))
}

// BenchmarkProjectD20k prices standalone Project on both sides of its
// trade: a collapsing projection (ab→a, the shape of q4's cd→D) finds
// most of its rows already seen, the injective ones (abc→ab, the shape of
// s8's ∪GR→ab, and ab→ab) emit nearly every row they read, and 20 rows
// is the size of plan_churn's relations.
func BenchmarkProjectD20k(b *testing.B) {
	abc, ab, _, _ := benchD20k()
	u := abc.U
	small, _ := RandomUniversal(u, abc.Attrs(), 20, 2000, rand.New(rand.NewSource(2)))
	ex := NewExec()
	for _, c := range []struct {
		name string
		r    *Relation
		x    schema.AttrSet
	}{
		{"ab→a", ab, u.Set("a")},
		{"abc→ab", abc, u.Set("a", "b")},
		{"ab→ab", ab, u.Set("a", "b")},
		{"n=20", small, u.Set("a", "b")},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ex.Project(c.r, c.x)
			}
		})
	}
}

// BenchmarkJoinProject prices π_ac(ab ⋈ bc) — eval_read's q5 — streamed
// through one JoinProject against the two statements it replaces, a Join
// whose output the Project then deduplicates in a table sized by it, and
// in the counted form an answer read with "limit": 10 runs.
func BenchmarkJoinProject(b *testing.B) {
	_, ab, bc, ac := benchD20k()
	ex := NewExec()
	benchForms(b,
		benchForm{"streamed", func() { ex.JoinProject(ab, bc, ac.Attrs(), All, Budget{}) }},
		benchForm{"counted/k=10", func() { ex.JoinProject(ab, bc, ac.Attrs(), 10, Budget{}) }},
		benchForm{"two-statement", func() { ex.Project(ex.Join(ab, bc), ac.Attrs()) }})
}

// BenchmarkJoinProjectRowGroups prices JoinProject on groups of one probe
// row: π_abc(ab ⋈ bc) keeps every probe column, so each of the ≈20k probe
// rows is a group of its ≈10 partners, where q5's ≈2000 groups have ≈100
// join rows each. It is the shape that pays most for starting a group.
func BenchmarkJoinProjectRowGroups(b *testing.B) {
	abc, ab, bc, _ := benchD20k()
	ex := NewExec()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ex.JoinProject(ab, bc, abc.Attrs(), All, Budget{})
	}
}

// BenchmarkJoinFilter prices (ab ⋈ bc) ⋈ ac — eval_read's q7 — streamed
// through one JoinFilter against the two joins it replaces, and counted
// as an answer read with "limit": 10 runs it.
func BenchmarkJoinFilter(b *testing.B) {
	_, ab, bc, ac := benchD20k()
	ex := NewExec()
	benchForms(b,
		benchForm{"streamed", func() { ex.JoinFilter(ab, bc, ac, All, Budget{}) }},
		benchForm{"counted/k=10", func() { ex.JoinFilter(ab, bc, ac, 10, Budget{}) }},
		benchForm{"two-statement", func() { ex.Join(ex.Join(ab, bc), ac) }})
}

// BenchmarkJoinD20k prices ab ⋈ bc — eval_read's q6, whose answer it is —
// stored whole and counted as an answer read with "limit": 10 runs it.
func BenchmarkJoinD20k(b *testing.B) {
	_, ab, bc, _ := benchD20k()
	ex := NewExec()
	benchForms(b,
		benchForm{"stored", func() { ex.Join(ab, bc) }},
		benchForm{"counted/k=10", func() { ex.JoinFirst(ab, bc, 10, Budget{}) }})
}

// benchForm is one form of an operator, timed as the sub-benchmark name.
type benchForm struct {
	name string
	op   func()
}

// benchForms times each form of an operator as its own sub-benchmark.
func benchForms(b *testing.B, forms ...benchForm) {
	for _, form := range forms {
		b.Run(form.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				form.op()
			}
		})
	}
}
