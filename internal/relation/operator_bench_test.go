package relation

// Operator benchmarks for the columnar engine. Run with
//
//	go test ./internal/relation -run '^$' -bench 'Join|Semijoin|Insert|Project' -benchmem

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// spread returns r with its columns in attrs multiplied by 1 000 003: the
// same join on values no bitmap or bit row within budget covers, so the
// operators take their hash-table paths.
func spread(r *Relation, attrs schema.AttrSet) *Relation {
	out := New(r.U, r.Attrs())
	for _, tp := range r.Tuples() {
		tp = slices.Clone(tp)
		for _, a := range attrs.Intersect(r.Attrs()).Attrs() {
			tp[r.colPos(a)] *= 1000003
		}
		out.Insert(tp)
	}
	return out
}

// everyChunkDead returns r less the first row of each of its chunks:
// every chunk then carries a dead-row bitmap.
func everyChunkDead(r *Relation) *Relation {
	var drop []Tuple
	for c := range r.chunks {
		drop = append(drop, slices.Clone(Tuple(r.row(c<<chunkShift))))
	}
	out, _ := r.Without(drop)
	return out
}

// BenchmarkSemijoinD20k prices ab ⋉ bc — eval_read's semijoin — in four
// forms: dense is D20k's, whose one key column b spans [0, 2000), so its
// key set is a bitmap; dense-dead is dense with a dead row in every chunk
// of both operands, so each chunk takes the loops for chunks with dead
// rows; sparse is the same rows with b multiplied by 1 000 003, a span no
// bitmap within budget covers, so the keyTable holds it; n=20 is the size
// of plan_churn's relations.
func BenchmarkSemijoinD20k(b *testing.B) {
	abc, ab, bc, _ := benchD20k()
	u := abc.U
	small, _ := RandomUniversal(u, abc.Attrs(), 20, 2000, rand.New(rand.NewSource(2)))
	sab, sbc := small.Project(u.Set("a", "b")), small.Project(u.Set("b", "c"))
	wab, wbc := spread(ab, u.Set("b")), spread(bc, u.Set("b"))
	dab, dbc := everyChunkDead(ab), everyChunkDead(bc)
	ex := NewExec()
	benchForms(b,
		benchForm{"dense", func() { ex.Semijoin(ab, bc) }},
		benchForm{"dense-dead", func() { ex.Semijoin(dab, dbc) }},
		benchForm{"sparse", func() { ex.Semijoin(wab, wbc) }},
		benchForm{"n=20", func() { ex.Semijoin(sab, sbc) }})
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
// in the counted form an answer read with "limit": 10 runs. D20k's key b
// and h column a span [0, 2000), so the streamed forms run on bit rows;
// wide is the counted form on the same rows with every column multiplied
// by 1 000 003, so it runs on the chained table; dead is the counted form
// with a dead row in every chunk of both operands, so the probe side is
// grouped by the loops for chunks with dead rows.
func BenchmarkJoinProject(b *testing.B) {
	abc, ab, bc, ac := benchD20k()
	wab, wbc := spread(ab, abc.Attrs()), spread(bc, abc.Attrs())
	dab, dbc := everyChunkDead(ab), everyChunkDead(bc)
	ex := NewExec()
	benchForms(b,
		benchForm{"streamed", func() { ex.JoinProject(ab, bc, ac.Attrs(), All, Budget{}) }},
		benchForm{"counted/k=10", func() { ex.JoinProject(ab, bc, ac.Attrs(), 10, Budget{}) }},
		benchForm{"two-statement", func() { ex.Project(ex.Join(ab, bc), ac.Attrs()) }},
		benchForm{"wide", func() { ex.JoinProject(wab, wbc, ac.Attrs(), 10, Budget{}) }},
		benchForm{"dead", func() { ex.JoinProject(dab, dbc, ac.Attrs(), 10, Budget{}) }})
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
// as an answer read with "limit": 10 runs it. Two more streamed forms
// price the grouped walk's edges: one-group filters by f over the build
// side's own column, so g = ∅ and one group's filter bits hold all of f;
// sparse-f keeps one row in ten of ac, so most join rows find their
// group holding nothing they carry. wide is the counted form with every
// column multiplied by 1 000 003: the chained table and group tables
// that D20k's dense b and h no longer take.
func BenchmarkJoinFilter(b *testing.B) {
	abc, ab, bc, ac := benchD20k()
	build, probe := ab, bc
	if bc.Card() < ab.Card() {
		build, probe = bc, ab
	}
	ex := NewExec()
	own := ex.Project(ac, build.Attrs().Diff(probe.Attrs()))
	sparse := New(ac.U, ac.Attrs())
	for i, tp := range ac.Tuples() {
		if i%10 == 0 {
			sparse.Insert(tp)
		}
	}
	wab, wbc, wac := spread(ab, abc.Attrs()), spread(bc, abc.Attrs()), spread(ac, abc.Attrs())
	var cards []int
	benchForms(b,
		benchForm{"streamed", func() { _, cards = ex.JoinFilter(ab, bc, ac, Chain{}, All, Budget{}, cards[:0]) }},
		benchForm{"counted/k=10", func() { _, cards = ex.JoinFilter(ab, bc, ac, Chain{}, 10, Budget{}, cards[:0]) }},
		benchForm{"two-statement", func() { ex.Join(ex.Join(ab, bc), ac) }},
		benchForm{"one-group", func() { _, cards = ex.JoinFilter(ab, bc, own, Chain{}, All, Budget{}, cards[:0]) }},
		benchForm{"sparse-f", func() { _, cards = ex.JoinFilter(ab, bc, sparse, Chain{}, All, Budget{}, cards[:0]) }},
		benchForm{"wide", func() { _, cards = ex.JoinFilter(wab, wbc, wac, Chain{}, 10, Budget{}, cards[:0]) }})
}

// BenchmarkJoinChain prices s8's bag and its reducer, π_ab((ab ⋈ bc ⋈ ac)
// ⋉ cd), over 20 000 universal tuples on a, b, c, d from [0, 2000): one
// JoinFilter chain — the filter by ac on bit rows, the semijoin by cd a
// mask over c, the projection marks of ab's rows — against the three
// statements it replaces, JoinFilter alone, Semijoin and Project, and
// against the chain on the generic paths (SetGeneric): the chained table,
// groups numbered by a keyTable and the semijoin a key set. Seed 1 gives |ab| > |bc|, so ab is probed
// either way; seed 3 gives |ab| < |bc|, so JoinFilter builds ab and the
// chain, projecting onto ab, still probes it.
func BenchmarkJoinChain(b *testing.B) {
	for _, seed := range []int64{1, 3} {
		u := schema.NewUniverse()
		abcd, _ := RandomUniversal(u, u.Set("a", "b", "c", "d"), 20000, 2000, rand.New(rand.NewSource(seed)))
		ab, bc, ac, cd := abcd.Project(u.Set("a", "b")), abcd.Project(u.Set("b", "c")), abcd.Project(u.Set("a", "c")), abcd.Project(u.Set("c", "d"))
		ex, generic := twinExecs()
		chain := Chain{Semijoins: []*Relation{cd}, Onto: ab}
		var cards []int
		b.Run(fmt.Sprintf("seed=%d", seed), func(b *testing.B) {
			benchForms(b,
				benchForm{"chain", func() { _, cards = ex.JoinFilter(ab, bc, ac, chain, All, Budget{}, cards[:0]) }},
				benchForm{"generic", func() { _, cards = generic.JoinFilter(ab, bc, ac, chain, All, Budget{}, cards[:0]) }},
				benchForm{"three-statement", func() {
					var bag *Relation
					bag, cards = ex.JoinFilter(ab, bc, ac, Chain{}, All, Budget{}, cards[:0])
					ex.Project(ex.Semijoin(bag, cd), ab.Attrs())
				}})
		})
	}
}

// BenchmarkJoinD20k prices ab ⋈ bc — eval_read's q6, whose answer it is —
// stored whole and counted as an answer read with "limit": 10 runs it,
// which adds each bucket past its tenth row up from the bucket's size;
// wide is the counted form with every column multiplied by 1 000 003.
func BenchmarkJoinD20k(b *testing.B) {
	abc, ab, bc, _ := benchD20k()
	wab, wbc := spread(ab, abc.Attrs()), spread(bc, abc.Attrs())
	ex := NewExec()
	benchForms(b,
		benchForm{"stored", func() { ex.Join(ab, bc) }},
		benchForm{"counted/k=10", func() { ex.JoinFirst(ab, bc, 10, Budget{}) }},
		benchForm{"wide", func() { ex.JoinFirst(wab, wbc, 10, Budget{}) }})
}

// densityTriangle returns 20 000 universal tuples' ab, bc and ac, with b
// and c drawn from [0, 2000) and a from [0, hdom): D20k's triangle with
// its h column a widened. A tuple whose ab or bc is already held is
// redrawn, so ab and bc both have 20 000 rows and ab — the first operand
// on a tie — is the build side: key b, h = a.
func densityTriangle(hdom int) (ab, bc, ac *Relation) {
	u := schema.NewUniverse()
	ab, bc, ac = New(u, u.Set("a", "b")), New(u, u.Set("b", "c")), New(u, u.Set("a", "c"))
	rng := rand.New(rand.NewSource(1))
	for ab.Card() < 20000 {
		a, b, c := Value(rng.Intn(hdom)), Value(rng.Intn(2000)), Value(rng.Intn(2000))
		if ab.Has(Tuple{a, b}) || bc.Has(Tuple{b, c}) {
			continue
		}
		ab.Insert(Tuple{a, b})
		bc.Insert(Tuple{b, c})
		ac.Insert(Tuple{a, c})
	}
	return ab, bc, ac
}

// BenchmarkJoinDensity is the sweep bitRowWords is set from: eval_read's
// counted q5 (project) and q7 (filter) over densityTriangle as h's
// domain grows by √2 from D20k's 2000 to 128 000 — from 3.2 to 200 words
// of bit rows per build row — and at the two bounds themselves (h over
// 640 · bitRowWords values: 2000 keys of 64 · bitRowWords bits), each on
// bit rows and on the chained table, whatever bitRowWords would pick.
func BenchmarkJoinDensity(b *testing.B) {
	defer func(c [len(bitRowWords)]int) { bitRowWords = c }(bitRowWords)
	var hdoms []int
	for step := 0; step <= 12; step++ {
		hdoms = append(hdoms, int(2000*math.Exp2(float64(step)/2)))
	}
	hdoms = append(hdoms, 640*bitRowWords[projectRows], 640*bitRowWords[filterRows])
	slices.Sort(hdoms)
	ex := NewExec()
	var cards []int
	for _, hdom := range hdoms {
		ab, bc, ac := densityTriangle(hdom)
		for _, path := range []struct {
			name  string
			words int
		}{{"bits", math.MaxInt32}, {"chained", 0}} {
			b.Run(fmt.Sprintf("project/h=%d/%s", hdom, path.name), func(b *testing.B) {
				bitRowWords[projectRows] = path.words
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					ex.JoinProject(ab, bc, ac.Attrs(), 10, Budget{})
				}
			})
			b.Run(fmt.Sprintf("filter/h=%d/%s", hdom, path.name), func(b *testing.B) {
				bitRowWords[filterRows] = path.words
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_, cards = ex.JoinFilter(ab, bc, ac, Chain{}, 10, Budget{}, cards[:0])
				}
			})
		}
	}
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
