package relation

// Differential / property tests: the columnar hash engine is checked
// against naiveRel, a deliberately simple nested-loop reference
// implementation that shares no code with the engine (string-keyed
// rows, O(n·m) joins). On randomized databases every operator must be
// set-equal to the reference.

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"

	"gyokit/internal/gen"
	"gyokit/internal/schema"
)

// naiveRel is the reference implementation: rows keyed by their
// rendered string, operators by nested loops over map iteration.
type naiveRel struct {
	attrs schema.AttrSet
	cols  []schema.Attr
	rows  map[string]Tuple
}

func newNaive(attrs schema.AttrSet) *naiveRel {
	return &naiveRel{attrs: attrs, cols: attrs.Attrs(), rows: map[string]Tuple{}}
}

func naiveKey(t Tuple) string {
	b := make([]byte, 0, 12*len(t))
	for i, v := range t {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return string(b)
}

func (r *naiveRel) insert(t Tuple) {
	if len(t) != len(r.cols) {
		panic("naive: arity")
	}
	r.rows[naiveKey(t)] = append(Tuple(nil), t...)
}

func (r *naiveRel) pos(a schema.Attr) int {
	for i, c := range r.cols {
		if c == a {
			return i
		}
	}
	panic("naive: attribute not present")
}

func (r *naiveRel) project(x schema.AttrSet) *naiveRel {
	out := newNaive(x)
	for _, t := range r.rows {
		nt := make(Tuple, len(out.cols))
		for i, c := range out.cols {
			nt[i] = t[r.pos(c)]
		}
		out.insert(nt)
	}
	return out
}

// keyOn renders row t of r on the attributes shared, which r has.
func (r *naiveRel) keyOn(t Tuple, shared []schema.Attr) string {
	k := make(Tuple, len(shared))
	for i, c := range shared {
		k[i] = t[r.pos(c)]
	}
	return naiveKey(k)
}

// byKey groups the rows of r by their rendered shared columns, so a join
// or semijoin looks a row's partners up instead of scanning for them: on
// a dense 1024-row operand the scan took seconds.
func (r *naiveRel) byKey(shared []schema.Attr) map[string][]Tuple {
	m := map[string][]Tuple{}
	for _, t := range r.rows {
		k := r.keyOn(t, shared)
		m[k] = append(m[k], t)
	}
	return m
}

func (r *naiveRel) join(s *naiveRel) *naiveRel {
	shared := r.attrs.Intersect(s.attrs).Attrs()
	partners := s.byKey(shared)
	out := newNaive(r.attrs.Union(s.attrs))
	for _, rt := range r.rows {
		for _, st := range partners[r.keyOn(rt, shared)] {
			nt := make(Tuple, len(out.cols))
			for i, c := range out.cols {
				if r.attrs.Has(c) {
					nt[i] = rt[r.pos(c)]
				} else {
					nt[i] = st[s.pos(c)]
				}
			}
			out.insert(nt)
		}
	}
	return out
}

func (r *naiveRel) semijoin(s *naiveRel) *naiveRel {
	shared := r.attrs.Intersect(s.attrs).Attrs()
	partners := s.byKey(shared)
	out := newNaive(r.attrs)
	for _, rt := range r.rows {
		if len(partners[r.keyOn(rt, shared)]) > 0 {
			out.insert(rt)
		}
	}
	return out
}

// sortedRows renders a tuple multiset canonically for comparison.
func sortedRows(tuples []Tuple) []string {
	out := make([]string, len(tuples))
	for i, t := range tuples {
		out[i] = naiveKey(t)
	}
	sort.Strings(out)
	return out
}

func sameRows(t *testing.T, label string, eng *Relation, ref *naiveRel) {
	t.Helper()
	if !eng.Attrs().Equal(ref.attrs) {
		t.Fatalf("%s: attrs %v ≠ %v", label, eng.Attrs(), ref.attrs)
	}
	got := sortedRows(eng.Tuples())
	var refTuples []Tuple
	for _, rt := range ref.rows {
		refTuples = append(refTuples, rt)
	}
	want := sortedRows(refTuples)
	if len(got) != len(want) {
		t.Fatalf("%s: card %d ≠ %d\ngot  %v\nwant %v", label, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: row %d: %s ≠ %s", label, i, got[i], want[i])
		}
	}
}

// sameSet checks an operator output against the reference through every
// path that needs set membership. Operator outputs are born without a
// set index and build it on the first such use, so mk is called afresh
// for each path: every one of them gets to be the first.
func sameSet(t *testing.T, label string, mk func() *Relation, ref *naiveRel) {
	t.Helper()
	sameRows(t, label, mk(), ref)
	u := mk().U
	twin := New(u, ref.attrs) // the reference's rows, inserted (so indexed)
	keys := make([]string, 0, len(ref.rows))
	for k, rt := range ref.rows {
		twin.Insert(rt)
		keys = append(keys, k)
	}
	sort.Strings(keys) // a fixed order, so the halves below are reproducible
	rows := make([]Tuple, len(keys))
	for i, k := range keys {
		rows[i] = ref.rows[k]
	}
	absent := make(Tuple, len(ref.cols))
	for i := range absent {
		absent[i] = -7 // generators draw from [0, domain)
	}

	out := mk()
	for _, rt := range rows {
		if !out.Has(rt) {
			t.Fatalf("%s: Has(%v) = false", label, rt)
		}
	}
	if len(absent) > 0 && out.Has(absent) {
		t.Fatalf("%s: Has(%v) = true", label, absent)
	}
	if !twin.Equal(mk()) {
		t.Fatalf("%s: reference.Equal(output) = false", label)
	}
	if !mk().Equal(twin) {
		t.Fatalf("%s: output.Equal(reference) = false", label)
	}

	cl := mk().Clone()
	for _, rt := range rows {
		cl.Insert(rt)
	}
	if cl.Card() != len(rows) {
		t.Fatalf("%s: clone accepted a duplicate: card %d, want %d", label, cl.Card(), len(rows))
	}
	if len(absent) > 0 {
		cl.Insert(absent)
		if cl.Card() != len(rows)+1 || !cl.Has(absent) {
			t.Fatalf("%s: clone rejected a new row", label)
		}
	}

	drop := append([]Tuple{}, rows[:len(rows)/2]...)
	if len(absent) > 0 { // the zero-width tuple is the only one there is
		drop = append(drop, absent)
	}
	kept, removed := mk().Without(drop)
	if removed != len(rows)/2 {
		t.Fatalf("%s: Without removed %d, want %d", label, removed, len(rows)/2)
	}
	want := newNaive(ref.attrs)
	for _, rt := range rows[len(rows)/2:] {
		want.insert(rt)
	}
	sameRows(t, label+" without", kept, want)
	if removed > 0 && (kept.Has(rows[0]) || !kept.Has(rows[len(rows)-1])) {
		t.Fatalf("%s: Without result answers Has wrongly", label)
	}

	w := len(ref.cols)
	id, rev := make([]int, w), make([]int, w)
	for k := range id {
		id[k], rev[k] = k, w-1-k
	}
	frozen := mk()
	frozen.Freeze()
	for name, v := range map[string]*Relation{
		"identity view": frozen.Renamed(u, ref.attrs, id),
		"identity copy": mk().Renamed(u, ref.attrs, id),
	} {
		if !v.Equal(twin) || !twin.Equal(v) {
			t.Fatalf("%s: %s differs from the reference", label, name)
		}
	}
	perm := mk().Renamed(u, ref.attrs, rev)
	if perm.Card() != len(rows) {
		t.Fatalf("%s: permuted card %d, want %d", label, perm.Card(), len(rows))
	}
	for _, rt := range rows {
		pt := make(Tuple, w)
		for k := range pt {
			pt[k] = rt[rev[k]]
		}
		if !perm.Has(pt) {
			t.Fatalf("%s: permuted relation misses %v", label, pt)
		}
	}
}

// naiveOf copies r's live tuples into the reference engine.
func naiveOf(r *Relation) *naiveRel {
	ref := newNaive(r.Attrs())
	for _, tp := range r.Tuples() {
		ref.insert(tp)
	}
	return ref
}

// joinInOrder is Join's output as a sequence, by nested loops: the
// probe side's rows in position order (the probe side is r unless r is
// strictly the bigger operand), and for each of them its partners on
// the other side newest first.
func joinInOrder(r, s *Relation) []Tuple {
	build, probe := r, s
	if s.Card() < r.Card() {
		build, probe = s, r
	}
	var shared [][2]int // probe column, build column
	for pi, c := range probe.cols {
		if build.attrs.Has(c) {
			shared = append(shared, [2]int{pi, build.colPos(c)})
		}
	}
	cols := r.attrs.Union(s.attrs).Attrs()
	brows := build.Tuples()
	var out []Tuple
	for _, pt := range probe.Tuples() {
		for k := len(brows) - 1; k >= 0; k-- {
			bt := brows[k]
			if slices.ContainsFunc(shared, func(p [2]int) bool { return pt[p[0]] != bt[p[1]] }) {
				continue
			}
			row := make(Tuple, len(cols))
			for i, c := range cols {
				if probe.attrs.Has(c) {
					row[i] = pt[probe.colPos(c)]
				} else {
					row[i] = bt[build.colPos(c)]
				}
			}
			out = append(out, row)
		}
	}
	return out
}

// checkKernels runs Join, Semijoin and Project over r and s — which may
// carry dead rows — through ex and holds each to the nested-loop
// reference as a set and to its row order as well (Join: probe order
// with partners newest first; Semijoin: r's own order; Project: the
// first occurrence of each projection, in r's order), every output to be
// dense, and both operands to be bit for bit what they were.
func checkKernels(t *testing.T, label string, ex *Exec, r, s *Relation, px schema.AttrSet) {
	t.Helper()
	rBefore, sBefore := captureLayout(r), captureLayout(s)
	nr, ns := naiveOf(r), naiveOf(s)
	sameSeq := func(op string, got *Relation, want []Tuple) {
		t.Helper()
		if got.dead != 0 {
			t.Fatalf("%s: %s output carries %d dead rows", label, op, got.dead)
		}
		if !slices.EqualFunc(got.Tuples(), want, func(a, b Tuple) bool { return slices.Equal(a, b) }) {
			t.Fatalf("%s: %s rows, in order\ngot  %v\nwant %v", label, op, got.Tuples(), want)
		}
	}

	join := ex.Join(r, s)
	sameRows(t, label+" join", join, nr.join(ns))
	sameSeq("join", join, joinInOrder(r, s))

	semi := ex.Semijoin(r, s)
	kept := nr.semijoin(ns)
	sameRows(t, label+" semijoin", semi, kept)
	var inOrder []Tuple
	for _, tp := range r.Tuples() {
		if _, ok := kept.rows[naiveKey(tp)]; ok {
			inOrder = append(inOrder, tp)
		}
	}
	sameSeq("semijoin", semi, inOrder)

	proj := ex.Project(r, px)
	sameRows(t, label+" project", proj, nr.project(px))
	var firsts []Tuple
	seen := map[string]bool{}
	for _, tp := range r.Tuples() {
		pt := Tuple{}
		for _, c := range px.Attrs() {
			pt = append(pt, tp[r.colPos(c)])
		}
		if k := naiveKey(pt); !seen[k] {
			seen[k] = true
			firsts = append(firsts, pt)
		}
	}
	sameSeq("project", proj, firsts)

	rBefore.check(t, r, label+": left operand")
	sBefore.check(t, s, label+": right operand")
}

// checkStreams runs the streamed join sinks over r and s — which, like f,
// may carry dead rows — through ex: JoinProject onto x (⊆ attrs(r ⋈ s))
// and JoinFilter by f (attrs(f) ⊆ attrs(r ⋈ s)). Each is held set-equal
// to the nested-loop reference and to the two-statement form on the same
// Exec — Project(Join(r, s)), Join(Join(r, s), f) — and to be dense; the
// filter also to Join's row order with the misses dropped; both to
// report |r ⋈ s| and, under a budget of exactly that many rows, to stop;
// and every operand to be bit for bit what it was. Each sink — Join's
// too — is then run in counted form at k = 0, 1 and 3: it must count
// what the stored form holds, walk as many join rows, and keep the
// stored form's first k rows, in order.
func checkStreams(t *testing.T, label string, ex *Exec, r, s, f *Relation, x schema.AttrSet) {
	t.Helper()
	before := []layout{captureLayout(r), captureLayout(s), captureLayout(f)}
	nj := naiveOf(r).join(naiveOf(s))
	dense := func(op string, got *Relation, card, joined int) {
		t.Helper()
		if got.dead != 0 {
			t.Fatalf("%s: %s output carries %d dead rows", label, op, got.dead)
		}
		if joined != len(nj.rows) || card != got.Card() {
			t.Fatalf("%s: %s walked %d join rows and counted %d, r ⋈ s has %d and the output %d",
				label, op, joined, card, len(nj.rows), got.Card())
		}
	}

	proj, card, joined := ex.JoinProject(r, s, x, All, Budget{})
	dense("streamed project", proj, card, joined)
	sameRows(t, label+" streamed project", proj, nj.project(x))
	sameRows(t, label+" streamed project vs two statements", proj, naiveOf(ex.Project(ex.Join(r, s), x)))

	filt, card, joined := ex.JoinFilter(r, s, f, All, Budget{})
	dense("streamed filter", filt, card, joined)
	nf := naiveOf(f)
	sameRows(t, label+" streamed filter", filt, nj.join(nf))
	sameRows(t, label+" streamed filter vs two statements", filt, naiveOf(ex.Join(ex.Join(r, s), f)))
	var inOrder []Tuple
	for _, tp := range joinInOrder(r, s) {
		key := make(Tuple, len(nf.cols))
		for i, c := range nf.cols {
			key[i] = tp[nj.pos(c)]
		}
		if _, ok := nf.rows[naiveKey(key)]; ok {
			inOrder = append(inOrder, tp)
		}
	}
	if !slices.EqualFunc(filt.Tuples(), inOrder, func(a, b Tuple) bool { return slices.Equal(a, b) }) {
		t.Fatalf("%s: streamed filter rows, in order\ngot  %v\nwant %v", label, filt.Tuples(), inOrder)
	}

	if n := len(nj.rows); n > 0 {
		if out, _, stopped := ex.JoinProject(r, s, x, All, Budget{Rows: n}); out != nil || stopped != n {
			t.Fatalf("%s: a %d-row budget on a %d-row join: output %v after %d rows", label, n, n, out != nil, stopped)
		}
		if out, _, _ := ex.JoinFilter(r, s, f, All, Budget{Rows: n + 1}); out == nil {
			t.Fatalf("%s: a %d-row budget stopped a %d-row join", label, n+1, n)
		}
		if out, stopped := ex.JoinFirst(r, s, 1, Budget{Rows: n}); out != nil || stopped != n {
			t.Fatalf("%s: a %d-row budget on a counted %d-row join: output %v after %d rows", label, n, n, out != nil, stopped)
		}
	}

	join := ex.Join(r, s)
	for _, k := range []int{0, 1, 3} {
		firstK := func(op string, got *Relation, card, joined int, whole *Relation) {
			t.Helper()
			want := make([]Tuple, min(k, whole.Card()))
			for i := range want {
				want[i] = whole.TupleAt(i)
			}
			if card != whole.Card() || joined != len(nj.rows) || got.dead != 0 ||
				!slices.EqualFunc(got.Tuples(), want, func(a, b Tuple) bool { return slices.Equal(a, b) }) {
				t.Fatalf("%s: counted %s at k=%d: %v, %d counted, %d walked; want %v, %d counted, %d walked",
					label, op, k, got.Tuples(), card, joined, want, whole.Card(), len(nj.rows))
			}
		}
		out, card := ex.JoinFirst(r, s, k, Budget{})
		firstK("join", out, card, card, join)
		out, card, joined = ex.JoinProject(r, s, x, k, Budget{})
		firstK("project", out, card, joined, proj)
		out, card, joined = ex.JoinFilter(r, s, f, k, Budget{})
		firstK("filter", out, card, joined, filt)
	}
	for i, op := range []*Relation{r, s, f} {
		before[i].check(t, op, fmt.Sprintf("%s: operand %d", label, i))
	}
}

// edgeValues are the values the key-word packing could get wrong — it
// casts through uint32 — beside a small domain that makes keys collide.
var edgeValues = []Value{math.MinInt32, -1, 0, 1, math.MaxInt32, 2, 3, 4}

// withDead returns r with about one row in six deleted: the rows stay
// where they are, dead, unless the delete tipped r into a compaction.
func withDead(rng *rand.Rand, r *Relation) *Relation {
	var drop []Tuple
	for _, tp := range r.Tuples() {
		if rng.Intn(6) == 0 {
			drop = append(drop, tp)
		}
	}
	out, _ := r.Without(drop)
	return out
}

// randomPair builds the same random tuple set in both engines.
func randomPair(rng *rand.Rand, u *schema.Universe, attrs schema.AttrSet, n, domain int) (*Relation, *naiveRel) {
	eng := New(u, attrs)
	ref := newNaive(attrs)
	t := make(Tuple, attrs.Card())
	for i := 0; i < n; i++ {
		for j := range t {
			t[j] = Value(rng.Intn(domain))
		}
		eng.Insert(t)
		ref.insert(t)
	}
	return eng, ref
}

func TestDifferentialOperators(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	u := schema.NewUniverse()
	pool := u.Set("a", "b", "c", "d", "e", "f")
	ex := NewExec() // shared across all trials to catch scratch aliasing
	for trial := 0; trial < 120; trial++ {
		ra := gen.RandomAttrSubset(rng, pool, 0.6)
		sa := gen.RandomAttrSubset(rng, pool, 0.6)
		if ra.IsEmpty() || sa.IsEmpty() {
			continue
		}
		n := 1 + rng.Intn(40)
		domain := 1 + rng.Intn(5)
		r, nr := randomPair(rng, u, ra, n, domain)
		s, ns := randomPair(rng, u, sa, n, domain)

		sameRows(t, "insert r", r, nr)
		sameRows(t, "insert s", s, ns)
		sameSet(t, "join", func() *Relation { return ex.Join(r, s) }, nr.join(ns))
		sameSet(t, "semijoin", func() *Relation { return ex.Semijoin(r, s) }, nr.semijoin(ns))
		px := gen.RandomAttrSubset(rng, ra, 0.5)
		sameSet(t, "project", func() *Relation { return ex.Project(r, px) }, nr.project(px))
	}
}

func TestDifferentialJoinAll(t *testing.T) {
	rng := rand.New(rand.NewSource(77177))
	u := schema.NewUniverse()
	pool := u.Set("a", "b", "c", "d", "e")
	ex := NewExec()
	for trial := 0; trial < 60; trial++ {
		k := 2 + rng.Intn(3)
		rels := make([]*Relation, 0, k)
		refs := make([]*naiveRel, 0, k)
		for i := 0; i < k; i++ {
			attrs := gen.RandomAttrSubset(rng, pool, 0.6)
			if attrs.IsEmpty() {
				attrs = schema.NewAttrSet(pool.Min())
			}
			r, nr := randomPair(rng, u, attrs, 1+rng.Intn(20), 1+rng.Intn(4))
			rels = append(rels, r)
			refs = append(refs, nr)
		}
		// The greedy order must be set-equal to the left-to-right fold.
		ref := refs[0]
		for _, nr := range refs[1:] {
			ref = ref.join(nr)
		}
		sameRows(t, "joinall", ex.JoinAll(rels), ref)
	}
}

// TestDifferentialLarge exercises table growth and collision handling
// well past the initial table size.
func TestDifferentialLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	u := schema.NewUniverse()
	ra := u.Set("a", "b")
	sa := u.Set("b", "c")
	r, nr := randomPair(rng, u, ra, 2500, 30)
	s, ns := randomPair(rng, u, sa, 2500, 30)
	sameRows(t, "large insert", r, nr)
	ex := NewExec()
	sameSet(t, "large semijoin", func() *Relation { return ex.Semijoin(r, s) }, nr.semijoin(ns))
	sameSet(t, "large project", func() *Relation { return ex.Project(r, u.Set("a")) }, nr.project(u.Set("a")))
	sameSet(t, "large join", func() *Relation { return ex.Join(r, s) }, nr.join(ns))
}

// TestDifferentialOperatorEdges covers what TestDifferentialOperators'
// draws cannot reach: keys of exactly 0 to 4 shared columns (none: a
// cross product, and r ⋉ s = r iff s is non-empty; up to two: the key
// word is the key; more: it is a fold, verified), operands of width 0
// on either side or both, values at the ends of int32, and dead rows on
// both operands.
func TestDifferentialOperatorEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(20261003))
	u := schema.NewUniverse()
	// Interned in this order, so the key columns of r are neither a
	// prefix nor contiguous: r is (a, k1, m, k2, k3, k4), s (k1, …, z).
	for _, name := range []string{"a", "k1", "m", "k2", "k3", "z", "k4"} {
		u.Attr(name)
	}
	keys := []string{"k1", "k2", "k3", "k4"}
	ex := NewExec() // shared, so a stale word or chain link would show
	sawDead, sawDrop := false, false
	for nk := 0; nk <= len(keys); nk++ {
		for _, extra := range []struct{ r, s []string }{
			{[]string{"a", "m"}, []string{"z"}},
			{nil, []string{"z"}},
			{[]string{"a"}, nil},
			{nil, nil},
		} {
			ra := u.Set(append(slices.Clone(keys[:nk]), extra.r...)...)
			sa := u.Set(append(slices.Clone(keys[:nk]), extra.s...)...)
			shared := u.Set(keys[:nk]...)
			for trial := 0; trial < 8; trial++ {
				r := New(u, ra)
				for i, n := 0, rng.Intn(40); i < n; i++ {
					row := make(Tuple, r.width)
					for j := range row {
						row[j] = edgeValues[rng.Intn(len(edgeValues))]
					}
					r.Insert(row)
				}
				// Half of s's rows take their key from a row of r, or a
				// four-column key would almost never find a partner.
				s := New(u, sa)
				rrows := r.Tuples()
				for i, n := 0, rng.Intn(40); i < n; i++ {
					row := make(Tuple, s.width)
					for j := range row {
						row[j] = edgeValues[rng.Intn(len(edgeValues))]
					}
					if len(rrows) > 0 && rng.Intn(2) == 0 {
						from := rrows[rng.Intn(len(rrows))]
						for _, c := range shared.Attrs() {
							row[s.colPos(c)] = from[r.colPos(c)]
						}
					}
					s.Insert(row)
				}
				if trial%2 == 1 {
					r, s = withDead(rng, r), withDead(rng, s)
				}
				sawDead = sawDead || (r.dead > 0 && s.dead > 0)
				label := fmt.Sprintf("keys=%d r=%s s=%s trial=%d", nk, u.FormatSet(ra), u.FormatSet(sa), trial)
				checkKernels(t, label, ex, r, s, gen.RandomAttrSubset(rng, ra, 0.5))
				checkKernels(t, label+" flipped", ex, s, r, gen.RandomAttrSubset(rng, sa, 0.5))
				if n := ex.Semijoin(r, s).Card(); 0 < n && n < r.Card() {
					sawDrop = true
				}
			}
		}
	}
	if !sawDead || !sawDrop {
		t.Fatalf("coverage: dead rows on both operands %v, a semijoin that drops some rows %v", sawDead, sawDrop)
	}
}

// TestKeyWordKeepsColumnsApart pins the two-column packing at the values
// a cast could fold together: (-1, 0) and (0, -1), and the ends of int32.
func TestKeyWordKeepsColumnsApart(t *testing.T) {
	u := schema.NewUniverse()
	abx, aby := u.Set("a", "b", "x"), u.Set("a", "b", "y")
	pairs := [][2]Value{
		{-1, 0}, {0, -1}, {0, 0}, {-1, -1},
		{math.MinInt32, math.MaxInt32}, {math.MaxInt32, math.MinInt32},
		{math.MinInt32, 0}, {0, math.MinInt32}, {math.MaxInt32, -1}, {-1, math.MaxInt32},
	}
	ex := NewExec()
	for i, p := range pairs {
		r := New(u, abx)
		for k, q := range pairs {
			r.Insert(Tuple{q[0], q[1], Value(k)})
		}
		s := New(u, aby)
		s.Insert(Tuple{p[0], p[1], 7})
		if got := ex.Semijoin(r, s).Tuples(); len(got) != 1 || !slices.Equal(got[0], Tuple{p[0], p[1], Value(i)}) {
			t.Errorf("r ⋉ {%v} = %v", p, got)
		}
		if got := ex.Join(r, s).Tuples(); len(got) != 1 || !slices.Equal(got[0], Tuple{p[0], p[1], Value(i), 7}) {
			t.Errorf("r ⋈ {%v} = %v", p, got)
		}
		checkKernels(t, fmt.Sprint("pair ", p), ex, r, s, u.Set("a", "b"))
	}
}

// fuzzOperands is one decoded FuzzOperators input: r and s with the
// projection px ⊆ attrs(r) for checkKernels, and the filter f and head x,
// both over attrs(r ⋈ s), for checkStreams.
type fuzzOperands struct {
	r, s, f *Relation
	px, x   schema.AttrSet
}

// decodeOperands reads r, s, f, px and x off raw, which runs out into
// zeros. Attribute sets are masks over a five-attribute pool (at most
// four kept); a relation is a row count, a 16-bit dead-row mask and its
// rows, each value an index into edgeValues. A count byte of 0xff makes
// the relation dense — row i is (i, i>>1, i>>2, …) — 1024 rows, so a
// group can outgrow JoinProject's first table; when r is dense and shares
// no attribute with s, a dense s has 64 rows, so their keyless product
// stays at 64k rows, which the reference checks in well under a second,
// not a million. A row of f starts with a
// selector byte: even picks row selector/2 of r ⋈ s (modulo its size) and
// projects it onto f, so the filter hits; odd is followed by the row.
func decodeOperands(raw []byte) fuzzOperands {
	next := func() byte {
		if len(raw) == 0 {
			return 0
		}
		b := raw[0]
		raw = raw[1:]
		return b
	}
	u := schema.NewUniverse()
	pool := []string{"a", "b", "c", "d", "e"}
	attrsOf := func(mask byte) schema.AttrSet {
		var names []string
		for i, name := range pool {
			if mask>>i&1 == 1 && len(names) < 4 {
				names = append(names, name)
			}
		}
		return u.Set(names...)
	}
	decode := func(attrs schema.AttrSet, denseRows int, join []Tuple, joinCols []schema.Attr) *Relation {
		r := New(u, attrs)
		n := int(next())
		dense := n == 0xff
		if dense {
			n = denseRows
		} else {
			n %= 41
		}
		dead := uint16(next()) | uint16(next())<<8
		for i := 0; i < n; i++ {
			row := make(Tuple, r.width)
			switch sel := byte(1); {
			case dense:
				for j := range row {
					row[j] = Value(i >> j)
				}
			case joinCols != nil && func() bool { sel = next(); return sel%2 == 0 && len(join) > 0 }():
				from := join[int(sel/2)%len(join)]
				for j, c := range r.cols {
					row[j] = from[slices.Index(joinCols, c)]
				}
			default:
				for j := range row {
					row[j] = edgeValues[int(next())%len(edgeValues)]
				}
			}
			r.Insert(row)
		}
		var drop []Tuple
		for i, tp := range r.Tuples() {
			if dead>>(i%16)&1 == 1 {
				drop = append(drop, tp)
			}
		}
		out, _ := r.Without(drop)
		return out
	}
	var op fuzzOperands
	ra, sa := attrsOf(next()), attrsOf(next())
	op.px = attrsOf(next()).Intersect(ra)
	op.r = decode(ra, 1024, nil, nil)
	sDense := 1024
	if !ra.Intersects(sa) && op.r.Card() > 64 {
		sDense = 64
	}
	op.s = decode(sa, sDense, nil, nil)
	rs := ra.Union(sa)
	fa := attrsOf(next()).Intersect(rs)
	op.x = attrsOf(next()).Intersect(rs)
	op.f = decode(fa, 1024, NewExec().Join(op.r, op.s).Tuples(), rs.Attrs())
	return op
}

// streamSeeds are FuzzOperators seeds for the cases of the streamed
// sinks; TestStreamSeedsCoverTheirCases checks each hits its case.
var streamSeeds = map[string][]byte{
	// r = ab and s = bc dense, x = a: with r built, g = x ∩ attrs(s) = ∅,
	// so one group projects 1024 rows and the local table grows.
	"g=∅": {0b00011, 0b00110, 0, 0xff, 0, 0, 0xff, 0, 0, 0b00101, 0b00001, 4, 0, 0, 0, 2, 4, 6},
	// r = abc built, s = cd probed, x = bcd ⊇ attrs(s); r's rows agree on
	// b and c in pairs, so groups see duplicates.
	"x⊇probe": {0b00111, 0b01100, 0b00001, 4, 0, 0, 2, 2, 2, 3, 2, 2, 5, 3, 3, 6, 3, 5,
		8, 0, 0, 2, 2, 2, 3, 3, 2, 3, 3, 5, 2, 2, 2, 0, 0, 1, 1,
		0b01010, 0b01110, 3, 0, 0, 0, 4, 1, 2, 2},
	// r = abcd built, s = de probed, x = abce: the build-side part of the
	// projection, abc, is three columns — a folded word, verified — and
	// the rows (0,0,0,·) of r meet in the group e = 0.
	"inexact": {0b01111, 0b11000, 0, 6, 0, 0, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 2, 3, 3, 3, 3, 5, 5, 5, 5, 0, 1, 4, 5,
		8, 0, 0, 2, 5, 3, 5, 2, 6, 3, 6, 5, 5, 5, 7, 4, 4, 0, 0,
		0b10001, 0b10111, 3, 0, 0, 0, 2, 1, 3, 5},
	// r = a and s = b dense, f = ab dense, x = ab: a keyless product, s
	// cut to 64 rows, so 64k join rows, of which f keeps 128.
	"dense product": {0b00001, 0b00010, 0b00001, 0xff, 0, 0, 0xff, 0, 0, 0b00011, 0b00011, 0xff, 0, 0},
	// r = {()} and f = {()}: a zero-width operand on each side.
	"zero-width": {0, 0b00011, 0, 1, 0, 0, 3, 0, 0, 2, 3, 5, 6, 7, 7, 0, 0b00010, 1, 0, 0, 0},
	// r = ab, s = bc, f = abc, 20 rows each, two of every sixteen dead.
	"dead": func() []byte {
		b := []byte{0b00011, 0b00110, 0b00001, 20, 0x02, 0x02}
		for i := byte(0); i < 20; i++ {
			b = append(b, i%8, 2+i%3)
		}
		b = append(b, 20, 0x02, 0x02)
		for i := byte(0); i < 20; i++ {
			b = append(b, 2+i%3, i%8)
		}
		b = append(b, 0b00111, 0b00101, 20, 0x02, 0x02)
		for i := byte(0); i < 20; i++ {
			b = append(b, 10*i)
		}
		return b
	}(),
}

// TestStreamSeedsCoverTheirCases decodes each stream seed and checks it
// reaches the case it is named for, so an edit to the decoder cannot
// quietly turn a seed into a duplicate of another.
func TestStreamSeedsCoverTheirCases(t *testing.T) {
	for name, raw := range streamSeeds {
		op := decodeOperands(raw)
		build, probe := op.r, op.s
		if op.s.Card() < op.r.Card() {
			build, probe = op.s, op.r
		}
		g, h := op.x.Intersect(probe.attrs), op.x.Diff(probe.attrs)
		joined := NewExec().Join(op.r, op.s).Card()
		ok := joined > 0 && op.f.Card() > 0
		switch name {
		case "g=∅": // counted with k = 0, so the group grows with no row stored
			ex := NewExec()
			out, _, _ := ex.JoinProject(op.r, op.s, op.x, 0, Budget{})
			ok = ok && g.IsEmpty() && len(ex.local.words) > groupRows && out.Card() == 0
		case "x⊇probe":
			ok = ok && probe.attrs.SubsetOf(op.x) && !h.IsEmpty()
		case "inexact":
			ok = ok && h.Card() > 2 && h.SubsetOf(build.attrs)
		case "dense product":
			ok = ok && !op.r.attrs.Intersects(op.s.attrs) && op.r.Card() == 1024 && op.s.Card() == 64
		case "zero-width":
			ok = ok && op.r.width == 0 && op.f.width == 0
		case "dead":
			ok = ok && op.r.dead > 0 && op.s.dead > 0 && op.f.dead > 0
		}
		if !ok {
			t.Errorf("seed %q misses its case: r %s (%d, %d dead), s %s (%d, %d dead), f %s (%d, %d dead), x %s, |r ⋈ s| = %d",
				name, op.r.U.FormatSet(op.r.attrs), op.r.Card(), op.r.dead, op.s.U.FormatSet(op.s.attrs), op.s.Card(), op.s.dead,
				op.f.U.FormatSet(op.f.attrs), op.f.Card(), op.f.dead, op.x.Key(), joined)
		}
	}
}

// FuzzOperators decodes two relations of width 0–4 over a five-attribute
// pool — values from edgeValues, a dead-row mask each — a projection
// list, and a filter relation and head over their union (decodeOperands),
// and holds the operators, run through one Exec, to checkKernels' and
// checkStreams' oracles: the nested-loop results, the two-statement
// forms of the streamed sinks, Join's, Semijoin's, Project's and the
// filter's row order, dense outputs, untouched operands. Runs in the CI
// fuzz-smoke lane; the seeds run under go test.
func FuzzOperators(f *testing.F) {
	for _, seed := range [][]byte{
		{},                       // two empty zero-width relations
		{0, 0, 0, 1, 0, 0, 1, 0}, // {()} ⋈ {()}
		{0, 0b00011, 0, 1, 0, 0, 3, 0, 0, 1, 2, 3, 4, 5},                               // zero-width left operand
		{0b00011, 0, 0, 3, 0, 0, 0, 1, 2, 3, 4, 5, 1, 0},                               // zero-width right operand
		{0b00001, 0b00010, 1, 4, 0, 0, 1, 2, 3, 4, 3, 0, 0, 5, 6, 7},                   // no shared attribute
		{0b00011, 0b00110, 3, 5, 0, 0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 5, 0, 0, 2, 1, 4}, // one key column
		{0b00111, 0b01110, 2, 4, 0, 0, 4, 0, 1, 0, 4, 2, 1, 1, 1, 4, 0, 0, 4, 0, 9, 0, 4, 9, 1, 1, 9},
		{0b01111, 0b11110, 7, 6, 1, 0, 0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 6, 2, 0, 1, 2, 3, 4},
		{0b11110, 0b11110, 15, 8, 0xff, 0xff, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 8, 0xff, 0xff, 1, 1, 1, 1, 2, 2, 2, 3},
		{0b11111, 0b11111, 31, 40, 0x55, 0xaa, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0},
		{0b00011, 0b00011, 1, 30, 0, 0, 0, 1, 1, 0, 4, 0, 0, 4, 30, 2, 0, 1, 0},
		{0b00110, 0b00011, 2, 39, 3, 0, 7, 7, 7, 7, 39, 0, 3},
		[]byte("gyo reductions, canonical connections, tree and cyclic schemas"),
	} {
		f.Add(seed)
	}
	for _, seed := range streamSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		op := decodeOperands(raw)
		ex := NewExec()
		checkKernels(t, "r,s", ex, op.r, op.s, op.px)
		checkKernels(t, "s,r", ex, op.s, op.r, op.px.Intersect(op.s.attrs))
		checkStreams(t, "r,s", ex, op.r, op.s, op.f, op.x)
		checkStreams(t, "s,r", ex, op.s, op.r, op.f, op.x)
	})
}
