package relation

// Differential / property tests: the columnar hash engine is checked
// against naiveRel, a deliberately simple nested-loop reference
// implementation that shares no code with the engine (string-keyed
// rows, O(n·m) joins). On randomized databases every operator must be
// set-equal to the reference.

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
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
// Exec — Project(Join(r, s)), Join(Join(r, s), f) — and to be dense;
// both to come grouped by g, their key's columns in the probe side (the
// rows that agree on g are contiguous); both to report |r ⋈ s| and, under
// a budget of exactly that many rows, to stop;
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

	filt, card, joined := joinFilter(ex, r, s, f, All, Budget{})
	dense("streamed filter", filt, card, joined)
	nf := naiveOf(f)
	sameRows(t, label+" streamed filter", filt, nj.join(nf))
	sameRows(t, label+" streamed filter vs two statements", filt, naiveOf(ex.Join(ex.Join(r, s), f)))
	probe := s
	if s.Card() < r.Card() {
		probe = r
	}
	groupedBy(t, label+" streamed project", proj, x.Intersect(probe.attrs))
	groupedBy(t, label+" streamed filter", filt, f.attrs.Intersect(probe.attrs))

	if n := len(nj.rows); n > 0 {
		if out, _, stopped := ex.JoinProject(r, s, x, All, Budget{Rows: n}); out != nil || stopped != n {
			t.Fatalf("%s: a %d-row budget on a %d-row join: output %v after %d rows", label, n, n, out != nil, stopped)
		}
		if out, _, _ := joinFilter(ex, r, s, f, All, Budget{Rows: n + 1}); out == nil {
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
		out, card, joined = joinFilter(ex, r, s, f, k, Budget{})
		firstK("filter", out, card, joined, filt)
	}
	for i, op := range []*Relation{r, s, f} {
		before[i].check(t, op, fmt.Sprintf("%s: operand %d", label, i))
	}
}

// checkChain runs JoinFilter's chain over r and s — which, like f and the
// semijoin operands, may carry dead rows — through ex, by f, then each of
// semis, then onto onto's attributes when onto is r or s, and holds it to
// the statements composed on the same Exec — JoinFilter, Semijoin,
// Project — and to the nested-loop reference: the same rows, in order —
// a projection's are onto's rows that have a partner, in onto's order;
// otherwise JoinFilter's order, which Semijoin keeps — the same card for
// every statement, a dense output, and untouched operands. Under a budget
// of exactly |r ⋈ s| rows it stops. Without a projection it is run
// counted at k = 0, 1 and 3 as well: the same cards, and the whole
// value's first k rows.
func checkChain(t *testing.T, label string, ex *Exec, r, s, f *Relation, semis []*Relation, onto *Relation) {
	t.Helper()
	ops := append([]*Relation{r, s, f}, semis...)
	before := make([]layout, len(ops))
	for i, op := range ops {
		before[i] = captureLayout(op)
	}
	label = fmt.Sprintf("%s chain of %d semijoins, onto %v", label, len(semis), onto != nil)
	v, _, joined := joinFilter(ex, r, s, f, All, Budget{})
	want := []int{joined, v.Card()}
	nv := naiveOf(r).join(naiveOf(s)).join(naiveOf(f))
	for _, sj := range semis {
		v = ex.Semijoin(v, sj)
		nv = nv.semijoin(naiveOf(sj))
		want = append(want, v.Card())
	}
	if onto != nil {
		nv = nv.project(onto.attrs)
		var rows []Tuple
		for _, tp := range onto.Tuples() {
			if _, ok := nv.rows[naiveKey(tp)]; ok {
				rows = append(rows, tp)
			}
		}
		v = New(onto.U, onto.attrs)
		for _, tp := range rows {
			v.appendRow(tp)
		}
		want = append(want, v.Card())
	}
	sameRows(t, label, v, nv)
	got, cards := ex.JoinFilter(r, s, f, Chain{Semijoins: semis, Onto: onto}, All, Budget{}, nil)
	if got == nil || got.dead != 0 || !slices.Equal(cards, want) ||
		!slices.EqualFunc(got.Tuples(), v.Tuples(), func(a, b Tuple) bool { return slices.Equal(a, b) }) {
		t.Fatalf("%s: %v (cards %v); want %v (cards %v)", label, got.Tuples(), cards, v.Tuples(), want)
	}
	if joined > 0 {
		if out, _ := ex.JoinFilter(r, s, f, Chain{Semijoins: semis, Onto: onto}, All, Budget{Rows: joined}, nil); out != nil {
			t.Fatalf("%s: a %d-row budget on a %d-row join did not stop it", label, joined, joined)
		}
	}
	for _, k := range []int{0, 1, 3} {
		if onto != nil {
			break
		}
		first, kcards := ex.JoinFilter(r, s, f, Chain{Semijoins: semis}, k, Budget{}, nil)
		if n := min(k, v.Card()); !slices.Equal(kcards, want) || first.Card() != n ||
			!slices.EqualFunc(first.Tuples(), v.Tuples()[:n], func(a, b Tuple) bool { return slices.Equal(a, b) }) {
			t.Fatalf("%s: counted at k=%d: %v (cards %v); want the first of %v (cards %v)", label, k, first.Tuples(), kcards, v.Tuples(), want)
		}
	}
	for i, op := range ops {
		before[i].check(t, op, fmt.Sprintf("%s: operand %d", label, i))
	}
}

// groupedBy fails unless the rows of out that agree on g are contiguous:
// a streamed sink walks its probe side one g-group at a time.
func groupedBy(t *testing.T, label string, out *Relation, g schema.AttrSet) {
	t.Helper()
	gPos := make([]int, 0, g.Card())
	for _, c := range g.Attrs() {
		gPos = append(gPos, out.colPos(c))
	}
	done := map[string]bool{} // groups whose run has ended
	prev := ""
	for i, tp := range out.Tuples() {
		key := make(Tuple, len(gPos))
		for k, p := range gPos {
			key[k] = tp[p]
		}
		k := naiveKey(key)
		if i > 0 && k != prev {
			done[prev] = true
		}
		if done[k] {
			t.Fatalf("%s: row %d, %v, resumes the group %s = (%s) after another", label, i, tp, out.U.FormatSet(g), k)
		}
		prev = k
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
// projection px ⊆ attrs(r) for checkKernels, the filter f and head x,
// both over attrs(r ⋈ s), for checkStreams, and the chain's semijoin
// operands and projection (0: none, 1: onto r, 2: onto s) for checkChain.
type fuzzOperands struct {
	r, s, f *Relation
	px, x   schema.AttrSet
	semis   []*Relation
	onto    int
}

// decodeOperands reads r, s, f, px and x off raw, which runs out into
// zeros. Attribute sets are masks over a five-attribute pool (at most
// four kept); a relation is a row count, a 16-bit dead-row mask and its
// rows, each value an index into edgeValues. A count byte of 0xff makes
// the relation dense — row i is (i, i>>1, i>>2, …) — 1024 rows, so a
// group can outgrow JoinProject's first table; when r is dense and shares
// no attribute with s, a dense s has 64 rows, so their keyless product
// stays at 64k rows, which the reference checks in well under a second,
// not a million. A count byte of 0xfe makes it literal: the row count is
// the next byte (modulo 41 again), and after the mask every value is four
// bytes, little-endian (literalRel) — any int32, so a seed can put spans
// where it likes. A count byte of 0xfd makes it long (longRel): dense
// rows, as many as the next two bytes say, up to 2·ChunkRows for an r
// that shares an attribute with s and as many as a dense relation has
// otherwise; the dead-row mask applies to its second chunk alone, and
// after the mask a byte counts patches (modulo 16), each a two-byte row
// index and a four-byte value for that row's first column — so a seed can
// mix clean and dead chunks, end on a partial chunk and put a value at any
// 64-row block's edge. A row of f starts with a selector byte: even picks
// row selector/2 of r ⋈ s (modulo its size) and projects it onto f, so the
// filter hits; odd is followed by the row. Last come the chain's bytes:
// a count of semijoins (modulo 3), each an attribute mask and a relation
// decoded like f — a picked join row gives it its shared columns, and
// edgeValues the rest — then the projection byte (modulo 3).
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
	decode := func(attrs schema.AttrSet, denseRows, longRows int, join []Tuple, joinCols []schema.Attr) *Relation {
		r := New(u, attrs)
		n := int(next())
		dense, literal, long := n == 0xff, n == 0xfe, n == 0xfd
		switch {
		case dense:
			n = denseRows
		case literal:
			n = int(next()) % 41
		case long:
			n = min(int(next())|int(next())<<8, longRows)
		default:
			n %= 41
		}
		dead := uint16(next()) | uint16(next())<<8
		patch, patches := map[int]Value{}, 0 // a long relation's first column, by row
		if long {
			patches = int(next()) % 16
		}
		for range patches {
			at := int(next()) | int(next())<<8
			patch[at%max(n, 1)] = Value(uint32(next()) | uint32(next())<<8 | uint32(next())<<16 | uint32(next())<<24)
		}
		for i := 0; i < n; i++ {
			row := make(Tuple, r.width)
			switch sel := byte(1); {
			case dense || long:
				for j := range row {
					row[j] = Value(i >> j)
				}
				if v, ok := patch[i]; ok && len(row) > 0 {
					row[0] = v
				}
			case literal:
				for j := range row {
					row[j] = Value(uint32(next()) | uint32(next())<<8 | uint32(next())<<16 | uint32(next())<<24)
				}
			case joinCols != nil && func() bool { sel = next(); return sel%2 == 0 && len(join) > 0 }():
				from := join[int(sel/2)%len(join)]
				for j, c := range r.cols {
					if at := slices.Index(joinCols, c); at >= 0 {
						row[j] = from[at]
					} else {
						row[j] = edgeValues[int(next())%len(edgeValues)]
					}
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
			if dead>>(i%16)&1 == 1 && (!long || i>>chunkShift == 1) {
				drop = append(drop, tp)
			}
		}
		out, _ := r.Without(drop)
		return out
	}
	var op fuzzOperands
	ra, sa := attrsOf(next()), attrsOf(next())
	op.px = attrsOf(next()).Intersect(ra)
	longRows := 1024 // a keyless product with s is |r| · |s| rows
	if ra.Intersects(sa) {
		longRows = 2 * ChunkRows
	}
	op.r = decode(ra, 1024, longRows, nil, nil)
	sDense := 1024
	if !ra.Intersects(sa) && op.r.Card() > 64 {
		sDense = 64
	}
	op.s = decode(sa, sDense, sDense, nil, nil)
	rs := ra.Union(sa)
	fa := attrsOf(next()).Intersect(rs)
	op.x = attrsOf(next()).Intersect(rs)
	joinRows := NewExec().Join(op.r, op.s).Tuples()
	op.f = decode(fa, 1024, 1024, joinRows, rs.Attrs())
	op.semis = make([]*Relation, int(next())%3)
	for i := range op.semis {
		op.semis[i] = decode(attrsOf(next()), 1024, 1024, joinRows, rs.Attrs())
	}
	op.onto = int(next()) % 3
	return op
}

// streamSeeds are FuzzOperators seeds for the cases of the streamed
// sinks and of Semijoin's key set; TestStreamSeedsCoverTheirCases checks
// each hits its case.
var streamSeeds = map[string][]byte{
	// r = abc and s = bc dense, x = a: with r built on the two-column key
	// bc, g = x ∩ attrs(s) = ∅, so one group projects 1024 rows and the
	// local table grows.
	"g=∅": {0b00111, 0b00110, 0, 0xff, 0, 0, 0xff, 0, 0, 0b00101, 0b00001, 4, 0, 0, 0, 2, 4, 6},
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
	// r = abc and s = bc dense, f = a dense: with r built on bc,
	// JoinFilter's g = attrs(f) ∩ attrs(s) = ∅, so one group's table holds
	// all 1024 rows of f; flipped, s is built and h = attrs(f) \ attrs(r) = ∅.
	"filter g=∅": {0b00111, 0b00110, 0, 0xff, 0, 0, 0xff, 0, 0, 0b00001, 0b00001, 0xff, 0, 0},
	// r = ab built, s = bc probed, f = bc ⊆ attrs(s): h = ∅, so a group
	// keeps every join row or none.
	"filter h=∅": {0b00011, 0b00110, 0, 3, 0, 0, 2, 3, 3, 3, 5, 2,
		6, 0, 0, 3, 2, 3, 5, 2, 2, 2, 0, 1, 1, 3, 4,
		0b00110, 0b00001, 3, 0, 0, 0, 2, 1, 4, 4},
	// The "inexact" operands, f = abce: g = e, and h = abc is three
	// build-side columns — a folded word, verified against the group's
	// copy of its columns.
	"filter inexact": {0b01111, 0b11000, 0, 6, 0, 0, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 2, 3, 3, 3, 3, 5, 5, 5, 5, 0, 1, 4, 5,
		8, 0, 0, 2, 5, 3, 5, 2, 6, 3, 6, 5, 5, 5, 7, 4, 4, 0, 0,
		0b10111, 0b10001, 6, 0, 0, 0, 2, 4, 6, 8, 1, 2, 3, 5, 4},
	// The "dead" operands with f = ac: g = c, h = a, and dead rows in
	// both operands and in f.
	"filter dead": func() []byte {
		b := []byte{0b00011, 0b00110, 0b00001, 20, 0x02, 0x02}
		for i := byte(0); i < 20; i++ {
			b = append(b, i%8, 2+i%3)
		}
		b = append(b, 20, 0x02, 0x02)
		for i := byte(0); i < 20; i++ {
			b = append(b, 2+i%3, i%8)
		}
		b = append(b, 0b00101, 0b00101, 20, 0x02, 0x02)
		for i := byte(0); i < 20; i++ {
			b = append(b, 10*i)
		}
		return b
	}(),
	// The "filter h=∅" operands with f = one row of ac: g = c, and every
	// probe group but that row's c has join rows and no filter row.
	"filter empty group": {0b00011, 0b00110, 0, 3, 0, 0, 2, 3, 3, 3, 5, 2,
		6, 0, 0, 3, 2, 3, 5, 2, 2, 2, 0, 1, 1, 3, 4,
		0b00101, 0b00001, 1, 0, 0, 0},
	// r = ab probes s = bc on b: s's live b span [0, 2], a bitmap; its dead
	// row alone holds MaxInt32, and r's b runs from MinInt32 to MaxInt32,
	// below and above the bitmap. Flipped, s ⋉ r's key set is a keyTable.
	"semijoin dense": {0b00011, 0b00110, 0b00001,
		8, 0, 0, 2, 0, 2, 1, 2, 2, 2, 3, 2, 4, 2, 5, 2, 6, 2, 7,
		8, 0x01, 0, 4, 2, 2, 2, 3, 2, 5, 2, 2, 3, 3, 3, 5, 3, 2, 5,
		0b00011, 0b00101, 2, 0, 0, 0, 2},
	// s's live b holds MinInt32 and MaxInt32: a span of 2³², past any
	// bitmap's budget (and 0 if it wrapped), so a keyTable holds the keys.
	"semijoin sparse": {0b00011, 0b00110, 0b00010,
		6, 0, 0, 2, 0, 2, 1, 2, 2, 2, 4, 3, 5, 3, 2,
		4, 0, 0, 0, 2, 4, 2, 2, 3, 6, 3,
		0b00011, 0b00101, 2, 0, 0, 0, 2},
}

// literalRel encodes a relation in decodeOperands' literal form: 0xfe,
// the row count, the dead-row mask and every value as four bytes.
func literalRel(dead uint16, rows ...Tuple) []byte {
	b := []byte{0xfe, byte(len(rows)), byte(dead), byte(dead >> 8)}
	for _, row := range rows {
		for _, v := range row {
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		}
	}
	return b
}

// literalSeed encodes a FuzzOperators input of literal relations r, s and
// f over the masks ra, sa and fa, with px and x.
func literalSeed(ra, sa, px byte, r, s []byte, fa, x byte, f []byte) []byte {
	b := append([]byte{ra, sa, px}, r...)
	b = append(b, s...)
	b = append(b, fa, x)
	return append(b, f...)
}

// bitSeed encodes a FuzzOperators input of literal relations: r = ab, s
// over the mask sa (bc, or bcd), f = x = ac and px = a. s has fewer rows
// than r, so it is built on b, and both streamed sinks have g = a and
// h = c.
func bitSeed(sa byte, r, s, f []byte) []byte {
	return literalSeed(0b00011, sa, 0b00001, r, s, 0b00101, 0b00101, f)
}

// boundSeed is a bitSeed whose four-row s has two keys, klo and klo + 1,
// and h values from hlo to hlo + span − 1: at span = 128 · c its bit rows
// are 2 rows of 2 · c words, exactly c words per build row; one more value
// is one word per key past it.
func boundSeed(klo, hlo Value, span int) []byte {
	hhi := Value(int64(hlo) + int64(span) - 1)
	mid := Value(int64(hlo) + int64(span)/2)
	return bitSeed(0b00110,
		literalRel(0, Tuple{0, klo}, Tuple{1, klo}, Tuple{0, klo + 1}, Tuple{2, klo + 1}, Tuple{0, 0}, Tuple{1, math.MaxInt32}),
		literalRel(0, Tuple{klo, hlo}, Tuple{klo + 1, hhi}, Tuple{klo, mid}, Tuple{klo + 1, hlo}),
		literalRel(0, Tuple{0, hlo}, Tuple{0, hhi}, Tuple{1, hlo}, Tuple{2, hhi}, Tuple{0, 0}, Tuple{1, mid}))
}

// bitSeeds are the stream seeds of the streamed sinks' bit rows (bitRows);
// streamSeeds holds them with the rest.
var bitSeeds = map[string][]byte{
	// Dead rows in the build side (its one dead row, (9, 100), alone lies
	// outside the live spans, and r probes key 9), the probe side and f.
	"bits dead": bitSeed(0b00110,
		literalRel(0x0081, Tuple{0, 0}, Tuple{0, 1}, Tuple{0, 2}, Tuple{0, 9}, Tuple{1, 0}, Tuple{1, 1},
			Tuple{1, 2}, Tuple{1, 9}, Tuple{2, 0}, Tuple{2, 1}, Tuple{2, 2}, Tuple{2, 9}),
		literalRel(0x0080, Tuple{0, 1}, Tuple{0, 3}, Tuple{1, 2}, Tuple{1, 5}, Tuple{2, 0}, Tuple{2, 4}, Tuple{3, 1}, Tuple{9, 100}),
		literalRel(0x0001, Tuple{0, 1}, Tuple{0, 2}, Tuple{1, 3}, Tuple{1, 5}, Tuple{2, 0}, Tuple{2, 4}, Tuple{0, 5}, Tuple{1, 1})),
	// s's h spans [10, 20], one word; f's h values also fall below it, in
	// its word past 20, at the word's last bit, one word past it and at the
	// ends of int32.
	"bits f outside the window": bitSeed(0b00110,
		literalRel(0, Tuple{0, 0}, Tuple{0, 1}, Tuple{0, 2}, Tuple{0, 3}, Tuple{1, 0}, Tuple{1, 1}, Tuple{1, 2}, Tuple{1, 3}),
		literalRel(0, Tuple{0, 10}, Tuple{0, 12}, Tuple{1, 20}, Tuple{2, 15}, Tuple{3, 11}),
		literalRel(0, Tuple{0, 10}, Tuple{1, 20}, Tuple{0, 9}, Tuple{1, 21}, Tuple{0, 73}, Tuple{1, 74},
			Tuple{0, -5}, Tuple{1, math.MinInt32}, Tuple{0, math.MaxInt32}, Tuple{1, 12})),
	// Keys at MinInt32 and h values around 0, at JoinProject's bound and
	// one past it; then keys and h values ending at MaxInt32, at
	// JoinFilter's bound and one past it.
	"bits at the projection's bound, MinInt32": boundSeed(math.MinInt32, Value(-64*bitRowWords[projectRows]),
		128*bitRowWords[projectRows]),
	"bits one past the projection's bound, MinInt32": boundSeed(math.MinInt32, Value(-64*bitRowWords[projectRows]),
		128*bitRowWords[projectRows]+1),
	"bits at the filter's bound, MaxInt32": boundSeed(math.MaxInt32-1, Value(math.MaxInt32-128*bitRowWords[filterRows]+1),
		128*bitRowWords[filterRows]),
	"bits one past the filter's bound, MaxInt32": boundSeed(math.MaxInt32-1, Value(math.MaxInt32-128*bitRowWords[filterRows]),
		128*bitRowWords[filterRows]+1),
	// s's keys are 0, 5 and 9; r probes every key from 0 to 9.
	"bits key gaps": bitSeed(0b00110,
		func() []byte {
			var rows []Tuple
			for a := range Value(2) {
				for b := range Value(10) {
					rows = append(rows, Tuple{a, b})
				}
			}
			return literalRel(0, rows...)
		}(),
		literalRel(0, Tuple{0, 0}, Tuple{0, 3}, Tuple{5, 1}, Tuple{5, 2}, Tuple{9, 4}),
		literalRel(0, Tuple{0, 0}, Tuple{0, 1}, Tuple{1, 2}, Tuple{1, 4}, Tuple{0, 4}, Tuple{1, 3})),
	// Keys 0 and 1 each have ten partners in one word, all kept by f: a
	// counted sink's k = 3 ends inside a word.
	"bits k mid-word": func() []byte {
		var r, s, f []Tuple
		for a := range Value(11) {
			r = append(r, Tuple{a, 0}, Tuple{a, 1})
		}
		for c := range Value(10) {
			s = append(s, Tuple{0, c}, Tuple{1, c + 3})
		}
		for a := range Value(3) {
			for c := range Value(13) {
				f = append(f, Tuple{a, c})
			}
		}
		return bitSeed(0b00110, literalRel(0, r...), literalRel(0, s...), literalRel(0, f...))
	}(),
	// s = bcd: JoinProject's bit rows count its rows per key, several to a
	// bit; JoinFilter, whose bit must be a build row, takes the chained
	// table.
	"build wider than key + h": bitSeed(0b01110,
		literalRel(0, Tuple{0, 0}, Tuple{0, 1}, Tuple{0, 2}, Tuple{1, 0}, Tuple{1, 1}, Tuple{1, 2}, Tuple{2, 0}, Tuple{2, 1}, Tuple{2, 2}),
		literalRel(0, Tuple{0, 0, 0}, Tuple{0, 0, 1}, Tuple{0, 2, 0}, Tuple{1, 1, 0}, Tuple{1, 3, 1}, Tuple{1, 3, 2}, Tuple{2, 0, 5}),
		literalRel(0, Tuple{0, 0}, Tuple{1, 3}, Tuple{2, 2}, Tuple{0, 1}, Tuple{2, 0})),
}

// rowValue is a value for one row's first column: a patch of longRel.
type rowValue struct {
	row int
	v   Value
}

// longRel encodes a relation in decodeOperands' long form: 0xfd, the row
// count, the dead-row mask of its second chunk and the patches.
func longRel(n int, dead uint16, patches ...rowValue) []byte {
	b := []byte{0xfd, byte(n), byte(n >> 8), byte(dead), byte(dead >> 8), byte(len(patches))}
	for _, p := range patches {
		b = append(b, byte(p.row), byte(p.row>>8))
		b = binary.LittleEndian.AppendUint32(b, uint32(p.v))
	}
	return b
}

// strideSeed encodes a FuzzOperators input of r = ab, long, and s = ac,
// literal, joined on a, r's first column: px = a, f = bc and x = ac, so
// both streamed sinks probe r — the larger — grouped on a.
func strideSeed(r []byte, s ...Tuple) []byte {
	return literalSeed(0b00011, 0b00101, 0b00001, r, literalRel(0, s...), 0b00110, 0b00101,
		literalRel(0, Tuple{0, 0}, Tuple{32, 2}, Tuple{0, 1}, Tuple{500, 3}, Tuple{2048, 6}))
}

// strideSeeds are the FuzzOperators seeds at the edges of the column-stride
// loops (Semijoin's probe, liveSpan, bitsOver, group);
// TestStrideSeedsCoverTheirCases checks each reaches its case.
var strideSeeds = map[string][]byte{
	// r has a clean chunk and a partial tail with dead rows.
	"stride mixed chunks": strideSeed(longRel(ChunkRows+100, 0x0101),
		Tuple{0, 0}, Tuple{63, 1}, Tuple{64, 2}, Tuple{4095, 3}, Tuple{4096, 4}, Tuple{4100, 5}, Tuple{4195, 6},
		Tuple{4196, 7}, Tuple{-1, 8}),
	// r's a spans exactly as many values as s ⋉ r's bitmap may cover, the
	// last of them in the first row of r's second 64-row block; one more,
	// in the last row of its first block, and the key set is a keyTable.
	"stride key span at the bitmap's limit": strideSeed(longRel(1000, 0, rowValue{64, 65535}),
		Tuple{0, 0}, Tuple{64, 1}, Tuple{65535, 2}, Tuple{999, 3}, Tuple{65536, 4}, Tuple{-1, 5}),
	"stride key span one past the bitmap's limit": strideSeed(longRel(1000, 0, rowValue{63, 65536}),
		Tuple{0, 0}, Tuple{63, 1}, Tuple{65536, 2}, Tuple{999, 3}, Tuple{65535, 4}, Tuple{-1, 5}),
	// r's a spans tableSize(|r|) − 1 values, the most its groups are
	// numbered by; one more and a keyTable numbers them.
	"stride group span at the limit": strideSeed(longRel(1000, 0, rowValue{64, 2046}),
		Tuple{0, 0}, Tuple{64, 1}, Tuple{2046, 2}, Tuple{999, 3}, Tuple{2047, 4}),
	"stride group span one past the limit": strideSeed(longRel(1000, 0, rowValue{63, 2047}),
		Tuple{0, 0}, Tuple{63, 1}, Tuple{2047, 2}, Tuple{999, 3}, Tuple{2046, 4}),
	// r ⋉ s's bitmap starts at MinInt32: r's other values, MaxInt32 among
	// them, lie past its window.
	"stride keys at MinInt32, probes past the window": strideSeed(
		longRel(1000, 0, rowValue{0, math.MinInt32}, rowValue{64, math.MinInt32 + 1}, rowValue{999, math.MaxInt32}),
		Tuple{math.MinInt32, 0}, Tuple{math.MinInt32 + 1, 1}, Tuple{math.MinInt32 + 3, 2}),
	// r ⋉ s's bitmap ends at MaxInt32: r's other values lie below it, so
	// their offsets wrap.
	"stride keys at MaxInt32, probes below the window": strideSeed(
		longRel(1000, 0, rowValue{64, math.MaxInt32}, rowValue{65, math.MaxInt32 - 1}),
		Tuple{math.MaxInt32 - 2, 0}, Tuple{math.MaxInt32, 1}, Tuple{math.MaxInt32 - 1, 2}),
}

// TestStrideSeedsCoverTheirCases decodes each stride seed and checks it
// reaches its case, and that each has r ⋉ s and s ⋉ r drop rows and keep
// rows.
func TestStrideSeedsCoverTheirCases(t *testing.T) {
	for _, name := range slices.Sorted(maps.Keys(strideSeeds)) {
		op := decodeOperands(strideSeeds[name])
		a := op.r.colPos(op.r.U.Attr("a"))
		limit := 32 * int64(tableSize(op.r.Card()))
		_, keySpan, keyDense := denseSpan(op.r, a)
		_, groupSpan, _ := liveSpan(op.r, a, math.MaxInt64)
		ok := true
		for _, rs := range [][2]*Relation{{op.r, op.s}, {op.s, op.r}} {
			kept := NewExec().Semijoin(rs[0], rs[1]).Card()
			ok = ok && 0 < kept && kept < rs[0].Card()
		}
		// lo and the span of s's a, and r's values below and past them.
		slo, sspan, sdense := denseSpan(op.s, 0)
		below, past := false, false
		for _, v := range liveValues(op.r, op.r.U.Attr("a")) {
			below, past = below || v < slo, past || v >= slo+(sspan+63)&^63
		}
		switch name {
		case "stride mixed chunks":
			ok = ok && len(op.r.chunks) == 2 && op.r.n%ChunkRows != 0 && op.r.chunks[0].dead == nil &&
				op.r.chunks[1].dead != nil
		case "stride key span at the bitmap's limit":
			ok = ok && keyDense && keySpan == limit && op.r.TupleAt(64)[a] == 65535
		case "stride key span one past the bitmap's limit":
			ok = ok && !keyDense && groupSpan == limit+1 && op.r.TupleAt(63)[a] == 65536
		case "stride group span at the limit", "stride group span one past the limit":
			want := int64(tableSize(op.r.Card()) - 1)
			if name == "stride group span one past the limit" {
				want++
			}
			byValue := strings.HasSuffix(streamPath(op, false), " dense") // JoinProject groups r on a
			ok = ok && groupSpan == want && byValue == (want < int64(tableSize(op.r.Card())))
		case "stride keys at MinInt32, probes past the window":
			ok = ok && sdense && slo == math.MinInt32 && past && !below
		case "stride keys at MaxInt32, probes below the window":
			ok = ok && sdense && slo+sspan-1 == math.MaxInt32 && below && !past
		}
		if !ok {
			t.Errorf("seed %q misses its case: r %d rows (%d dead, %d chunks), s %d rows; key span %d (%v), group span %d, s's lo %d span %d (%v), below %v past %v",
				name, op.r.Card(), op.r.dead, len(op.r.chunks), op.s.Card(), keySpan, keyDense, groupSpan, slo, sspan, sdense, below, past)
		}
	}
}

// spanSeed is a bitSeed whose nine-row r has a values from lo to
// lo + span − 1 (r's g for both sinks), and f rows at both ends: with 9
// live rows the groups' slot table has tableSize(9) = 32 slots, so a span
// of 31 is the widest numbered by value.
func spanSeed(lo Value, span int) []byte {
	hi := Value(int64(lo) + int64(span) - 1)
	return bitSeed(0b00110,
		literalRel(0, Tuple{lo, 0}, Tuple{lo, 1}, Tuple{hi, 0}, Tuple{hi, 2}, Tuple{lo + 1, 1}, Tuple{lo + 1, 2},
			Tuple{hi - 1, 0}, Tuple{lo, 2}, Tuple{hi, 1}),
		literalRel(0, Tuple{0, 3}, Tuple{1, 4}, Tuple{2, 3}, Tuple{0, 5}, Tuple{1, 3}),
		literalRel(0, Tuple{lo, 3}, Tuple{lo, 5}, Tuple{hi, 4}, Tuple{hi, 3}, Tuple{lo + 1, 4}, Tuple{hi - 1, 5}))
}

// groupSeeds are the stream seeds of the streamed sinks' group sources
// (group): g numbered by value or by a keyTable of its keys.
var groupSeeds = map[string][]byte{
	// r's a over [0, 4) with dead rows, s's c a million apart, so the
	// build side is the chained table; f's rows dead in places too.
	"groups dense dead": bitSeed(0b00110,
		func() []byte {
			var rows []Tuple
			for a := range Value(4) {
				for b := range Value(3) {
					rows = append(rows, Tuple{a, b})
				}
			}
			return literalRel(0x0021, rows...)
		}(),
		literalRel(0, Tuple{0, 0}, Tuple{0, 1 << 20}, Tuple{1, 2 << 20}, Tuple{2, 0}, Tuple{2, 3 << 20}),
		literalRel(0x0004, Tuple{0, 0}, Tuple{1, 1 << 20}, Tuple{2, 2 << 20}, Tuple{3, 0}, Tuple{0, 3 << 20},
			Tuple{1, 0}, Tuple{2, 1 << 20}, Tuple{3, 3 << 20}, Tuple{3, 2 << 20})),
	// r's a over [5, 7]; f's a also at 4 and 8, just outside, and at the
	// ends of int32.
	"groups f outside the span": bitSeed(0b00110,
		literalRel(0, Tuple{5, 0}, Tuple{5, 1}, Tuple{6, 0}, Tuple{6, 2}, Tuple{7, 1}, Tuple{7, 2}),
		literalRel(0, Tuple{0, 3}, Tuple{1, 4}, Tuple{2, 5}),
		literalRel(0, Tuple{4, 3}, Tuple{5, 3}, Tuple{6, 5}, Tuple{8, 4}, Tuple{7, 4}, Tuple{math.MinInt32, 3},
			Tuple{math.MaxInt32, 5}, Tuple{5, 4})),
	// r's a is 0, 5 and 9: the groups between have no probe row, and f
	// rows in them.
	"groups empty inside the span": bitSeed(0b00110,
		literalRel(0, Tuple{0, 0}, Tuple{0, 1}, Tuple{5, 1}, Tuple{5, 2}, Tuple{9, 0}, Tuple{9, 2}),
		literalRel(0, Tuple{0, 3}, Tuple{1, 4}, Tuple{2, 5}),
		literalRel(0, Tuple{0, 3}, Tuple{2, 4}, Tuple{3, 3}, Tuple{5, 4}, Tuple{7, 5}, Tuple{9, 5}, Tuple{6, 3})),
	// r's a spans tableSize(9) − 1 values, the widest numbered by value,
	// ending at MaxInt32; one value more and a keyTable numbers them.
	"groups span at the bound, MaxInt32":       spanSeed(math.MaxInt32-30, 31),
	"groups span one past the bound, MaxInt32": spanSeed(math.MaxInt32-31, 32),
	// r = abc probes s = bd on b, f = x = acd: both sinks group on two
	// columns, a and c, with dead rows in r and f.
	"groups two columns": literalSeed(0b00111, 0b01010, 0b00001,
		literalRel(0x0010, Tuple{0, 0, 0}, Tuple{0, 1, 0}, Tuple{0, 2, 1}, Tuple{1, 0, 0}, Tuple{1, 1, 1}, Tuple{1, 2, 1},
			Tuple{0, 1, 1}, Tuple{2, 0, 0}, Tuple{2, 2, 0}),
		literalRel(0, Tuple{0, 7}, Tuple{1, 8}, Tuple{2, 7}, Tuple{0, 9}),
		0b01101, 0b01101,
		literalRel(0x0002, Tuple{0, 0, 7}, Tuple{0, 0, 8}, Tuple{0, 1, 9}, Tuple{1, 0, 7}, Tuple{1, 1, 8}, Tuple{2, 0, 9},
			Tuple{2, 0, 7}, Tuple{3, 1, 8})),
}

// chainSeed is a stream seed with a chain: ab, 12 rows, and bc, 6, join
// on b; f = ac filters them; the semijoins by cd, keyed by c, and by a
// follow; onto picks the projection (0: none, 1: onto ab, 2: onto bc).
// Every value is multiplied by k, and every relation carries the dead-row
// mask dead — six rows or more each, so that one dead row does not
// compact it away. Each stage drops join rows, and the projection drops
// rows of its operand: ab's (1, 2) from the middle.
func chainSeed(k Value, dead uint16, onto byte) []byte {
	rel := func(rows ...Tuple) []byte {
		for _, row := range rows {
			for i := range row {
				row[i] *= k
			}
		}
		return literalRel(dead, rows...)
	}
	var ab []Tuple
	for a := range Value(4) {
		for b := range Value(3) {
			ab = append(ab, Tuple{a, b})
		}
	}
	b := bitSeed(0b00110, rel(ab...),
		rel(Tuple{0, 1}, Tuple{0, 3}, Tuple{1, 2}, Tuple{1, 5}, Tuple{2, 0}, Tuple{2, 4}),
		rel(Tuple{0, 1}, Tuple{0, 3}, Tuple{0, 2}, Tuple{1, 2}, Tuple{1, 5}, Tuple{1, 0}, Tuple{2, 4}, Tuple{2, 1},
			Tuple{2, 3}, Tuple{3, 0}, Tuple{3, 5}, Tuple{3, 3}))
	b = append(b, 2, 0b01100)
	b = append(b, rel(Tuple{1, 7}, Tuple{2, 7}, Tuple{3, 8}, Tuple{4, 9}, Tuple{1, 8}, Tuple{2, 9})...)
	b = append(b, 0b00001)
	b = append(b, rel(Tuple{0}, Tuple{1}, Tuple{2}, Tuple{7}, Tuple{8}, Tuple{9})...)
	return append(b, onto)
}

// chainSeeds are the stream seeds of JoinFilter's chains; streamSeeds
// holds them with the rest.
var chainSeeds = map[string][]byte{
	// Onto ab, the larger operand, probed: bit rows by b with h = c, so
	// the semijoin by cd is keyed by h alone and the one by a by a probe
	// column.
	"chain bits onto the larger": chainSeed(1, 0, 1),
	// Onto bc, the smaller: it is probed, ab is built, and h = a, so the
	// semijoin by a is keyed by h alone and the one by cd by a probe
	// column.
	"chain bits onto the smaller": chainSeed(1, 0, 2),
	// Values a million apart: the chained table, and key tables for both
	// semijoins.
	"chain wide": chainSeed(1000003, 0, 1),
	// No projection, so counted; rows 0 and 8 of every relation dead.
	"chain dead": chainSeed(1, 0x0101, 0),
}

func init() {
	for _, seeds := range []map[string][]byte{bitSeeds, groupSeeds, chainSeeds} {
		for name, seed := range seeds {
			streamSeeds[name] = seed
		}
	}
}

// seedPaths says, for every stream seed, the paths JoinProject and
// JoinFilter take on it (TestStreamSeedsCoverTheirCases): a build side of
// bit rows or the chained table, and groups numbered by value (dense) or
// by a keyTable of g's keys (hashed).
var seedPaths = map[string][2]string{ // project, filter
	"g=∅":                {"chained hashed", "chained dense"},  // a two-column key
	"x⊇probe":            {"bits hashed", "chained hashed"},    // the filter's h is two columns
	"inexact":            {"chained hashed", "chained hashed"}, // h is three columns; g = e holds int32's ends
	"dense product":      {"chained dense", "chained dense"},   // no key column
	"zero-width":         {"chained dense", "chained hashed"},
	"dead":               {"chained hashed", "chained hashed"}, // edgeValues span int32
	"filter g=∅":         {"chained hashed", "chained hashed"}, // a two-column key
	"filter h=∅":         {"bits hashed", "chained hashed"},    // the filter has no h column
	"filter inexact":     {"chained hashed", "chained hashed"},
	"filter dead":        {"chained hashed", "chained hashed"},
	"filter empty group": {"bits hashed", "bits hashed"}, // s, probed, holds int32's ends in c
	"semijoin dense":     {"bits dense", "chained hashed"},
	"semijoin sparse":    {"chained dense", "chained hashed"},

	"bits dead":                                      {"bits dense", "bits dense"},
	"bits f outside the window":                      {"bits dense", "bits dense"},
	"bits at the projection's bound, MinInt32":       {"bits dense", "bits dense"},
	"bits one past the projection's bound, MinInt32": {"chained dense", "bits dense"},
	"bits at the filter's bound, MaxInt32":           {"chained dense", "bits dense"},
	"bits one past the filter's bound, MaxInt32":     {"chained dense", "chained dense"},
	"bits key gaps":                                  {"bits dense", "bits dense"},
	"bits k mid-word":                                {"bits dense", "bits dense"},
	"build wider than key + h":                       {"bits dense", "chained dense"},

	"groups dense dead":                        {"chained dense", "chained dense"},
	"groups f outside the span":                {"bits dense", "bits dense"},
	"groups empty inside the span":             {"bits dense", "bits dense"},
	"groups span at the bound, MaxInt32":       {"bits dense", "bits dense"},
	"groups span one past the bound, MaxInt32": {"bits hashed", "bits hashed"},
	"groups two columns":                       {"bits hashed", "bits hashed"},

	"chain bits onto the larger":  {"bits dense", "bits dense"},
	"chain bits onto the smaller": {"bits dense", "bits dense"},
	"chain wide":                  {"chained hashed", "chained hashed"},
	"chain dead":                  {"bits dense", "bits dense"},
}

// streamPath names the path a streamed sink over op takes — JoinFilter by
// f when filter, else JoinProject onto x — as seedPaths does: a fresh
// Exec builds no keyTable in its keys scratch on bit rows, and none in
// its aux scratch when it numbers groups by value.
func streamPath(op fuzzOperands, filter bool) string {
	ex := NewExec()
	if filter {
		joinFilter(ex, op.r, op.s, op.f, All, Budget{})
	} else {
		ex.JoinProject(op.r, op.s, op.x, All, Budget{})
	}
	build, groups := "chained", "hashed"
	if ex.keys.slots == nil {
		build = "bits"
	}
	if ex.aux.next == nil {
		groups = "dense"
	}
	return build + " " + groups
}

// TestStreamSeedsCoverTheirCases decodes each stream seed and checks it
// reaches the case it is named for, so an edit to the decoder cannot
// quietly turn a seed into a duplicate of another.
func TestStreamSeedsCoverTheirCases(t *testing.T) {
	for _, name := range slices.Sorted(maps.Keys(streamSeeds)) {
		op := decodeOperands(streamSeeds[name])
		build, probe := op.r, op.s
		if op.s.Card() < op.r.Card() {
			build, probe = op.s, op.r
		}
		g, h := op.x.Intersect(probe.attrs), op.x.Diff(probe.attrs)
		fg, fh := op.f.attrs.Intersect(probe.attrs), op.f.attrs.Diff(probe.attrs)
		joined := NewExec().Join(op.r, op.s).Card()
		kept, _, _ := joinFilter(NewExec(), op.r, op.s, op.f, All, Budget{})
		ok := joined > 0 && op.f.Card() > 0
		// The live spans of the build side's key and of the filter's h: the
		// shape of the filter's bit rows.
		var kspan, hspan, hlo, hhi int64
		keys := map[Value]bool{}
		if shared := op.r.attrs.Intersect(op.s.attrs); shared.Card() == 1 && fh.Card() == 1 && build.Card() > 0 {
			kp, hp := build.colPos(shared.Min()), build.colPos(fh.Min())
			klo, khi := int64(math.MaxInt64), int64(math.MinInt64)
			hlo, hhi = klo, khi
			for _, tp := range build.Tuples() {
				klo, khi = min(klo, int64(tp[kp])), max(khi, int64(tp[kp]))
				hlo, hhi = min(hlo, int64(tp[hp])), max(hhi, int64(tp[hp]))
				keys[tp[kp]] = true
			}
			kspan, hspan = khi-klo+1, hhi-hlo+1
		}
		words := kspan * ((hspan + 63) >> 6)
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
		case "filter g=∅": // counted with k = 0, so the group grows with no row stored
			ex := NewExec()
			out, _, _ := joinFilter(ex, op.r, op.s, op.f, 0, Budget{})
			ok = ok && fg.IsEmpty() && len(ex.local.words) > groupRows && out.Card() == 0 && kept.Card() > 0
		case "filter h=∅":
			ok = ok && fh.IsEmpty() && kept.Card() > 0 && kept.Card() < joined
		case "filter inexact":
			ok = ok && fh.Card() > 2 && !fg.IsEmpty() && kept.Card() > 0
		case "filter dead":
			ok = ok && probe.dead > 0 && op.f.dead > 0 && !fg.IsEmpty() && !fh.IsEmpty() && kept.Card() > 0
		case "filter empty group":
			groups, inF := naiveOf(op.r).join(naiveOf(op.s)).project(fg).rows, naiveOf(op.f).project(fg).rows
			bare := false
			for key := range groups {
				_, has := inF[key]
				bare = bare || !has
			}
			ok = ok && !fg.IsEmpty() && bare && kept.Card() > 0
		case "semijoin dense", "semijoin sparse":
			shared := op.r.attrs.Intersect(op.s.attrs)
			_, _, dense := denseSpan(op.s, op.s.colPos(shared.Min()))
			semi := NewExec().Semijoin(op.r, op.s).Card()
			ok = ok && shared.Card() == 1 && dense == (name == "semijoin dense") && 0 < semi && semi < op.r.Card()
			if dense {
				ok = ok && op.s.dead > 0
			}
		case "bits dead":
			ok = ok && build.dead > 0 && probe.dead > 0 && op.f.dead > 0 && kept.Card() > 0
		case "bits f outside the window":
			below, above := false, false
			for _, tp := range op.f.Tuples() {
				v := int64(tp[op.f.colPos(fh.Min())])
				below, above = below || v < hlo, above || v > hhi+64
			}
			ok = ok && below && above && kept.Card() > 0
		case "bits at the projection's bound, MinInt32":
			ok = ok && words == int64(bitRowWords[projectRows]*build.Card()) && kept.Card() > 0
		case "bits one past the projection's bound, MinInt32":
			ok = ok && words == int64(bitRowWords[projectRows]*build.Card())+kspan && kept.Card() > 0
		case "bits at the filter's bound, MaxInt32":
			ok = ok && words == int64(bitRowWords[filterRows]*build.Card()) && kept.Card() > 0
		case "bits one past the filter's bound, MaxInt32":
			ok = ok && words == int64(bitRowWords[filterRows]*build.Card())+kspan && kept.Card() > 0
		case "bits key gaps":
			ok = ok && int64(len(keys)) < kspan && kept.Card() > 0
		case "bits k mid-word": // the filter's first four rows: one probe row's, from one word
			rows, hp := kept.Tuples(), kept.colPos(fh.Min())
			onePair := func(a, b Tuple) bool {
				return !slices.ContainsFunc(probe.cols, func(c schema.Attr) bool { return a[kept.colPos(c)] != b[kept.colPos(c)] })
			}
			ok = ok && len(rows) > 3 && onePair(rows[0], rows[3]) && (int64(rows[0][hp])-hlo)>>6 == (int64(rows[3][hp])-hlo)>>6
		case "build wider than key + h":
			ok = ok && build.width == 3 && fh.Card() == 1 && kept.Card() > 0
		case "groups dense dead":
			ok = ok && fg.Card() == 1 && probe.dead > 0 && op.f.dead > 0 && kept.Card() > 0
		case "groups f outside the span":
			pv, fv := liveValues(probe, fg.Min()), liveValues(op.f, fg.Min())
			ok = ok && slices.Min(fv) < slices.Min(pv) && slices.Max(fv) > slices.Max(pv) && kept.Card() > 0
		case "groups empty inside the span":
			pv := liveValues(probe, fg.Min())
			inGap := func(v int64) bool { return v > slices.Min(pv) && v < slices.Max(pv) && !slices.Contains(pv, v) }
			ok = ok && slices.ContainsFunc(liveValues(op.f, fg.Min()), inGap) && kept.Card() > 0
		case "groups span at the bound, MaxInt32", "groups span one past the bound, MaxInt32":
			pv, want := liveValues(probe, g.Min()), int64(tableSize(probe.Card())-1)
			if name == "groups span one past the bound, MaxInt32" {
				want++
			}
			ok = ok && g.Equal(fg) && slices.Max(pv) == math.MaxInt32 && slices.Max(pv)-slices.Min(pv)+1 == want && kept.Card() > 0
		case "groups two columns":
			ok = ok && g.Card() == 2 && g.Equal(fg) && probe.dead > 0 && op.f.dead > 0 && kept.Card() > 0
		}
		if strings.HasPrefix(name, "chain") {
			ok = ok && chainCovers(t, name, op)
		}
		// The path each sink takes: its build side and its groups.
		if got := [2]string{streamPath(op, false), streamPath(op, true)}; got != seedPaths[name] {
			t.Errorf("seed %q: JoinProject, JoinFilter take %q; want %q", name, got, seedPaths[name])
		}
		if !ok {
			t.Errorf("seed %q misses its case: r %s (%d, %d dead), s %s (%d, %d dead), f %s (%d, %d dead), x %s, |r ⋈ s| = %d",
				name, op.r.U.FormatSet(op.r.attrs), op.r.Card(), op.r.dead, op.s.U.FormatSet(op.s.attrs), op.s.Card(), op.s.dead,
				op.f.U.FormatSet(op.f.attrs), op.f.Card(), op.f.dead, op.x.Key(), joined)
		}
	}
}

// chainCovers reports whether a chain seed reaches its case: two
// semijoins that each drop join rows, a projection that drops a row of
// its operand — ab's being the larger — and, on bit rows, the semijoin
// the seed names taking the mask and the other the key set, where the
// wide seed's take key tables; the dead seed has dead rows in every
// operand.
func chainCovers(t *testing.T, name string, op fuzzOperands) bool {
	onto := [...]*Relation{nil, op.r, op.s}[op.onto]
	ex := NewExec()
	out, cards := ex.JoinFilter(op.r, op.s, op.f, Chain{Semijoins: op.semis, Onto: onto}, All, Budget{}, nil)
	ok := len(op.semis) == 2 && cards[2] < cards[1] && cards[3] < cards[2] && out.Card() > 0
	if onto != nil {
		ok = ok && out.Card() < onto.Card()
	}
	// The kernel's own stages say which path each semijoin took.
	ch := chain{Chain: Chain{Semijoins: op.semis, Onto: onto}}
	NewExec().join(op.r, op.s, filterRows, op.r.attrs.Union(op.s.attrs), op.f, &ch, All, Budget{})
	masked := func(i int) bool { return ch.stages[i].mask != nil }
	switch name {
	case "chain bits onto the larger":
		ok = ok && op.r.Card() > op.s.Card() && masked(0) && !masked(1)
	case "chain bits onto the smaller":
		ok = ok && op.s.Card() < op.r.Card() && !masked(0) && masked(1)
	case "chain wide":
		ok = ok && !masked(0) && !masked(1) && ex.sets[0].keys.slots != nil && ex.sets[1].keys.slots != nil
	case "chain dead":
		for _, rel := range append([]*Relation{op.r, op.s, op.f}, op.semis...) {
			ok = ok && rel.dead > 0
		}
	}
	if !ok {
		t.Logf("seed %q: cards %v, %d rows out", name, cards, out.Card())
	}
	return ok
}

// liveValues returns the values of rel's live rows in column a.
func liveValues(rel *Relation, a schema.Attr) []int64 {
	var vals []int64
	for _, tp := range rel.Tuples() {
		vals = append(vals, int64(tp[rel.colPos(a)]))
	}
	return vals
}

// FuzzOperators decodes two relations of width 0–4 over a five-attribute
// pool — values from edgeValues, a dead-row mask each — a projection
// list, and a filter relation and head over their union (decodeOperands),
// and holds the operators, run through one Exec, to checkKernels' and
// checkStreams' oracles: the nested-loop results, the two-statement
// forms of the streamed sinks and of a chain (checkChain), Join's,
// Semijoin's, Project's and the filter's row order, dense outputs,
// untouched operands. It runs every input twice, on an Exec that lets the
// data pick its paths and on one held to the generic paths (SetGeneric),
// and holds the two runs to each other (sameTwins). Runs in the CI
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
	// In name order, so seed#N names the same input on every run.
	for _, seeds := range []map[string][]byte{streamSeeds, strideSeeds} {
		for _, name := range slices.Sorted(maps.Keys(seeds)) {
			f.Add(seeds[name])
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		op := decodeOperands(raw)
		auto, generic := twinExecs()
		for _, run := range []struct {
			name string
			ex   *Exec
		}{{"", auto}, {"generic ", generic}} {
			ex := run.ex
			checkKernels(t, run.name+"r,s", ex, op.r, op.s, op.px)
			checkKernels(t, run.name+"s,r", ex, op.s, op.r, op.px.Intersect(op.s.attrs))
			checkStreams(t, run.name+"r,s", ex, op.r, op.s, op.f, op.x)
			checkStreams(t, run.name+"s,r", ex, op.s, op.r, op.f, op.x)
			onto := [...]*Relation{nil, op.r, op.s}[op.onto]
			checkChain(t, run.name+"r,s", ex, op.r, op.s, op.f, op.semis, onto)
			checkChain(t, run.name+"s,r", ex, op.s, op.r, op.f, op.semis, onto)
		}
		sameTwins(t, op, auto, generic)
	})
}

// sameTwins holds the operators' results over op on auto, whose paths the
// data picks, to their results on generic, held to the generic paths:
// twinResults must be equal line by line.
func sameTwins(t *testing.T, op fuzzOperands, auto, generic *Exec) {
	t.Helper()
	a, g := twinResults(auto, op), twinResults(generic, op)
	for i := range a {
		if a[i] != g[i] {
			t.Fatalf("the generic paths differ:\nauto    %s\ngeneric %s", a[i], g[i])
		}
	}
}

// twinResults renders what no path may change of every operator over op,
// both ways round, run on ex: each output's rows as a set — a counted
// one's count alone, since a streamed join's paths may order its rows
// differently — and every count it returns; and whether budgets of 1,
// |r ⋈ s| and |r ⋈ s| + 1 join rows stop each join, with how many rows it
// walked at the exact one.
func twinResults(ex *Exec, op fuzzOperands) []string {
	var res []string
	add := func(label string, out *Relation, counts ...int) {
		rows := "stopped"
		switch {
		case out != nil && slices.Contains([]string{"join first", "project", "filter"}, label) && counts[0] != All:
			rows = fmt.Sprint(out.Card(), " rows kept")
		case out != nil:
			rows = strings.Join(sortedRows(out.Tuples()), " ")
		}
		res = append(res, fmt.Sprint(label, " ", counts, ": ", rows))
	}
	onto := [...]*Relation{nil, op.r, op.s}[op.onto]
	for _, rs := range [][2]*Relation{{op.r, op.s}, {op.s, op.r}} {
		r, s := rs[0], rs[1]
		add("join", ex.Join(r, s))
		add("semijoin", ex.Semijoin(r, s))
		add("projection", ex.Project(r, op.px.Intersect(r.attrs)))
		for _, k := range []int{0, 1, 3, All} {
			out, card := ex.JoinFirst(r, s, k, Budget{})
			add("join first", out, k, card)
			out, card, joined := ex.JoinProject(r, s, op.x, k, Budget{})
			add("project", out, k, card, joined)
			out, cards := ex.JoinFilter(r, s, op.f, Chain{Semijoins: op.semis}, k, Budget{}, nil)
			add("filter", out, append([]int{k}, cards...)...)
		}
		out, cards := ex.JoinFilter(r, s, op.f, Chain{Semijoins: op.semis, Onto: onto}, All, Budget{}, nil)
		add("chain", out, cards...)
		n := ex.Join(r, s).Card()
		for _, rows := range []int{1, n, n + 1} {
			b := Budget{Rows: rows}
			out, card := ex.JoinFirst(r, s, 1, b)
			pout, _, joined := ex.JoinProject(r, s, op.x, All, b)
			cout, cards := ex.JoinFilter(r, s, op.f, Chain{Semijoins: op.semis, Onto: onto}, All, b, nil)
			stops := fmt.Sprint(out == nil, pout == nil, cout == nil)
			if rows == n {
				stops += fmt.Sprint(card, joined, cards[0])
			}
			res = append(res, fmt.Sprint("budget ", rows, ": ", stops))
		}
	}
	return res
}

// joinFilter is JoinFilter with nothing past the filter: its output, its
// row count and how many join rows it walked (a nil output and 0 rows
// when b stopped it).
func joinFilter(ex *Exec, r, s, f *Relation, k int, b Budget) (*Relation, int, int) {
	out, cards := ex.JoinFilter(r, s, f, Chain{}, k, b, nil)
	if out == nil {
		return nil, 0, cards[0]
	}
	return out, cards[1], cards[0]
}
