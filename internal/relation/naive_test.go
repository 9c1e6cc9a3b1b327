package relation

// Differential / property tests: the columnar hash engine is checked
// against naiveRel, a deliberately simple nested-loop reference
// implementation that shares no code with the engine (string-keyed
// rows, O(n·m) joins). On randomized databases every operator must be
// set-equal to the reference.

import (
	"fmt"
	"math/rand"
	"sort"
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
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, ",")
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

func (r *naiveRel) join(s *naiveRel) *naiveRel {
	shared := r.attrs.Intersect(s.attrs).Attrs()
	out := newNaive(r.attrs.Union(s.attrs))
	for _, rt := range r.rows {
		for _, st := range s.rows {
			ok := true
			for _, c := range shared {
				if rt[r.pos(c)] != st[s.pos(c)] {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
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
	out := newNaive(r.attrs)
	for _, rt := range r.rows {
		for _, st := range s.rows {
			ok := true
			for _, c := range shared {
				if rt[r.pos(c)] != st[s.pos(c)] {
					ok = false
					break
				}
			}
			if ok {
				out.insert(rt)
				break
			}
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
