package relation

// Before/after benchmarks: skRelation preserves the seed engine —
// per-row []Value tuples behind a map[string]int set index, string-key
// hash tables for join and semijoin — so the columnar engine's speedup
// is measurable in-tree. Run with
//
//	go test ./internal/relation -bench 'Join|Semijoin|Insert' -benchmem

import (
	"fmt"
	"math/rand"
	"testing"

	"gyokit/internal/schema"
)

// skRelation is the seed string-keyed engine, verbatim modulo naming.
type skRelation struct {
	attrs  schema.AttrSet
	cols   []schema.Attr
	tuples []Tuple
	index  map[string]int
}

func newSK(attrs schema.AttrSet) *skRelation {
	return &skRelation{attrs: attrs, cols: attrs.Attrs(), index: make(map[string]int)}
}

func skKey(t Tuple) string {
	b := make([]byte, 4*len(t))
	for i, v := range t {
		b[4*i] = byte(v)
		b[4*i+1] = byte(v >> 8)
		b[4*i+2] = byte(v >> 16)
		b[4*i+3] = byte(v >> 24)
	}
	return string(b)
}

func (r *skRelation) insert(t Tuple) {
	k := skKey(t)
	if _, dup := r.index[k]; dup {
		return
	}
	cp := append(Tuple(nil), t...)
	r.index[k] = len(r.tuples)
	r.tuples = append(r.tuples, cp)
}

func (r *skRelation) pos(a schema.Attr) int {
	for i, c := range r.cols {
		if c == a {
			return i
		}
	}
	panic("legacy: attribute not present")
}

func (r *skRelation) join(s *skRelation) *skRelation {
	shared := r.attrs.Intersect(s.attrs)
	build, probe := r, s
	if len(s.tuples) < len(r.tuples) {
		build, probe = s, r
	}
	sharedCols := shared.Attrs()
	bPos := make([]int, len(sharedCols))
	pPos := make([]int, len(sharedCols))
	for i, c := range sharedCols {
		bPos[i] = build.pos(c)
		pPos[i] = probe.pos(c)
	}
	ht := make(map[string][]Tuple, len(build.tuples))
	kbuf := make(Tuple, len(sharedCols))
	for _, t := range build.tuples {
		for i, p := range bPos {
			kbuf[i] = t[p]
		}
		k := skKey(kbuf)
		ht[k] = append(ht[k], t)
	}
	out := newSK(r.attrs.Union(s.attrs))
	type src struct {
		fromProbe bool
		pos       int
	}
	srcs := make([]src, len(out.cols))
	for i, c := range out.cols {
		if probe.attrs.Has(c) {
			srcs[i] = src{true, probe.pos(c)}
		} else {
			srcs[i] = src{false, build.pos(c)}
		}
	}
	obuf := make(Tuple, len(out.cols))
	for _, pt := range probe.tuples {
		for i, p := range pPos {
			kbuf[i] = pt[p]
		}
		for _, bt := range ht[skKey(kbuf)] {
			for i, s := range srcs {
				if s.fromProbe {
					obuf[i] = pt[s.pos]
				} else {
					obuf[i] = bt[s.pos]
				}
			}
			out.insert(obuf)
		}
	}
	return out
}

func (r *skRelation) semijoin(s *skRelation) *skRelation {
	shared := r.attrs.Intersect(s.attrs)
	sharedCols := shared.Attrs()
	sPos := make([]int, len(sharedCols))
	rPos := make([]int, len(sharedCols))
	for i, c := range sharedCols {
		sPos[i] = s.pos(c)
		rPos[i] = r.pos(c)
	}
	seen := make(map[string]bool, len(s.tuples))
	kbuf := make(Tuple, len(sharedCols))
	for _, t := range s.tuples {
		for i, p := range sPos {
			kbuf[i] = t[p]
		}
		seen[skKey(kbuf)] = true
	}
	out := newSK(r.attrs)
	for _, t := range r.tuples {
		for i, p := range rPos {
			kbuf[i] = t[p]
		}
		if seen[skKey(kbuf)] {
			out.insert(t)
		}
	}
	return out
}

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

func BenchmarkInsertStringKey(b *testing.B) {
	u := schema.NewUniverse()
	ab := u.Set("a", "b")
	for _, n := range benchSizes() {
		data := benchTuples(n, 1)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := newSK(ab)
				for _, t := range data {
					r.insert(t)
				}
			}
		})
	}
}

// benchJoinPair builds R(a,b) and S(b,c) with matching b distributions
// in both engines.
func benchJoinPair(u *schema.Universe, n int) (*Relation, *Relation, *skRelation, *skRelation) {
	ab, bc := u.Set("a", "b"), u.Set("b", "c")
	r, s := New(u, ab), New(u, bc)
	rk, sk := newSK(ab), newSK(bc)
	for _, t := range benchTuples(n, 2) {
		r.Insert(t)
		rk.insert(t)
	}
	for _, t := range benchTuples(n, 3) {
		// S columns are (b, c) = (random, unique): swap so the shared
		// attribute b is the random column on both sides.
		s.Insert(Tuple{t[1], t[0]})
		sk.insert(Tuple{t[1], t[0]})
	}
	return r, s, rk, sk
}

func BenchmarkJoinColumnar(b *testing.B) {
	u := schema.NewUniverse()
	for _, n := range benchSizes() {
		r, s, _, _ := benchJoinPair(u, n)
		ex := NewExec()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ex.Join(r, s)
			}
		})
	}
}

func BenchmarkJoinStringKey(b *testing.B) {
	u := schema.NewUniverse()
	for _, n := range benchSizes() {
		_, _, rk, sk := benchJoinPair(u, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rk.join(sk)
			}
		})
	}
}

func BenchmarkSemijoinColumnar(b *testing.B) {
	u := schema.NewUniverse()
	for _, n := range benchSizes() {
		r, s, _, _ := benchJoinPair(u, n)
		ex := NewExec()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ex.Semijoin(r, s)
			}
		})
	}
}

// BenchmarkProjectColumnar projects the ≈8n-row join of the benchmark
// pair back onto bc — the early projection a Yannakakis plan runs after
// each join — so every output row is found ≈8 times: the scan pays both
// the append and the duplicate hit.
func BenchmarkProjectColumnar(b *testing.B) {
	u := schema.NewUniverse()
	for _, n := range benchSizes() {
		r, s, _, _ := benchJoinPair(u, n)
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

func BenchmarkSemijoinStringKey(b *testing.B) {
	u := schema.NewUniverse()
	for _, n := range benchSizes() {
		_, _, rk, sk := benchJoinPair(u, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rk.semijoin(sk)
			}
		})
	}
}
