package program

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gyokit/internal/relation"
	"gyokit/internal/schema"
)

// TestReadsUnderAWriteStream is replica_mixed scaled down and run in
// process: the D20k schema over relations of more than two chunks, a
// writer that applies insert and delete batches through the
// copy-on-write API (Clone then Insert, Without) to ab, ac and bc in
// turn, and after every batch the programs of q5, q6, q7 and s8 run on
// the new snapshot through one pooled Exec. Each answer must equal
// refEval's whole, and at k = 10 (the reply's limit) it must count as
// many rows and, when its answer statement runs counted, keep the whole
// answer's first ten. Every streamed join, and q6's counted answer join,
// must report as many join rows as a count by Go maps of its operands. Deletes leave dead rows in
// place until a relation's second delete batch repacks it. The stream
// runs at three domains: over 1000 values the streamed joins' build sides
// take bit rows, over 6000 and 40 000 the chained table (relation's
// TestBitRowsAtTheProgramTestDomains pins these); over 1000 and 6000 their
// probe sides' groups are numbered by value, over 40 000 by a keyTable of
// g's keys, and every streamed statement is checked to take that source
// (groupsByValue).
func TestReadsUnderAWriteStream(t *testing.T) {
	for _, tc := range []struct {
		domain  int
		byValue bool
	}{{1000, true}, {6000, true}, {40000, false}} {
		writeStream(t, tc.domain, tc.byValue)
	}
}

// groupsByValue reports whether a join of l and r streamed into a sink
// keyed on attrs — a projection's head, or a filter's attributes —
// numbers its groups by value, by relation's rule (Exec.join's group): g,
// the sink's attributes on the probe side (r, unless it has fewer rows
// than l), is one column whose live values span fewer values than a key
// table over the probe side has slots — the least power of two that is at
// least 16 and at least twice its rows.
func groupsByValue(l, r *relation.Relation, attrs schema.AttrSet) bool {
	probe := r
	if r.Card() < l.Card() {
		probe = l
	}
	g := attrs.Intersect(probe.Attrs())
	if g.Card() != 1 {
		return false
	}
	col := slices.Index(probe.Cols(), g.Min())
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, tp := range probe.Tuples() {
		lo, hi = min(lo, int64(tp[col])), max(hi, int64(tp[col]))
	}
	slots := 16
	for slots < 2*probe.Card() {
		slots *= 2
	}
	return probe.Card() == 0 || hi-lo+1 < int64(slots)
}

// writeStream is TestReadsUnderAWriteStream at one domain, whose streamed
// joins number their groups by value when byValue.
func writeStream(t *testing.T, domain int, byValue bool) {
	const (
		rows    = 12000 // three chunks after every delete below
		inserts = 256   // tuples per insert batch, as in replica_mixed
		deletes = 2000  // tuples per delete batch: the second on a relation passes a quarter of it
		batches = 12    // ab, ac, then bc: each two inserts and two deletes, alternating
		k       = 10
	)
	u := schema.NewUniverse()
	d := parse(t, u, "ab, bc, cd, de, ac")
	shapes := []struct {
		name string
		p    *Program
	}{
		{"q5_acyclic_ac", planShape(t, parse(t, u, "ab, bc"), "ac")},
		{"q6_wide_abc", planShape(t, parse(t, u, "ab, bc, cd"), "abc")},
		{"q7_triangle", planShape(t, parse(t, u, "ab, bc, ac"), "abc")},
		{"s8_solve_ab", planShape(t, d, "ab")},
	}
	db := danglingDB(d, int64(domain), rows, domain)
	rng := rand.New(rand.NewSource(int64(domain)))
	ex := relation.NewExec()
	sawDead, streams := false, 0
	for batch := 0; batch < batches; batch++ {
		j := []int{0, 4, 1}[batch/4] // ab, ac, bc: the triangle q7 and s8 stream
		next := *db
		next.Rels = slices.Clone(db.Rels)
		if batch%2 == 0 {
			r := db.Rels[j].Clone()
			for added := 0; added < inserts; {
				tp := relation.Tuple{relation.Value(rng.Intn(domain)), relation.Value(rng.Intn(domain))}
				if !r.Has(tp) {
					r.Insert(tp)
					added++
				}
			}
			next.Rels[j] = r
		} else {
			live := db.Rels[j].Tuples()
			rng.Shuffle(len(live), func(a, b int) { live[a], live[b] = live[b], live[a] })
			next.Rels[j], _ = db.Rels[j].Without(live[:deletes])
		}
		db = &next
		db.Freeze()
		for _, r := range db.Rels {
			if r.Card() <= 2*relation.ChunkRows {
				t.Fatalf("domain %d, batch %d: a relation of %d rows does not span three chunks", domain, batch, r.Card())
			}
			sawDead = sawDead || r.DeadRows() > 0
		}

		for _, sh := range shapes {
			label := fmt.Sprintf("domain %d, batch %d, %s", domain, batch, sh.name)
			sub := &relation.Database{D: sh.p.D}
			for _, a := range sh.p.D.Rels {
				sub.Rels = append(sub.Rels, db.Rels[slices.IndexFunc(d.Rels, a.Equal)])
			}
			vals := refValues(sh.p, sub)
			want := vals[len(vals)-1]
			whole, st, err := sh.p.Run(sub, ex, Limits{}, relation.All)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !whole.Equal(want) || !want.Equal(whole) {
				t.Fatalf("%s: Run answers %d tuples, the reference %d", label, whole.Card(), want.Card())
			}
			first, cst, err := sh.p.Run(sub, ex, Limits{}, k)
			if err != nil {
				t.Fatalf("%s: counted: %v", label, err)
			}
			keep := want.Card() // a final projection or semijoin returns the whole answer
			if cst.Detail[len(cst.Detail)-1].Counted {
				keep = min(k, keep)
			}
			if cst.AnswerCard() != want.Card() || first.Card() != keep ||
				!slices.EqualFunc(first.Tuples(), whole.Tuples()[:keep], slices.Equal) {
				t.Fatalf("%s: counted at k=%d: %d rows of %d counted, or not the whole answer's first rows; want %d of %d",
					label, k, first.Card(), cst.AnswerCard(), keep, want.Card())
			}
			for _, run := range []*Stats{st, cst} {
				for si, sd := range run.Detail {
					s := sh.p.Stmts[si]
					if s.Kind != Join || !sd.Streamed && !sd.Counted {
						continue
					}
					if n := joinCount(vals[s.Left], vals[s.Right]); sd.Out != n {
						t.Fatalf("%s: statement %d joined %d rows, its operands have %d join rows\n%s", label, si, sd.Out, n, run.Table())
					}
					if !sd.Streamed {
						continue
					}
					// The sink: the consumer's head, or the filter it joins.
					c, id := sh.p.Stmts[si+1], len(sh.p.D.Rels)+si
					attrs := c.Proj
					if c.Kind != Project {
						attrs = vals[c.Left+c.Right-id].Attrs()
					}
					if got := groupsByValue(vals[s.Left], vals[s.Right], attrs); got != byValue {
						t.Fatalf("%s: statement %d numbers its groups by value %v, want %v", label, si, got, byValue)
					}
					streams++
				}
			}
		}
	}
	compacted := false
	for _, r := range db.Rels {
		compacted = compacted || r.Compactions() > 0
	}
	if !sawDead || !compacted || streams == 0 {
		t.Fatalf("domain %d: dead rows read %v, a relation compacted %v, %d streamed joins; want all three", domain, sawDead, compacted, streams)
	}
}

// joinCount is |l ⋈ r|, counted by a Go map of r's rows by their shared
// columns (at most four), not by the engine.
func joinCount(l, r *relation.Relation) int {
	shared := l.Attrs().Intersect(r.Attrs()).Attrs()
	key := func(rel *relation.Relation, tp relation.Tuple) (k [4]relation.Value) {
		cols := rel.Cols()
		for i, a := range shared {
			k[i] = tp[slices.Index(cols, a)]
		}
		return k
	}
	partners := map[[4]relation.Value]int{}
	for _, tp := range r.Tuples() {
		partners[key(r, tp)]++
	}
	n := 0
	for _, tp := range l.Tuples() {
		n += partners[key(l, tp)]
	}
	return n
}
