package program

import (
	"fmt"
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
// runs at two domains: over 1000 values the streamed joins' build sides
// take bit rows, over 6000 the chained table (relation's
// TestBitRowsAtTheProgramTestDomains pins both).
func TestReadsUnderAWriteStream(t *testing.T) {
	for _, domain := range []int{1000, 6000} {
		writeStream(t, domain)
	}
}

// writeStream is TestReadsUnderAWriteStream at one domain.
func writeStream(t *testing.T, domain int) {
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
	sawDead := false
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
				}
			}
		}
	}
	compacted := false
	for _, r := range db.Rels {
		compacted = compacted || r.Compactions() > 0
	}
	if !sawDead || !compacted {
		t.Fatalf("domain %d: dead rows read %v, a relation compacted %v; want both", domain, sawDead, compacted)
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
