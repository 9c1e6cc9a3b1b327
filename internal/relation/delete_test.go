package relation

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"gyokit/internal/schema"
)

// layout is everything a snapshot's readers can reach, captured so that
// later writes to its descendants can be checked against it bit for bit:
// the row positions in use, the dead count, and per chunk the data
// backing array (by address and by content) and the dead bitmap (by
// address and by content).
type layout struct {
	n, dead int
	chunks  []chunkImage
	raw     []Value
}

type chunkImage struct {
	data []Value
	id   uint64
	dead *deadBits
	bits deadBits
}

func captureLayout(r *Relation) layout {
	l := layout{n: r.n, dead: r.dead, raw: r.RawData()}
	for _, c := range r.chunks {
		im := chunkImage{data: slices.Clone(c.data), id: c.id, dead: c.dead}
		if c.dead != nil {
			im.bits = *c.dead
		}
		l.chunks = append(l.chunks, im)
	}
	return l
}

func (l layout) check(t *testing.T, r *Relation, label string) {
	t.Helper()
	if r.n != l.n || r.dead != l.dead || len(r.chunks) != len(l.chunks) {
		t.Fatalf("%s: snapshot now has %d positions, %d dead, %d chunks; captured %d, %d, %d",
			label, r.n, r.dead, len(r.chunks), l.n, l.dead, len(l.chunks))
	}
	for k, c := range r.chunks {
		im := l.chunks[k]
		if !slices.Equal(c.data, im.data) || c.id != im.id {
			t.Fatalf("%s: chunk %d of a published snapshot changed", label, k)
		}
		if c.dead != im.dead || (c.dead != nil && *c.dead != im.bits) {
			t.Fatalf("%s: dead bitmap of chunk %d of a published snapshot changed", label, k)
		}
	}
	if !slices.Equal(r.RawData(), l.raw) {
		t.Fatalf("%s: live rows of a published snapshot changed", label)
	}
}

// dense returns the oracle's tuples as a freshly built relation with no
// dead rows.
func (s refSet) dense(u *schema.Universe, attrs schema.AttrSet) *Relation {
	out := New(u, attrs)
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		out.Insert(s[k])
	}
	return out
}

// checkAgainst compares every read of r with the oracle: Card, Has on
// members and non-members, Equal both ways against the dense copy,
// Tuples and TupleAt.
func (s refSet) checkAgainst(t *testing.T, r, dense *Relation, rng *rand.Rand, label string) {
	t.Helper()
	s.equal(t, r, label)
	if !r.Equal(dense) || !dense.Equal(r) {
		t.Fatalf("%s: not Equal to its dense copy", label)
	}
	tuples := r.Tuples()
	if len(tuples) != len(s) {
		t.Fatalf("%s: Tuples returned %d rows, oracle holds %d", label, len(tuples), len(s))
	}
	seen := make(map[string]bool, len(tuples))
	for i, tp := range tuples {
		k := refKey(tp)
		if _, ok := s[k]; !ok || seen[k] {
			t.Fatalf("%s: Tuples()[%d] = %v is dead, foreign or repeated", label, i, tp)
		}
		seen[k] = true
	}
	for _, i := range []int{0, 1, len(tuples) / 3, len(tuples) / 2, len(tuples) - 2, len(tuples) - 1} {
		if i >= 0 && i < len(tuples) && !slices.Equal(r.TupleAt(i), tuples[i]) {
			t.Fatalf("%s: TupleAt(%d) = %v, Tuples()[%d] = %v", label, i, r.TupleAt(i), i, tuples[i])
		}
	}
	for i := 0; i < 8 && len(tuples) > 0; i++ {
		j := rng.Intn(len(tuples))
		if !slices.Equal(r.TupleAt(j), tuples[j]) {
			t.Fatalf("%s: TupleAt(%d) = %v, Tuples()[%d] = %v", label, j, r.TupleAt(j), j, tuples[j])
		}
	}
	for i := 0; i < 16; i++ {
		absent := Tuple{Value(-1 - rng.Intn(1000)), Value(rng.Intn(50))}
		if r.Has(absent) {
			t.Fatalf("%s: has %v, never inserted", label, absent)
		}
	}
}

// checkOperators runs every operator over r (which may carry dead rows)
// and over its dense copy and requires the same set from both.
func checkOperators(t *testing.T, r, dense, partner *Relation, label string) {
	t.Helper()
	u := r.U
	b := u.Set("b")
	same := func(op string, got, want *Relation) {
		t.Helper()
		if got.dead != 0 {
			t.Fatalf("%s: %s output carries %d dead rows", label, op, got.dead)
		}
		if !got.Equal(want) || !want.Equal(got) {
			t.Fatalf("%s: %s over the tombstoned relation has %d tuples, over its dense copy %d",
				label, op, got.Card(), want.Card())
		}
	}
	ex := NewExec()
	same("Project", ex.Project(r, b), ex.Project(dense, b))
	same("Join", ex.Join(r, partner), ex.Join(dense, partner))
	same("Join (flipped)", ex.Join(partner, r), ex.Join(partner, dense))
	same("Semijoin", ex.Semijoin(r, partner), ex.Semijoin(dense, partner))
	same("Semijoin (as filter)", ex.Semijoin(partner, r), ex.Semijoin(partner, dense))
	xy := u.Set("x", "y")
	same("Renamed (permuted)", r.Renamed(u, xy, []int{1, 0}), dense.Renamed(u, xy, []int{1, 0}))
	if r.Frozen() {
		view := r.Renamed(u, xy, []int{0, 1})
		want := dense.Renamed(u, xy, []int{0, 1})
		if !view.Equal(want) || !want.Equal(view) || view.Card() != dense.Card() {
			t.Fatalf("%s: identity view has %d tuples, dense copy %d", label, view.Card(), dense.Card())
		}
		// A Clone of the view is a private, writable relation: what it
		// inserts and deletes reaches neither the view nor r.
		before := captureLayout(r)
		cl := view.Clone()
		cl.Insert(Tuple{-7, -7})
		if cl.Card() > 1 {
			cl.DeleteBlock(cl.TupleAt(0))
		}
		if view.Has(Tuple{-7, -7}) || view.Card() != dense.Card() {
			t.Fatalf("%s: writing a Clone of the identity view changed the view", label)
		}
		before.check(t, r, label+": after writing a Clone of the identity view")
	}
}

// TestDeleteLineageDifferential drives one relation through a seeded
// random interleaving of every write the package offers — InsertBlock,
// block deletes (members, repeats inside a batch, absent tuples, wrong
// arity through Without, delete-then-reinsert, a whole chunk,
// everything), Clone of frozen and unfrozen states, Freeze, forced
// compaction — and after every step checks the result against a map,
// every operator against the dense copy, and every earlier snapshot for
// being bit-for-bit what it was when published.
func TestDeleteLineageDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			u := schema.NewUniverse()
			attrs := u.Set("a", "b")
			partner := New(u, u.Set("b", "c"))
			for i := 0; i < 40; i++ {
				partner.Insert(Tuple{Value(i), Value(i % 3)})
			}
			partner.Freeze()

			next := Value(0)
			fresh := func(n int) []Value {
				block := make([]Value, 0, 2*n)
				for i := 0; i < n; i++ {
					block = append(block, next, Value(rng.Intn(50)))
					next++
				}
				return block
			}
			ref := refSet{}
			apply := func(block []Value) {
				for o := 0; o < len(block); o += 2 {
					tp := Tuple{block[o], block[o+1]}
					ref[refKey(tp)] = tp
				}
			}
			// members returns up to n distinct tuples of the oracle, chosen
			// by rng alone (map order must not leak into a seeded run).
			members := func(n int) []Value {
				keys := make([]string, 0, len(ref))
				for k := range ref {
					keys = append(keys, k)
				}
				slices.Sort(keys)
				rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
				var block []Value
				for _, k := range keys[:min(n, len(keys))] {
					block = append(block, ref[k]...)
				}
				return block
			}
			remove := func(block []Value) {
				for o := 0; o < len(block); o += 2 {
					delete(ref, refKey(Tuple{block[o], block[o+1]}))
				}
			}

			cur := New(u, attrs)
			seedRows := fresh(2*ChunkRows + 500)
			cur.InsertBlock(seedRows)
			apply(seedRows)
			cur.Freeze()

			type published struct {
				rel *Relation
				lay layout
			}
			history := []published{{cur, captureLayout(cur)}}

			for step := 0; step < 120; step++ {
				label := fmt.Sprintf("step %d", step)
				work := cur.Clone()
				ref = ref.clone()
				switch op := rng.Intn(10); op {
				case 0, 1: // insert: new rows plus duplicates of members
					block := append(fresh(1+rng.Intn(300)), members(5)...)
					want := len(block)/2 - min(5, len(ref))
					if got := work.InsertBlock(block); got != want {
						t.Fatalf("%s: InsertBlock added %d, want %d", label, got, want)
					}
					apply(block)
				case 2, 3, 4: // delete members, with repeats and absent tuples in the batch
					victims := members(1 + rng.Intn(300))
					block := slices.Clone(victims)
					block = append(block, victims[:min(len(victims), 6)]...) // repeats
					block = append(block, -5, 5, -6, 6)                      // never present
					if got := work.DeleteBlock(block); got != len(victims)/2 {
						t.Fatalf("%s: DeleteBlock removed %d, want %d", label, got, len(victims)/2)
					}
					remove(victims)
				case 5: // Without: tuples, one of the wrong arity
					victims := members(1 + rng.Intn(40))
					ts := []Tuple{{1, 2, 3}, {}}
					for o := 0; o < len(victims); o += 2 {
						ts = append(ts, Tuple(victims[o:o+2]))
					}
					less, got := work.Without(ts)
					if got != len(victims)/2 || work.Card() != len(ref) {
						t.Fatalf("%s: Without removed %d, want %d (receiver card %d, want %d)",
							label, got, len(victims)/2, work.Card(), len(ref))
					}
					work = less
					remove(victims)
				case 6: // delete, then insert the same tuples again
					victims := members(1 + rng.Intn(100))
					if got := work.DeleteBlock(victims); got != len(victims)/2 {
						t.Fatalf("%s: DeleteBlock removed %d, want %d", label, got, len(victims)/2)
					}
					if got := work.InsertBlock(victims); got != len(victims)/2 {
						t.Fatalf("%s: re-inserting deleted tuples added %d, want %d", label, got, len(victims)/2)
					}
					if got := work.InsertBlock(victims); got != 0 {
						t.Fatalf("%s: inserting them a second time added %d", label, got)
					}
				case 7: // every live row of one chunk
					if len(work.chunks) == 0 {
						break
					}
					c := rng.Intn(len(work.chunks))
					victims := slices.Clone(work.liveBlock(c))
					if got := work.DeleteBlock(victims); got != len(victims)/2 {
						t.Fatalf("%s: deleting chunk %d removed %d, want %d", label, c, got, len(victims)/2)
					}
					remove(victims)
				case 8: // everything (rarely), else a clone of the unfrozen state
					if rng.Intn(4) == 0 {
						victims := work.RawData()
						if got := work.DeleteBlock(victims); got != len(ref) || work.Card() != 0 || work.n != 0 {
							t.Fatalf("%s: deleting everything removed %d of %d, left card %d in %d positions",
								label, got, len(ref), work.Card(), work.n)
						}
						ref = refSet{}
						block := fresh(ChunkRows + 700)
						work.InsertBlock(block)
						apply(block)
					} else {
						victims := members(20)
						work.DeleteBlock(victims)
						twin := work.Clone() // of an unfrozen relation carrying fresh bitmaps
						block := fresh(30)
						twin.InsertBlock(block)
						twin.DeleteBlock(block)
						remove(victims)
						if work.Card() != len(ref) || twin.Card() != len(ref) {
							t.Fatalf("%s: clone of an unfrozen relation: cards %d and %d, want %d",
								label, work.Card(), twin.Card(), len(ref))
						}
					}
				case 9: // forced compaction
					victims := members(3)
					work.DeleteBlock(victims)
					remove(victims)
					work.compact()
					if work.dead > len(ref)/(4*compactDiv) || work.n != len(ref)+work.dead {
						t.Fatalf("%s: compact left %d dead rows in %d positions for %d tuples",
							label, work.dead, work.n, len(ref))
					}
				}
				if work.dead > work.Card()/compactDiv {
					t.Fatalf("%s: %d dead rows beside %d live ones: past the compaction bound",
						label, work.dead, work.Card())
				}
				dense := ref.dense(u, attrs)
				ref.checkAgainst(t, work, dense, rng, label+" (unfrozen)")
				work.Freeze()
				cur = work
				checkOperators(t, cur, dense, partner, label)
				history = append(history, published{cur, captureLayout(cur)})
				for _, h := range history[max(0, len(history)-4):] {
					h.lay.check(t, h.rel, label)
				}
			}
			for i, h := range history {
				h.lay.check(t, h.rel, fmt.Sprintf("at the end, snapshot %d", i))
			}
		})
	}
}

// TestDeleteSharesEverything pins the cost contract of a delete: the
// result shares every chunk (data and id), the base index table and
// the overlay with the snapshot it was taken from — pointer-equal — and
// what it allocates does not grow with the relation.
func TestDeleteSharesEverything(t *testing.T) {
	u := schema.NewUniverse()
	attrs := u.Set("a", "b")
	build := func(n int) *Relation {
		base := New(u, attrs)
		for i := 0; i < n; i++ {
			base.Insert(Tuple{Value(i), Value(i + 1)})
		}
		base.Freeze()
		r := base.Clone() // shared base + an overlay for the rows added since
		for i := n; i < n+100; i++ {
			r.Insert(Tuple{Value(i), Value(i + 1)})
		}
		r.Freeze()
		return r
	}
	victims := func(n int) []Tuple {
		// An early row, a row of a middle chunk, an overlay row.
		return []Tuple{{0, 1}, {Value(n / 2), Value(n/2 + 1)}, {Value(n + 50), Value(n + 51)}}
	}

	n := 2*ChunkRows + 100
	r := build(n)
	before := captureLayout(r)
	out, removed := r.Without(victims(n))
	if removed != 3 || out.Card() != r.Card()-3 {
		t.Fatalf("removed %d, card %d → %d", removed, r.Card(), out.Card())
	}
	if len(out.chunks) != len(r.chunks) {
		t.Fatalf("%d chunks became %d", len(r.chunks), len(out.chunks))
	}
	for k := range r.chunks {
		if &out.chunks[k].data[0] != &r.chunks[k].data[0] || out.chunks[k].id != r.chunks[k].id {
			t.Errorf("chunk %d was rewritten, not shared", k)
		}
	}
	if &out.base[0] != &r.base[0] || out.baseOwned {
		t.Error("the base index table was rebuilt, not shared")
	}
	if len(r.over) == 0 || &out.over[0] != &r.over[0] {
		t.Error("the overlay was copied, not shared")
	}
	for _, v := range victims(n) {
		if out.Has(v) || !r.Has(v) {
			t.Errorf("tuple %v: in the result %v, in the original %v", v, out.Has(v), r.Has(v))
		}
	}
	before.check(t, r, "after Without")
	// The first insert into the result copies the overlay it shares.
	out.Insert(Tuple{-1, -1})
	if &out.over[0] == &r.over[0] || r.Has(Tuple{-1, -1}) {
		t.Error("an insert after the delete wrote into the shared overlay")
	}
	before.check(t, r, "after inserting into the Without result")

	// O(batch): the same delete from a relation 16 times the size
	// allocates the same bitmaps and a chunk table 16 times as long —
	// 64 bytes a chunk — and nothing that scales with the rows.
	allocs := func(r *Relation, vs []Tuple) float64 {
		return testing.AllocsPerRun(20, func() { r.Without(vs) })
	}
	big := build(16 * n)
	if small, large := allocs(r, victims(n)), allocs(big, victims(16*n)); large > small {
		t.Errorf("Without allocates %v objects on %d rows and %v on %d rows", small, r.Card(), large, big.Card())
	}
}

// TestCompactionKeepsLeadingChunks: the compaction a delete triggers
// leaves alone — shared, ids included, so a checkpoint after it rewrites
// only what moved — the leading chunks that never lost a row and those
// that lost few, and repacks everything from the first chunk that lost
// many.
func TestCompactionKeepsLeadingChunks(t *testing.T) {
	u := schema.NewUniverse()
	r := New(u, u.Set("a", "b"))
	n := 5 * ChunkRows
	for i := 0; i < n; i++ {
		r.Insert(Tuple{Value(i), Value(i)})
	}
	r.Freeze()
	work := r.Clone()
	block := []Value{ChunkRows + 3, ChunkRows + 3, ChunkRows + 9, ChunkRows + 9} // chunk 1 loses two rows
	for i := 3 * ChunkRows; i < 3*ChunkRows+n/compactDiv; i++ {                  // chunks 3 and 4 go past the bound
		block = append(block, Value(i), Value(i))
	}
	removed := n/compactDiv + 2
	if got := work.DeleteBlock(block); got != removed {
		t.Fatalf("removed %d, want %d", got, removed)
	}
	if work.dead != 2 || work.Compactions() != 1 || r.Compactions() != 0 {
		t.Fatalf("dead %d, compactions %d (source %d): want a compaction that leaves chunk 1's two dead rows",
			work.dead, work.Compactions(), r.Compactions())
	}
	for k := 0; k < 3; k++ {
		if &work.chunks[k].data[0] != &r.chunks[k].data[0] || work.chunks[k].id != r.chunks[k].id {
			t.Errorf("leading chunk %d was rewritten by the compaction", k)
		}
	}
	if work.chunks[3].id == r.chunks[3].id {
		t.Error("a repacked chunk kept the id of the chunk it replaces")
	}
	if work.Card() != n-removed || work.n != work.Card()+2 ||
		!work.Has(Tuple{Value(n - 1), Value(n - 1)}) || work.Has(Tuple{3 * ChunkRows, 3 * ChunkRows}) || work.Has(Tuple{ChunkRows + 3, ChunkRows + 3}) {
		t.Errorf("after compaction: card %d in %d positions", work.Card(), work.n)
	}
	if r.Card() != n || r.dead != 0 {
		t.Error("the compaction changed the snapshot it was cloned from")
	}
}
