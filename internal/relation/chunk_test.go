package relation

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"gyokit/internal/schema"
)

// refSet is the oracle: a plain map-backed tuple set with deep-copy
// snapshot semantics, against which the chunk-sharing relation must be
// observably indistinguishable.
type refSet map[string]Tuple

func refKey(t Tuple) string {
	b := make([]byte, 4*len(t))
	for i, v := range t {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(v))
	}
	return string(b)
}

func (s refSet) clone() refSet {
	out := make(refSet, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

func (s refSet) equal(t *testing.T, r *Relation, label string) {
	t.Helper()
	if r.Card() != len(s) {
		t.Fatalf("%s: card %d, reference %d", label, r.Card(), len(s))
	}
	for _, tp := range s {
		if !r.Has(tp) {
			t.Fatalf("%s: missing tuple %v", label, tp)
		}
	}
}

// frozenState captures everything observable about a snapshot so later
// mutations of descendants can be checked against it byte for byte.
type frozenState struct {
	rel  *Relation
	ref  refSet
	raw  []Value
	card int
	lay  layout // chunks, ids and dead bitmaps, by address and content
}

func capture(r *Relation, ref refSet) frozenState {
	return frozenState{rel: r, ref: ref, raw: r.RawData(), card: r.Card(), lay: captureLayout(r)}
}

func (f frozenState) check(t *testing.T, label string) {
	t.Helper()
	if f.rel.Card() != f.card {
		t.Fatalf("%s: frozen snapshot card changed %d → %d", label, f.card, f.rel.Card())
	}
	if !slices.Equal(f.rel.RawData(), f.raw) {
		t.Fatalf("%s: frozen snapshot arena changed", label)
	}
	f.lay.check(t, f.rel, label)
	f.ref.equal(t, f.rel, label)
}

// TestChunkedCloneObservablyDeepCopy is the differential property the
// persistent arena must preserve: mutating a clone of a frozen
// multi-chunk snapshot — crossing chunk boundaries, inserting
// duplicates, deleting — leaves the parent byte-identical, exactly as
// the old deep-copying Clone did.
func TestChunkedCloneObservablyDeepCopy(t *testing.T) {
	u := schema.NewUniverse()
	attrs := u.Set("a", "b", "c")
	rng := rand.New(rand.NewSource(42))

	parent := New(u, attrs)
	ref := refSet{}
	var first Tuple
	for i := 0; i < 3*ChunkRows/2; i++ { // spans two chunks, tail half full
		tp := Tuple{Value(i), Value(rng.Intn(1 << 20)), Value(i % 7)}
		parent.Insert(tp)
		ref[refKey(tp)] = tp
		if first == nil {
			first = tp
		}
	}
	parent.Freeze()
	snap := capture(parent, ref)

	clone := parent.Clone()
	if clone.Frozen() {
		t.Fatal("clone of frozen relation is frozen")
	}
	// White-box: full chunks are shared, not copied.
	if &clone.chunks[0].data[0] != &parent.chunks[0].data[0] {
		t.Error("clone copied a full chunk instead of sharing it")
	}
	if &clone.base[0] != &parent.base[0] {
		t.Error("clone of a frozen relation copied the base index")
	}

	cref := ref.clone()
	for i := 0; i < ChunkRows; i++ { // crosses a chunk boundary in the clone
		tp := Tuple{Value(1 << 22), Value(i), Value(i)}
		clone.Insert(tp)
		cref[refKey(tp)] = tp
	}
	clone.Insert(first) // duplicate of an early parent row: ignored
	snap.check(t, "after clone inserts")
	cref.equal(t, clone, "mutated clone")

	// Deleting from the clone (copy-on-write) must not touch either.
	var dels []Tuple
	for _, tp := range []Tuple{{1, 0, 0}, {1 << 22, 5, 5}} {
		for k, v := range cref {
			if v[0] == tp[0] {
				dels = append(dels, v)
				delete(cref, k)
			}
		}
	}
	shrunk, removed := clone.Without(dels)
	if removed != len(dels) {
		t.Fatalf("Without removed %d, want %d", removed, len(dels))
	}
	snap.check(t, "after Without")
	cref.equal(t, shrunk, "Without result")
}

// TestChunkedSnapshotLineage drives the engine's real write pattern —
// clone the frozen snapshot, apply a small batch, freeze, publish —
// across enough batches to cross chunk boundaries and force an overlay
// merge, holding every historical snapshot and checking at each step
// (and again at the end) that none of them ever changes.
func TestChunkedSnapshotLineage(t *testing.T) {
	u := schema.NewUniverse()
	attrs := u.Set("x", "y")
	rng := rand.New(rand.NewSource(7))

	cur := New(u, attrs)
	ref := refSet{}
	for i := 0; i < 10_000; i++ {
		tp := Tuple{Value(i), Value(rng.Intn(1 << 16))}
		cur.Insert(tp)
		ref[refKey(tp)] = tp
	}
	cur.Freeze()

	var history []frozenState
	history = append(history, capture(cur, ref))
	next := 10_000
	for batch := 0; batch < 64; batch++ {
		work := cur.Clone()
		ref = ref.clone()
		if batch%3 == 2 {
			// Delete a mix of old and recent rows — every published
			// snapshot from here on carries dead rows its successors
			// share — through Without and through DeleteBlock in turn,
			// and now and then enough of them to force a compaction.
			var dels []Tuple
			lo, hi := Value(0), Value(0)
			if batch%30 == 29 {
				lo, hi = Value(100*batch), Value(100*batch+4000)
			}
			for k, tp := range ref {
				if v := tp[0]; v == Value(batch) || v == Value(next-3) || (lo <= v && v < hi) {
					dels = append(dels, tp)
					delete(ref, k)
				}
			}
			if batch%2 == 0 {
				var removed int
				if work, removed = work.Without(dels); removed != len(dels) {
					t.Fatalf("batch %d: Without removed %d of %d", batch, removed, len(dels))
				}
			} else {
				var block []Value
				for _, tp := range dels {
					block = append(block, tp...)
				}
				if removed := work.DeleteBlock(block); removed != len(dels) {
					t.Fatalf("batch %d: DeleteBlock removed %d of %d", batch, removed, len(dels))
				}
			}
			// A deleted tuple inserted again is a fresh row.
			work.Insert(dels[0])
			ref[refKey(dels[0])] = dels[0]
		}
		for i := 0; i < 97; i++ {
			tp := Tuple{Value(next), Value(rng.Intn(1 << 16))}
			next++
			work.Insert(tp)
			ref[refKey(tp)] = tp
		}
		work.Freeze()
		cur = work
		history = append(history, capture(cur, ref))
		// Every earlier snapshot must still read exactly as captured.
		for i, h := range history {
			h.check(t, fmt.Sprintf("batch %d, snapshot %d", batch, i))
		}
	}
	if got := len(history); got != 65 {
		t.Fatalf("history length %d", got)
	}
}

// TestSemijoinSharesCleanPrefix pins the semijoin's copy-nothing
// contract: the full chunks before the first dropped row are shared with
// the input — same backing arrays, same durable ids — everything from
// that row's chunk on is repacked into private chunks, and appending to
// the result never writes into the input's arena. Each case runs with
// the key set as a bitmap (keys 0, 1, …) and as a keyTable (keys 1000
// apart, a span past the bitmap's budget).
func TestSemijoinSharesCleanPrefix(t *testing.T) {
	u := schema.NewUniverse()
	ab, a := u.Set("a", "b"), u.Set("a")
	ex := NewExec()
	for _, tc := range []struct {
		name string
		n    int
		drop int // row of r with no partner in s; -1 = every row survives
	}{
		{"first row", 2*ChunkRows + 100, 0},
		{"mid chunk", 2*ChunkRows + 100, ChunkRows + 50},
		{"chunk boundary", 2*ChunkRows + 100, ChunkRows},
		{"tail", 2*ChunkRows + 100, 2*ChunkRows + 50},
		{"never", 2*ChunkRows + 100, -1},
		{"never, no tail", 2 * ChunkRows, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, keys := range []struct {
				name  string
				scale Value
			}{{"bitmap", 1}, {"keyTable", 1000}} {
				t.Run(keys.name, func(t *testing.T) {
					r, s := New(u, ab), New(u, a)
					ref := refSet{}
					for i := 0; i < tc.n; i++ {
						row := Tuple{Value(i) * keys.scale, Value(i + 1)}
						r.Insert(row)
						if i != tc.drop {
							s.Insert(Tuple{row[0]})
							ref[refKey(row)] = row
						}
					}
					if _, _, dense := denseSpan(s, 0); dense != (keys.scale == 1) {
						t.Fatalf("key set of %d keys %d apart: bitmap %v", s.Card(), keys.scale, dense)
					}
					r.Freeze()
					frozen := capture(r, nil)

					out := ex.Semijoin(r, s)
					ref.equal(t, out, "semijoin")
					first := tc.drop
					if first < 0 {
						first = r.n
					}
					checkSharesPrefix(t, r, out, first)

					// Appends land in a private chunk, whatever the tail was.
					for i := 0; i < ChunkRows+10; i++ {
						row := Tuple{Value(-i - 1), Value(i)}
						out.Insert(row)
						ref[refKey(row)] = row
					}
					ref.equal(t, out, "semijoin + inserts")
					if r.Card() != frozen.card || !slices.Equal(r.RawData(), frozen.raw) {
						t.Fatal("appending to the semijoin result changed its input")
					}
				})
			}
		})
	}
}

// checkSharesPrefix fails unless out, a semijoin of r whose first dropped
// row (dead, or without a partner) is at position first — r.n when none
// is — shares with r exactly the full chunks wholly before first, same
// backing arrays and same ids, and holds only well-formed chunks: full
// ones with an id, a tail without.
func checkSharesPrefix(t *testing.T, r, out *Relation, first int) {
	t.Helper()
	for k := range out.chunks {
		oc, rc := out.chunks[k], r.chunks[k]
		aliased := len(oc.data) > 0 && &oc.data[0] == &rc.data[0]
		if shared := k < first>>chunkShift; shared != aliased || shared != (oc.id != 0 && oc.id == rc.id) {
			t.Errorf("chunk %d (first drop at %d): aliased %v, id %d vs the input's %d",
				k, first, aliased, oc.id, rc.id)
		}
		if rows := out.chunkRows(k); (rows == ChunkRows) != (oc.id != 0) || len(oc.data) != rows*out.width {
			t.Errorf("chunk %d: %d rows, %d values, id %d", k, rows, len(oc.data), oc.id)
		}
	}
}

// TestSemijoinFirstDropPositions walks the first dropped row of a
// semijoin across the chunk edges — where adoptPrefix copies no tail, a
// one-row tail, a tail one short of a chunk — with the drop a key miss, a
// dead row, or a key miss behind an earlier dead row, against the
// nested-loop reference (checkKernels); the chunks wholly before the
// first drop must be the input's own, ids included, and nothing after
// them may be. The key set is a bitmap (keys 0–6) and a keyTable (keys
// 1000 apart).
func TestSemijoinFirstDropPositions(t *testing.T) {
	u := schema.NewUniverse()
	ab, b := u.Set("a", "b"), u.Set("b")
	n := 2*ChunkRows + 100
	ex := NewExec()
	for _, pos := range []int{0, 1, ChunkRows - 1, ChunkRows, ChunkRows + 1, n - 1} {
		for _, tc := range []struct {
			name string
			miss int // position of a row whose key s lacks; -1 = none
			dead int // position of a deleted row; -1 = none
		}{
			{"key miss", pos, -1},
			{"dead row", -1, pos},
			{"key miss behind a dead row", pos, pos / 2},
		} {
			if tc.miss == tc.dead {
				continue // position 0 has nothing before it
			}
			t.Run(fmt.Sprintf("%s at %d", tc.name, pos), func(t *testing.T) {
				for _, scale := range []Value{1, 1000} {
					t.Run(fmt.Sprintf("keys %d apart", scale), func(t *testing.T) {
						// s lacks the key of r's row at miss and of every 97th row
						// after it, so the repack past the first drop both keeps
						// and drops rows across the later chunk edges.
						r, s := New(u, ab), New(u, b)
						for i := 0; i < n; i++ {
							k := Value(i%7) * scale
							if tc.miss >= 0 && (i == tc.miss || (i > tc.miss && i%97 == 0)) {
								k = -5
							}
							r.Insert(Tuple{Value(i), k})
						}
						for k := 0; k < 7; k++ {
							s.Insert(Tuple{Value(k) * scale})
						}
						if _, _, dense := denseSpan(s, 0); dense != (scale == 1) {
							t.Fatalf("key set of keys %d apart: bitmap %v", scale, dense)
						}
						first := n
						if tc.miss >= 0 {
							first = tc.miss
						}
						if tc.dead >= 0 {
							r, _ = r.Without([]Tuple{slices.Clone(r.row(tc.dead))})
							if r.dead != 1 || !r.isDead(tc.dead) {
								t.Fatalf("row %d is not dead in place (%d dead rows)", tc.dead, r.dead)
							}
							first = min(first, tc.dead)
						}
						r.Freeze()
						checkKernels(t, "r, s", ex, r, s, b)
						checkSharesPrefix(t, r, ex.Semijoin(r, s), first)
					})
				}
			})
		}
	}
}

// TestFirstMembershipUseIsRaceFree shares one frozen, still index-free
// operator output among many goroutines, each of which makes what may be
// the first membership call on it — Has, Equal on either side, Clone,
// the identity Renamed view — while others run operators over it. The
// index must be built exactly once with every caller seeing it complete;
// run under -race in CI.
func TestFirstMembershipUseIsRaceFree(t *testing.T) {
	u := schema.NewUniverse()
	ab, bc := u.Set("a", "b"), u.Set("b", "c")
	r, s := New(u, ab), New(u, bc)
	n := 2*ChunkRows + 100
	for i := 0; i < n; i++ {
		r.Insert(Tuple{Value(i), Value(i % 97)})
		if i%97 != 5 {
			s.Insert(Tuple{Value(i % 97), Value(i % 3)})
		}
	}
	r.Freeze()
	s.Freeze()
	for name, mk := range map[string]func() *Relation{
		"join":     func() *Relation { return NewExec().Join(r, s) },
		"semijoin": func() *Relation { return NewExec().Semijoin(r, s) },
		"project":  func() *Relation { return NewExec().Project(r, u.Set("b")) },
	} {
		t.Run(name, func(t *testing.T) {
			want := mk().Clone() // an indexed twin
			out := mk()
			out.Freeze()
			attrs := out.Attrs()
			id := make([]int, attrs.Card())
			for k := range id {
				id[k] = k
			}
			probe := out.TupleAt(out.Card() - 1)
			uses := []func() bool{
				func() bool { return out.Has(probe) },
				func() bool { return want.Equal(out) },
				func() bool { return out.Equal(want) },
				func() bool {
					c := out.Clone()
					c.Insert(probe)
					return c.Card() == want.Card()
				},
				func() bool { return out.Renamed(u, attrs, id).Has(probe) },
				func() bool { return NewExec().Semijoin(out, out).Card() == want.Card() },
				func() bool { return NewExec().Join(out, out).Card() == want.Card() },
				func() bool { return NewExec().Project(out, attrs).Card() == want.Card() },
			}
			start := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 4*len(uses); g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					if !uses[g%len(uses)]() {
						t.Errorf("use %d saw a wrong answer", g%len(uses))
					}
				}()
			}
			close(start)
			wg.Wait()
		})
	}
}

// TestSiblingClonesDoNotShareTailCapacity: two clones derived from the
// same frozen snapshot share the non-full tail chunk read-only, but
// their first appends must reallocate privately — if both wrote into
// the shared backing array's spare capacity they would silently
// overwrite each other's rows. (Database.InsertTuple twice on one
// frozen snapshot is exactly this shape.)
func TestSiblingClonesDoNotShareTailCapacity(t *testing.T) {
	u := schema.NewUniverse()
	attrs := u.Set("a", "b")
	parent := New(u, attrs)
	for i := 0; i < 10; i++ { // tail chunk far from full, spare capacity
		parent.Insert(Tuple{Value(i), Value(i)})
	}
	parent.Freeze()

	c1 := parent.Clone()
	c1.Insert(Tuple{100, 101})
	c2 := parent.Clone()
	c2.Insert(Tuple{200, 201})
	if got := c1.TupleAt(10); got[0] != 100 || got[1] != 101 {
		t.Errorf("sibling clone overwrote c1's row: %v", got)
	}
	if got := c2.TupleAt(10); got[0] != 200 || got[1] != 201 {
		t.Errorf("c2's own row wrong: %v", got)
	}
	if c1.Has(Tuple{200, 201}) || c2.Has(Tuple{100, 101}) {
		t.Error("sibling clones leaked rows into each other")
	}
	if parent.Card() != 10 || parent.Has(Tuple{100, 101}) || parent.Has(Tuple{200, 201}) {
		t.Error("parent disturbed by sibling clone appends")
	}

	// Same shape through the Database copy-on-write API.
	d := schema.MustParse(u, "ab")
	db := &Database{D: d, Rels: []*Relation{parent}}
	db.Freeze()
	dbA := db.InsertTuple(0, Tuple{300, 301})
	dbB := db.InsertTuple(0, Tuple{400, 401})
	if !dbA.Rels[0].Has(Tuple{300, 301}) || dbA.Rels[0].Has(Tuple{400, 401}) {
		t.Error("InsertTuple siblings interfered (A)")
	}
	if !dbB.Rels[0].Has(Tuple{400, 401}) || dbB.Rels[0].Has(Tuple{300, 301}) {
		t.Error("InsertTuple siblings interfered (B)")
	}
}

// TestOverlayMergeRebuildsOwnedBase pins the index lifecycle: a clone
// of a frozen relation starts on the shared base + private overlay,
// and once the overlay outgrows its bound it merges into a fresh owned
// table — without ever touching the ancestor's table.
func TestOverlayMergeRebuildsOwnedBase(t *testing.T) {
	u := schema.NewUniverse()
	attrs := u.Set("a", "b")
	parent := New(u, attrs)
	for i := 0; i < 500; i++ {
		parent.Insert(Tuple{Value(i), Value(i)})
	}
	parent.Freeze()
	parentBase := parent.base

	c := parent.Clone()
	if c.baseOwned {
		t.Fatal("clone of frozen relation owns its base table")
	}
	for i := 0; i < ChunkRows+100; i++ { // past the overlay bound
		c.Insert(Tuple{Value(1 << 20), Value(i)})
	}
	if !c.baseOwned {
		t.Error("overlay never merged into an owned base")
	}
	if c.over != nil {
		t.Error("overlay survived the merge")
	}
	if &parent.base[0] != &parentBase[0] || parent.Card() != 500 {
		t.Error("merge disturbed the ancestor")
	}
	if c.Card() != 500+ChunkRows+100 {
		t.Errorf("clone card %d", c.Card())
	}
	// Post-merge lookups still see both old and new rows.
	if !c.Has(Tuple{3, 3}) || !c.Has(Tuple{1 << 20, 7}) || c.Has(Tuple{9, 8}) {
		t.Error("post-merge lookups wrong")
	}
}

// TestMergedIndexFindsLiveRows follows a copy-on-write lineage (freeze,
// clone, write) through interleaved insert batches, delete batches and
// the compactions they trigger, and after every step checks that the
// set index names each live row exactly once and finds exactly the live
// tuples — across overlay merges that copy the base table and place only
// the overlay's rows, and merges and compactions that rebuild it.
func TestMergedIndexFindsLiveRows(t *testing.T) {
	u := schema.NewUniverse()
	r := New(u, u.Set("a", "b"))
	rng := rand.New(rand.NewSource(1))
	live := map[[2]Value]bool{} // every tuple the lineage wrote: is it live?
	card := 0
	var next Value
	var dead [][2]Value // deleted tuples, re-inserted now and then
	copies, rebuilds := 0, 0
	for step := 0; step < 90; step++ {
		r.Freeze()
		r = r.Clone()
		before, compactions := r.base, r.Compactions()
		block := []Value{}
		if step%3 == 2 {
			for k, in := range live {
				if len(block) == 2*300 {
					break
				}
				if in {
					block = append(block, k[0], k[1])
					live[k] = false
					dead = append(dead, k)
					card--
				}
			}
			r.DeleteBlock(block)
		} else {
			for j := 0; j < 500; j++ {
				k := [2]Value{next, Value(rng.Intn(1000))}
				next++
				if j%10 == 0 && len(dead) > 0 {
					k, dead = dead[len(dead)-1], dead[:len(dead)-1]
				}
				block = append(block, k[0], k[1])
				live[k] = true
				card++
			}
			r.InsertBlock(block)
			if merged := len(before) > 0 && &r.base[0] != &before[0]; merged && r.Compactions() == compactions {
				if len(r.base) == len(before) {
					copies++
				} else {
					rebuilds++
				}
			}
		}
		seen := make([]bool, r.n)
		for _, table := range [][]int32{r.base, r.over} {
			for _, s := range table {
				if i := int(s) - 1; s != 0 && !r.isDead(i) {
					if seen[i] {
						t.Fatalf("step %d: row %d indexed twice", step, i)
					}
					seen[i] = true
				}
			}
		}
		for i := r.nextLive(0); i < r.n; i = r.nextLive(i + 1) {
			if !seen[i] {
				t.Fatalf("step %d: live row %d not indexed", step, i)
			}
		}
		if r.Card() != card {
			t.Fatalf("step %d: card %d, want %d", step, r.Card(), card)
		}
		for k, in := range live {
			if r.Has(Tuple{k[0], k[1]}) != in {
				t.Fatalf("step %d: Has(%v) = %v", step, k, !in)
			}
		}
	}
	if copies == 0 || rebuilds == 0 || r.Compactions() == 0 {
		t.Errorf("lineage ran %d copying merges, %d rebuilding merges and %d compactions; want each", copies, rebuilds, r.Compactions())
	}
}

// TestInsertBlockDedups covers the bulk-insert mirror of Insert used by
// WAL replay and batch apply.
func TestInsertBlockDedups(t *testing.T) {
	u := schema.NewUniverse()
	r := New(u, u.Set("a", "b"))
	if got := r.InsertBlock([]Value{1, 2, 3, 4, 1, 2}); got != 2 {
		t.Fatalf("InsertBlock added %d, want 2", got)
	}
	if got := r.InsertBlock([]Value{3, 4, 5, 6}); got != 1 {
		t.Fatalf("second InsertBlock added %d, want 1", got)
	}
	if r.Card() != 3 {
		t.Fatalf("card %d, want 3", r.Card())
	}
	defer func() {
		if recover() == nil {
			t.Error("ragged InsertBlock did not panic")
		}
	}()
	r.InsertBlock([]Value{9})
}

// FuzzArenaChunks round-trips random arenas through the chunked layout:
// build → RawData → FromArena must be an identity on the tuple set, and
// mutating a clone — inserts, deletes, deletes of what was just
// inserted, re-inserts of what was just deleted, as the bytes of raw
// dictate — must track a map oracle and never disturb the frozen
// original. Runs in the CI fuzz-smoke lane.
func FuzzArenaChunks(f *testing.F) {
	f.Add(uint8(2), uint16(5), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add(uint8(1), uint16(3000), []byte{0xff, 0x01})
	f.Add(uint8(3), uint16(0), []byte{})
	f.Add(uint8(2), uint16(5000), []byte{1, 5, 9, 13, 2, 2, 6, 3, 1, 1, 1, 7, 250, 251})
	f.Fuzz(func(t *testing.T, w uint8, rows uint16, raw []byte) {
		width := int(w)%4 + 1
		n := int(rows) % 6000
		u := schema.NewUniverse()
		names := []string{"a", "b", "c", "d"}
		attrs := u.Set(names[:width]...)

		data := make([]Value, n*width)
		for i := range data {
			if len(raw) > 0 {
				data[i] = Value(raw[i%len(raw)]) * Value(i%257)
			}
		}
		loaded, err := FromArena(u, attrs, n, data)
		if err != nil {
			t.Fatal(err)
		}
		// The same properties must hold for an operator output, whose set
		// index does not exist until Equal / Clone ask for it.
		for _, r := range []*Relation{loaded, indexFree(loaded)} {
			round, err := FromArena(u, attrs, r.Card(), r.RawData())
			if err != nil {
				t.Fatal(err)
			}
			if !round.Equal(r) {
				t.Fatalf("RawData round trip lost tuples: %d vs %d", round.Card(), r.Card())
			}

			r.Freeze()
			before := captureLayout(r)
			clone := r.Clone()
			ref := refSet{}
			for _, tp := range r.Tuples() {
				ref[refKey(tp)] = tp
			}
			var last Tuple // the tuple the previous opcode inserted or deleted
			for i, op := range raw[:min(len(raw), 512)] {
				switch {
				case op%4 == 0: // insert a tuple no arena holds
					last = make(Tuple, width)
					for j := range last {
						last[j] = Value(i*width + j + 1<<20)
					}
				case op%4 == 1 && clone.Card() > 0: // delete the tuple at a live index
					last = slices.Clone(clone.TupleAt(int(op) * 131 % clone.Card()))
				case op%4 == 2 && clone.Card() > 0: // delete a run of live tuples in one block
					lo := int(op) * 61 % clone.Card()
					var block []Value
					for k := lo; k < min(lo+int(op), clone.Card()); k++ {
						tp := clone.TupleAt(k)
						block = append(block, tp...)
						delete(ref, refKey(tp))
					}
					if got := clone.DeleteBlock(block); got != len(block)/width {
						t.Fatalf("op %d: DeleteBlock removed %d of %d", i, got, len(block)/width)
					}
					continue
				}
				if last == nil {
					continue
				}
				// Opcodes 0, 1 and 3 toggle last: 3 undoes whatever came before it.
				if _, present := ref[refKey(last)]; present {
					if got := clone.DeleteBlock(last); got != 1 {
						t.Fatalf("op %d: DeleteBlock(%v) removed %d", i, last, got)
					}
					delete(ref, refKey(last))
				} else {
					clone.Insert(last)
					ref[refKey(last)] = last
				}
			}
			ref.equal(t, clone, "mutated clone")
			if clone.dead > clone.Card()/compactDiv {
				t.Fatalf("%d dead rows beside %d live ones", clone.dead, clone.Card())
			}
			again, err := FromArena(u, attrs, clone.Card(), clone.RawData())
			if err != nil || !again.Equal(clone) || !clone.Equal(again) {
				t.Fatalf("RawData round trip of the mutated clone: %v", err)
			}
			before.check(t, r, "mutating the clone")
			if r.Card() != n-dupCount(data, width, n) {
				t.Fatal("mutating the clone changed the frozen original")
			}
		}
	})
}

// indexFree returns r's rows, in order, as an operator output: a
// relation that has no set index until something asks it for
// membership.
func indexFree(r *Relation) *Relation { return NewExec().Project(r, r.Attrs()) }

// dupCount counts duplicate rows in a row-major arena (the rows
// FromArena's set semantics eliminate).
func dupCount(data []Value, width, rows int) int {
	seen := map[string]bool{}
	dups := 0
	for i := 0; i < rows; i++ {
		k := refKey(Tuple(data[i*width : (i+1)*width]))
		if seen[k] {
			dups++
		}
		seen[k] = true
	}
	return dups
}
