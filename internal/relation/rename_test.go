package relation

import (
	"slices"
	"sync"
	"testing"

	"gyokit/internal/schema"
)

func TestRenamedPermutes(t *testing.T) {
	u := schema.NewUniverse()
	ab := u.Set("a", "b")
	r := New(u, ab)
	r.Insert(Tuple{1, 2})
	r.Insert(Tuple{3, 4})

	// Swap the columns onto fresh attribute names.
	xy := u.Set("x", "y")
	out := r.Renamed(u, xy, []int{1, 0})
	if out.Card() != r.Card() {
		t.Fatalf("renamed card = %d, want %d", out.Card(), r.Card())
	}
	if !out.Attrs().Equal(xy) {
		t.Errorf("renamed attrs = %s, want %s", u.FormatSet(out.Attrs()), u.FormatSet(xy))
	}
	for _, want := range []Tuple{{2, 1}, {4, 3}} {
		if !out.Has(want) {
			t.Errorf("renamed relation missing permuted tuple %v:\n%v", want, out)
		}
	}
	// The permuted copy is hash-consistent: inserting an existing row is
	// a no-op.
	before := out.Card()
	out.Insert(Tuple{2, 1})
	if out.Card() != before {
		t.Error("permuted relation accepted a duplicate: hashes are inconsistent")
	}
}

func TestRenamedIdentitySharesFrozen(t *testing.T) {
	u := schema.NewUniverse()
	r := New(u, u.Set("a", "b"))
	for i := 0; i < 3*ChunkRows; i++ {
		r.Insert(Tuple{Value(i), Value(i + 1)})
	}
	r.Freeze()

	out := r.Renamed(u, u.Set("x", "y"), []int{0, 1})
	if !out.Frozen() {
		t.Error("identity rename of a frozen relation is not frozen")
	}
	if out.Card() != r.Card() {
		t.Fatalf("card = %d, want %d", out.Card(), r.Card())
	}
	// Zero-copy: the view shares the source's chunk arenas.
	if len(out.chunks) != len(r.chunks) || &out.chunks[0].data[0] != &r.chunks[0].data[0] {
		t.Error("identity rename of a frozen relation copied the arena")
	}
	for i := 0; i < out.Card(); i += ChunkRows / 2 {
		want := r.TupleAt(i)
		if !out.Has(want) {
			t.Errorf("view missing tuple %v", want)
		}
	}
	// A clone of the view (the COW write path) must not disturb the
	// original.
	cl := out.Clone()
	cl.Insert(Tuple{-1, -2})
	if r.Has(Tuple{-1, -2}) || out.Has(Tuple{-1, -2}) {
		t.Error("writing a clone of the view leaked into the shared base")
	}
}

// storedWithOverlay returns a frozen relation as the write path leaves
// one: a base table inherited from an earlier snapshot, an overlay for
// the rows inserted since, and dead rows in a full chunk and in the tail.
func storedWithOverlay(u *schema.Universe) *Relation {
	base := New(u, u.Set("a", "b"))
	for i := 0; i < ChunkRows+500; i++ {
		base.Insert(Tuple{Value(i), Value(i + 1)})
	}
	base.Freeze()
	r := base.Clone()
	for i := 0; i < 200; i++ {
		r.Insert(Tuple{Value(-1 - i), Value(i)})
	}
	r.DeleteBlock([]Value{7, 8, ChunkRows + 7, ChunkRows + 8, -3, 2})
	r.Freeze()
	return r
}

// TestRenamedIdentitySharesOverlay: the identity view of a frozen
// relation copies nothing per bind — chunk table, dead bitmaps, base
// table and overlay are the source's own — and a Clone of the view still
// writes to an overlay and bitmaps of its own.
func TestRenamedIdentitySharesOverlay(t *testing.T) {
	u := schema.NewUniverse()
	r := storedWithOverlay(u)
	if len(r.over) == 0 || r.dead != 3 {
		t.Fatalf("fixture has %d overlay slots and %d dead rows", len(r.over), r.dead)
	}
	before := captureLayout(r)
	overBefore := append([]int32(nil), r.over...)

	view := r.Renamed(u, u.Set("x", "y"), []int{0, 1})
	if &view.chunks[0] != &r.chunks[0] || &view.base[0] != &r.base[0] || &view.over[0] != &r.over[0] {
		t.Error("identity view copied the chunk table, the base table or the overlay")
	}
	if view.chunks[0].dead != r.chunks[0].dead || view.chunks[1].dead != r.chunks[1].dead {
		t.Error("identity view copied a dead bitmap")
	}
	if view.Card() != r.Card() || view.Has(Tuple{7, 8}) || view.Has(Tuple{-3, 2}) || !view.Has(Tuple{-4, 3}) || !view.Has(Tuple{9, 10}) {
		t.Errorf("identity view reads differently from its source (card %d vs %d)", view.Card(), r.Card())
	}
	if n := testing.AllocsPerRun(10, func() { r.Renamed(u, view.attrs, []int{0, 1}) }); n > 4 {
		t.Errorf("binding an identity view allocates %v objects", n)
	}

	cl := view.Clone()
	cl.Insert(Tuple{1 << 20, 1})                // into the overlay
	cl.Insert(Tuple{7, 8})                      // a tuple the view holds dead
	cl.DeleteBlock([]Value{-4, 3, 9, 10, 0, 1}) // tail, and a chunk that already has a bitmap
	if &cl.over[0] == &r.over[0] {
		t.Error("a Clone of the view wrote to the shared overlay")
	}
	if cl.chunks[0].dead == r.chunks[0].dead || cl.chunks[1].dead == r.chunks[1].dead {
		t.Error("a Clone of the view wrote to a shared dead bitmap")
	}
	if cl.Card() != r.Card()+2-3 || !cl.Has(Tuple{7, 8}) || cl.Has(Tuple{9, 10}) {
		t.Errorf("clone of the view: card %d, want %d", cl.Card(), r.Card()-1)
	}
	if !slices.Equal(r.over, overBefore) {
		t.Error("the source's overlay changed")
	}
	before.check(t, r, "after writing a Clone of the view")
	if view.Has(Tuple{1 << 20, 1}) || view.Has(Tuple{7, 8}) || !view.Has(Tuple{9, 10}) || view.Card() != r.Card() {
		t.Error("writes to a Clone of the view show through the view")
	}
}

// TestRenamedBindVsWriteRace binds identity views of one published
// relation and reads through them on several goroutines while others
// derive, write and freeze successors of it — the engine's bind-versus-
// Apply pattern. Nothing a view shares is ever written; run under -race.
func TestRenamedBindVsWriteRace(t *testing.T) {
	u := schema.NewUniverse()
	r := storedWithOverlay(u)
	xy, card := u.Set("x", "y"), r.Card()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() { // reader: bind, probe, scan
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v := r.Renamed(u, xy, []int{0, 1})
				if v.Card() != card || !v.Has(Tuple{9, 10}) || v.Has(Tuple{7, 8}) {
					t.Error("a view read a state its source never had")
					return
				}
				if got := NewExec().Semijoin(v, v).Card(); got != card {
					t.Errorf("semijoin over a view: %d tuples, want %d", got, card)
					return
				}
			}
		}()
		go func(g int) { // writer: clone (of the relation or of a view of it), insert, delete, freeze
			defer wg.Done()
			for i := 0; i < 200; i++ {
				w := r.Clone()
				if i%2 == 1 {
					w = r.Renamed(u, xy, []int{0, 1}).Clone()
				}
				v := Value(1<<20 + g*1000 + i)
				w.Insert(Tuple{v, v})
				if got := w.DeleteBlock([]Value{v, v, 9, 10, -5, 4}); got != 3 {
					t.Errorf("writer removed %d rows, want 3", got)
					return
				}
				w.Freeze()
			}
		}(g)
	}
	wg.Wait()
}

func TestRenamedIdentityUnfrozenCopies(t *testing.T) {
	u := schema.NewUniverse()
	r := New(u, u.Set("a", "b"))
	r.Insert(Tuple{1, 2})

	out := r.Renamed(u, u.Set("x", "y"), []int{0, 1})
	out.Insert(Tuple{7, 8})
	if r.Has(Tuple{7, 8}) {
		t.Error("identity rename of an unfrozen relation shares storage")
	}
}

func TestRenamedPanics(t *testing.T) {
	u := schema.NewUniverse()
	r := New(u, u.Set("a", "b"))
	r.Insert(Tuple{1, 2})

	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("width mismatch", func() { r.Renamed(u, u.Set("x"), []int{0}) })
	expectPanic("src length mismatch", func() { r.Renamed(u, u.Set("x", "y"), []int{0}) })
	expectPanic("src out of range", func() { r.Renamed(u, u.Set("x", "y"), []int{0, 2}) })
}
