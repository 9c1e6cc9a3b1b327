package relation

import (
	"math/bits"
	"reflect"
	"slices"
	"testing"

	"gyokit/internal/schema"
)

// TestExecScratchBudget pins what a pooled Exec retains after the
// operators ran over n-row operands: per key table one slot table (4 B
// per slot), one key word per row (8 B) and one chain link per row
// (4 B); JoinProject's group-local table, the same layout without
// chains; and the handful of per-column buffers. Join, Semijoin and
// Project use one key table — Project's words sized by its operand's
// rows, like a build side's — and a streamed join a second, over its
// probe side or its filter — so a join→project retains less than the two
// statements it replaces, whose projection sizes a table by |r ⋈ s|. It
// sums cap × element size over every slice field by reflection, struct
// fields included, so scratch added later — a fourth table, a word per
// slot — is counted without being listed here.
func TestExecScratchBudget(t *testing.T) {
	const n = 50000
	u := schema.NewUniverse()
	r, s := New(u, u.Set("a", "b")), New(u, u.Set("b", "c"))
	for i := 0; i < n; i++ {
		r.Insert(Tuple{Value(i), Value(i % 5000)})
		s.Insert(Tuple{Value(i % 5000), Value(i)})
	}
	const joined = n * n / 5000
	ac := u.Set("a", "c")
	ex := NewExec()
	if got := ex.Semijoin(r, s).Card(); got != n {
		t.Fatalf("semijoin kept %d of %d rows", got, n)
	}
	if got := ex.Project(r, u.Set("b")).Card(); got != 5000 {
		t.Fatalf("projection has %d rows, want 5000", got)
	}
	if got := ex.Join(r, ex.Semijoin(s, r)).Card(); got != joined {
		t.Fatalf("join has %d rows, want %d", got, joined)
	}
	const perColumn = 1 << 10 // obuf, pos, srcs: a few words per column
	if budget := 4*tableSize(n) + 8*n + 4*n + perColumn; retained(t, ex) > budget {
		t.Fatalf("Exec retains %d B after %d-row operators, budget %d B (4 B × %d slots + 12 B × %d build rows + %d)",
			retained(t, ex), n, budget, tableSize(n), n, perColumn)
	}

	twoStmt := NewExec()
	want := twoStmt.Project(twoStmt.Join(r, s), ac)
	got, card, rows := ex.JoinProject(r, s, ac, All, Budget{})
	if rows != joined || got.Card() != want.Card() || card != want.Card() {
		t.Fatalf("streamed join→project: %d rows (%d counted) from %d joined, want %d from %d", got.Card(), card, rows, want.Card(), joined)
	}
	if got, _, _ := ex.JoinFilter(r, s, s, All, Budget{}); got.Card() != joined {
		t.Fatalf("streamed join→filter by s kept %d rows, want %d", got.Card(), joined)
	}
	local := 4*tableSize(groupRows) + 8*groupRows // a group table that never grew
	budget := 2*(4*tableSize(n)+8*n+4*n) + local + perColumn
	if retained(t, ex) > budget {
		t.Fatalf("Exec retains %d B after streamed joins of %d-row operands, budget %d B (2 × (4 B × %d slots + 12 B × %d rows) + %d B local + %d)",
			retained(t, ex), n, budget, tableSize(n), n, local, perColumn)
	}
	if two := retained(t, twoStmt); two < 4*tableSize(joined) || budget >= two {
		t.Fatalf("join then project retains %d B (a %d-slot projection table), the streamed budget %d B", two, tableSize(joined), budget)
	}

	// Counted forms store k rows' worth of chunk, whatever they count. π_a
	// keeps no column of the probe side, bc, so its one group holds all n
	// distinct keys: the group table grows to them, and no further.
	const k = 10
	capRows := func(rel *Relation) int {
		rows := 0
		for _, c := range rel.chunks {
			rows += cap(c.data) / rel.width
		}
		return rows
	}
	if first, card := ex.JoinFirst(r, s, k, Budget{}); card != joined || first.Card() != k || capRows(first) > k {
		t.Fatalf("counted join: %d of %d rows kept, room for %d; want %d of %d, room for ≤ %d", first.Card(), card, capRows(first), k, joined, k)
	}
	proj, card, rows := ex.JoinProject(r, s, u.Set("a"), k, Budget{})
	if card != n || rows != joined || proj.Card() != k || capRows(proj) > k {
		t.Fatalf("counted join→project: %d of %d rows kept from %d joined, room for %d; want %d of %d from %d, room for ≤ %d",
			proj.Card(), card, rows, capRows(proj), k, n, joined, k)
	}
	grown := groupRows
	for grown < n {
		grown *= 2
	}
	if len(ex.local.words) != grown {
		t.Fatalf("the group table holds %d words after a group of %d keys, want %d", len(ex.local.words), n, grown)
	}
	local = 4*tableSize(grown) + 8*grown
	budget = 2*(4*tableSize(n)+8*n+4*n) + local + perColumn
	if retained(t, ex) > budget {
		t.Fatalf("Exec retains %d B after a counted join→project whose group has %d keys, budget %d B (2 × (4 B × %d slots + 12 B × %d rows) + %d B local + %d)",
			retained(t, ex), n, budget, tableSize(n), n, local, perColumn)
	}
}

// retained sums cap × element size over every slice field of ex,
// descending into struct fields; any other kind fails the test.
func retained(t *testing.T, ex *Exec) int {
	t.Helper()
	var sum func(v reflect.Value, path string) int
	sum = func(v reflect.Value, path string) int {
		total := 0
		for i := 0; i < v.NumField(); i++ {
			f, name := v.Field(i), path+"."+v.Type().Field(i).Name
			switch f.Kind() {
			case reflect.Slice:
				total += f.Cap() * int(f.Type().Elem().Size())
			case reflect.Struct:
				total += sum(f, name)
			default:
				t.Fatalf("%s is a %s: count what it retains here", name, f.Kind())
			}
		}
		return total
	}
	return sum(reflect.ValueOf(ex).Elem(), "Exec")
}

// TestGroupTableEmptiesBetweenGroups forges what a group table makes too
// rare to draw: a group whose keys share one home slot, so each is
// entered past the one before. The next group must find every slot empty,
// every one of those keys unseen — for a key of more than two columns,
// verified against the group's own copy of its columns, too — and no key
// held.
func TestGroupTableEmptiesBetweenGroups(t *testing.T) {
	u := schema.NewUniverse()
	for _, h := range []schema.AttrSet{u.Set("a"), u.Set("a", "b", "c")} {
		cols := h.Attrs()
		d := new(keyScratch).groupDedup(len(cols))
		pos := d.pos
		key := func(v Value) Tuple { // v, then zeros
			row := make(Tuple, len(cols))
			row[0] = v
			return row
		}
		home := func(v Value) uint64 { return keySlot(keyWord(key(v), pos), d.shift) }
		var crowd []Value // values sharing 0's home slot
		for v := Value(0); len(crowd) < 4; v++ {
			if home(v) == home(0) {
				crowd = append(crowd, v)
			}
		}
		for group := range 2 {
			d.start()
			if j := slices.IndexFunc(d.slots, func(s int32) bool { return s != 0 }); j >= 0 {
				t.Fatalf("%d columns, group %d starts with slot %d naming key %d", len(cols), group, j, d.slots[j]-1)
			}
			if d.n != 0 {
				t.Fatalf("%d columns, group %d starts with %d keys held", len(cols), group, d.n)
			}
			for _, v := range crowd {
				if d.seen(key(v), pos) {
					t.Fatalf("%d columns, group %d: %d seen before it was entered", len(cols), group, v)
				}
				if !d.seen(key(v), pos) {
					t.Fatalf("%d columns, group %d: %d not seen after it was entered", len(cols), group, v)
				}
			}
		}
	}
}

// TestWideGroupKeysReuseScratch: JoinProject keeps the columns of a group
// key wider than two in the Exec's scratch, so once warm it allocates no
// more for three-column keys than for two. k = 0 keeps the output empty,
// so the two runs differ only in their group tables.
func TestWideGroupKeysReuseScratch(t *testing.T) {
	op := decodeOperands(streamSeeds["inexact"])
	u := op.r.U
	wide, narrow := op.x, op.x.Diff(u.Set("c"))
	if h := wide.Diff(op.s.attrs); h.Card() != 3 || !h.SubsetOf(op.r.attrs) || op.s.Card() < op.r.Card() {
		t.Fatalf("seed: x %s, r %s built, want three build-side columns in x", wide.Key(), u.FormatSet(op.r.attrs))
	}
	ex := NewExec()
	allocs := func(x schema.AttrSet) float64 {
		return testing.AllocsPerRun(20, func() { ex.JoinProject(op.r, op.s, x, 0, Budget{}) })
	}
	if w, n := allocs(wide), allocs(narrow); w > n {
		t.Fatalf("JoinProject allocates %.0f times with three-column group keys, %.0f with two", w, n)
	}
}

// TestFoldedKeyIsVerified forges what 64 bits make too rare to draw: two
// different three-column keys with one key word. The build row's word is
// overwritten with the probe row's and its slot moved to match, so only
// the column-by-column check can tell the keys apart; a two-column key,
// being its own word, never gets that far. The set index keys a row the
// same way, on all its columns, so the same forgery — the stranger's home
// slot naming s's row — must not make Has or Insert take one for the
// other.
func TestFoldedKeyIsVerified(t *testing.T) {
	u := schema.NewUniverse()
	s := New(u, u.Set("a", "b", "c"))
	s.Insert(Tuple{1, 2, 3})
	pos := []int{0, 1, 2}
	stranger := Tuple{4, 5, 6}
	kt := new(keyScratch).buildKeys(s, pos, false)
	if kt.exact || kt.lookup(Tuple{1, 2, 3}, pos) != 1 || kt.lookup(stranger, pos) != 0 {
		t.Fatalf("before the forgery: exact %v, own key → %d, other key → %d",
			kt.exact, kt.lookup(Tuple{1, 2, 3}, pos), kt.lookup(stranger, pos))
	}
	clear(kt.slots)
	kt.words[0] = keyWord(stranger, pos)
	kt.slots[keySlot(kt.words[0], kt.shift)] = 1
	if got := kt.lookup(stranger, pos); got != 0 {
		t.Fatalf("a key that only shares the build row's word found row %d", got)
	}

	clear(s.base)
	s.base[keySlot(keyWord(stranger, s.all), uint(64-bits.TrailingZeros(uint(len(s.base)))))] = 1
	if s.Has(stranger) {
		t.Fatal("the set index took a row that only sits in the stranger's home slot for it")
	}
	if s.Insert(stranger); s.Card() != 2 || !s.Has(stranger) {
		t.Fatalf("inserting the stranger past the forged slot: card %d, has %v", s.Card(), s.Has(stranger))
	}
}
