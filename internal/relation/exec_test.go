package relation

import (
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
	got, rows := ex.JoinProject(r, s, ac, Budget{})
	if rows != joined || got.Card() != want.Card() {
		t.Fatalf("streamed join→project: %d rows from %d joined, want %d from %d", got.Card(), rows, want.Card(), joined)
	}
	if got, _ := ex.JoinFilter(r, s, s, Budget{}); got.Card() != joined {
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
// rare to draw: a group whose rows share one home slot, so each is
// entered past the one before. The next group must find every slot empty
// and every one of those rows unseen.
func TestGroupTableEmptiesBetweenGroups(t *testing.T) {
	u := schema.NewUniverse()
	out := New(u, u.Set("a"))
	own := []int{0}
	ks := new(keyScratch)
	d := groupDedup{keyTable: ks.table(out, own, groupRows, groupRows), ks: ks}
	home := func(v Value) uint64 { return keySlot(keyWord(Tuple{v}, own), d.shift) }
	var crowd []Value // values sharing 0's home slot
	for v := Value(0); len(crowd) < 4; v++ {
		if home(v) == home(0) {
			crowd = append(crowd, v)
		}
	}
	for group := range 2 {
		d.start()
		if j := slices.IndexFunc(d.slots, func(s int32) bool { return s != 0 }); j >= 0 {
			t.Fatalf("group %d starts with slot %d naming row %d", group, j, d.slots[j]-1)
		}
		for _, v := range crowd {
			if d.seen(Tuple{v}, own) {
				t.Fatalf("group %d: %d seen before it was entered", group, v)
			}
			out.appendRow(Tuple{v}, hashValues(Tuple{v}))
			if !d.seen(Tuple{v}, own) {
				t.Fatalf("group %d: %d not seen after it was entered", group, v)
			}
		}
	}
}

// TestFoldedKeyIsVerified forges what 64 bits make too rare to draw: two
// different three-column keys with one key word. The build row's word is
// overwritten with the probe row's and its slot moved to match, so only
// the column-by-column check can tell the keys apart; a two-column key,
// being its own word, never gets that far.
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
}
