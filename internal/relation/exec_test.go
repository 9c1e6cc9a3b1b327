package relation

import (
	"reflect"
	"testing"

	"gyokit/internal/schema"
)

// TestExecScratchBudget pins what a pooled Exec retains after the three
// operators ran over n-row operands: one slot table (4 B per slot), one
// key word per build row (8 B) and one chain link per build row (4 B),
// plus the handful of per-column buffers. It sums cap × element size
// over every slice field by reflection, so scratch added later — a
// second table, a word per slot — is counted without being listed here.
func TestExecScratchBudget(t *testing.T) {
	const n = 50000
	u := schema.NewUniverse()
	r, s := New(u, u.Set("a", "b")), New(u, u.Set("b", "c"))
	for i := 0; i < n; i++ {
		r.Insert(Tuple{Value(i), Value(i % 5000)})
		s.Insert(Tuple{Value(i % 5000), Value(i)})
	}
	ex := NewExec()
	if got := ex.Semijoin(r, s).Card(); got != n {
		t.Fatalf("semijoin kept %d of %d rows", got, n)
	}
	if got := ex.Project(r, u.Set("b")).Card(); got != 5000 {
		t.Fatalf("projection has %d rows, want 5000", got)
	}
	if got := ex.Join(r, ex.Semijoin(s, r)).Card(); got != n*n/5000 {
		t.Fatalf("join has %d rows, want %d", got, n*n/5000)
	}

	retained := 0
	v := reflect.ValueOf(ex).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Slice {
			t.Fatalf("Exec.%s is a %s: count what it retains here", v.Type().Field(i).Name, f.Kind())
		}
		retained += f.Cap() * int(f.Type().Elem().Size())
	}
	const perColumn = 1 << 10 // obuf, posA, posB, srcs: a few words per column
	if budget := 4*tableSize(n) + 8*n + 4*n + perColumn; retained > budget {
		t.Fatalf("Exec retains %d B after %d-row operators, budget %d B (4 B × %d slots + 12 B × %d build rows + %d)",
			retained, n, budget, tableSize(n), n, perColumn)
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
	kt := NewExec().buildKeys(s, pos, false)
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
