package schema

import (
	"strings"
	"sync"
	"testing"
)

func TestParseCompact(t *testing.T) {
	u := NewUniverse()
	d, err := Parse(u, "(ab, bc, cd)")
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 3 {
		t.Fatalf("Len = %d", d.Len())
	}
	if got := d.String(); got != "(ab, bc, cd)" {
		t.Errorf("String = %q", got)
	}
	if got := d.Attrs(); got.Card() != 4 {
		t.Errorf("U(D) card = %d", got.Card())
	}
}

func TestParseMultiChar(t *testing.T) {
	u := NewUniverse()
	d, err := Parse(u, "order line, line item")
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 || d.Attrs().Card() != 3 {
		t.Fatalf("parse multi-char failed: %v", d)
	}
}

func TestParseErrors(t *testing.T) {
	u := NewUniverse()
	if _, err := Parse(u, "ab,,cd"); err == nil {
		t.Error("expected error for empty relation")
	}
	if d, err := Parse(u, "  "); err != nil || d.Len() != 0 {
		t.Error("blank input should give empty schema")
	}
}

func TestParseEmptyRelation(t *testing.T) {
	u := NewUniverse()
	d := MustParse(u, "ab, ∅")
	if d.Len() != 2 || !d.Rels[1].IsEmpty() {
		t.Fatalf("∅ parse failed: %v", d)
	}
}

func TestReduce(t *testing.T) {
	u := NewUniverse()
	cases := []struct {
		in, want string
	}{
		{"abc, ab, bc", "(abc)"},
		{"ab, ab", "(ab)"},
		{"ab, bc, cd", "(ab, bc, cd)"},
		{"a, ab, abc, abcd", "(abcd)"},
		{"ab, cd, ab, b", "(ab, cd)"},
	}
	for _, c := range cases {
		d := MustParse(u, c.in)
		got := d.Reduce()
		if got.String() != c.want {
			t.Errorf("Reduce(%s) = %s, want %s", c.in, got, c.want)
		}
		if !got.IsReduced() {
			t.Errorf("Reduce(%s) not reduced", c.in)
		}
	}
}

func TestIsReduced(t *testing.T) {
	u := NewUniverse()
	if MustParse(u, "abc, ab").IsReduced() {
		t.Error("subset schema claimed reduced")
	}
	if MustParse(u, "ab, ab").IsReduced() {
		t.Error("duplicate schema claimed reduced")
	}
	if !MustParse(u, "ab, bc").IsReduced() {
		t.Error("reduced schema claimed non-reduced")
	}
}

func TestLE(t *testing.T) {
	u := NewUniverse()
	d := MustParse(u, "ab, bc, cd")
	dd := MustParse(u, "ab, abch, cdgh")
	if !d.LE(d) {
		t.Error("D ≤ D should hold")
	}
	small := MustParse(u, "ab, bc")
	if !small.LE(d) {
		t.Error("(ab,bc) ≤ (ab,bc,cd) should hold")
	}
	if dd.LE(d) {
		t.Error("(ab,abch,cdgh) ≤ (ab,bc,cd) should fail")
	}
	if !MustParse(u, "a, c").LE(d) {
		t.Error("singleton subsets should satisfy ≤")
	}
}

func TestSubmultisetOf(t *testing.T) {
	u := NewUniverse()
	d := MustParse(u, "ab, ab, bc")
	if !MustParse(u, "ab, ab").SubmultisetOf(d) {
		t.Error("two copies of ab should be a sub-multiset")
	}
	if MustParse(u, "ab, ab, ab").SubmultisetOf(d) {
		t.Error("three copies of ab should not fit")
	}
	if !MustParse(u, "bc").SubmultisetOf(d) {
		t.Error("bc should fit")
	}
	if MustParse(u, "cd").SubmultisetOf(d) {
		t.Error("cd should not fit")
	}
}

func TestSetAndMultisetEqual(t *testing.T) {
	u := NewUniverse()
	a := MustParse(u, "ab, bc")
	b := MustParse(u, "bc, ab")
	c := MustParse(u, "ab, bc, ab")
	if !a.SetEqual(b) || !a.MultisetEqual(b) {
		t.Error("order should not matter")
	}
	if !a.SetEqual(c) {
		t.Error("SetEqual ignores multiplicity")
	}
	if a.MultisetEqual(c) {
		t.Error("MultisetEqual respects multiplicity")
	}
}

func TestDeleteAttrs(t *testing.T) {
	u := NewUniverse()
	d := MustParse(u, "abc, cde")
	got := d.DeleteAttrs(u.Set("c"))
	if got.String() != "(ab, de)" {
		t.Errorf("DeleteAttrs = %s", got)
	}
	if d.String() != "(abc, cde)" {
		t.Error("DeleteAttrs mutated input")
	}
}

func TestComponentsAndConnected(t *testing.T) {
	u := NewUniverse()
	d := MustParse(u, "ab, bc, de, ef, g")
	comps := d.Components()
	if len(comps) != 3 {
		t.Fatalf("Components = %v, want 3 groups", comps)
	}
	if d.Connected() {
		t.Error("disconnected schema claimed connected")
	}
	if !MustParse(u, "ab, bc, ca").Connected() {
		t.Error("triangle should be connected")
	}
	// Empty relation schemas are ignored.
	e := MustParse(u, "ab, ∅, bc")
	if !e.Connected() {
		t.Error("empty relation should not disconnect")
	}
	if len((&Schema{U: u}).Components()) != 0 {
		t.Error("empty schema has no components")
	}
}

func TestAttrOccurrences(t *testing.T) {
	u := NewUniverse()
	d := MustParse(u, "ab, bc, bd")
	occ := d.AttrOccurrences()
	b, _ := u.Lookup("b")
	a, _ := u.Lookup("a")
	if occ[b] != 3 || occ[a] != 1 {
		t.Errorf("occurrences wrong: %v", occ)
	}
}

func TestKeyCanonical(t *testing.T) {
	u := NewUniverse()
	a := MustParse(u, "ab, bc")
	b := MustParse(u, "bc, ab")
	if a.Key() != b.Key() {
		t.Error("Key should be order-insensitive")
	}
	c := MustParse(u, "ab, bd")
	if a.Key() == c.Key() {
		t.Error("different schemas share a Key")
	}
}

func TestWithRelAndRemoveAt(t *testing.T) {
	u := NewUniverse()
	d := MustParse(u, "ab, bc")
	e := d.WithRel(u.Set("c", "d"))
	if e.Len() != 3 || d.Len() != 2 {
		t.Error("WithRel wrong")
	}
	f := e.RemoveAt(0)
	if f.String() != "(bc, cd)" {
		t.Errorf("RemoveAt = %s", f)
	}
	if e.Len() != 3 {
		t.Error("RemoveAt mutated input")
	}
}

func TestValidate(t *testing.T) {
	u := NewUniverse()
	d := MustParse(u, "ab, bc")
	if err := d.Validate(); err != nil {
		t.Errorf("valid schema rejected: %v", err)
	}
	bogus := &Schema{U: u, Rels: []AttrSet{NewAttrSet(Attr(u.Size() + 5))}}
	if err := bogus.Validate(); err == nil {
		t.Error("foreign attribute accepted")
	}
	if err := (&Schema{}).Validate(); err == nil {
		t.Error("nil universe accepted")
	}
}

func TestSortedString(t *testing.T) {
	u := NewUniverse()
	a := MustParse(u, "cd, ab, bc")
	b := MustParse(u, "ab, bc, cd")
	if a.SortedString() != b.SortedString() {
		t.Error("SortedString should be order-insensitive")
	}
	if !strings.HasPrefix(a.SortedString(), "(") {
		t.Error("format")
	}
}

// TestUniverseConcurrentInterning exercises the Universe lock under
// -race: concurrent interning, lookup, and formatting must be safe.
func TestUniverseConcurrentInterning(t *testing.T) {
	u := NewUniverse()
	d := MustParse(u, "ab, bc, cd")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			names := []string{"p", "q", "r", "s", "t", "u", "v", "w"}
			for i := 0; i < 200; i++ {
				u.Attr(names[(g+i)%len(names)])
				u.Lookup("a")
				_ = u.Size()
				_ = d.String()
				_ = u.FormatSet(d.Rels[i%len(d.Rels)])
			}
		}(g)
	}
	wg.Wait()
	if got := u.Size(); got != 4+8 {
		t.Errorf("Size = %d, want 12", got)
	}
}
