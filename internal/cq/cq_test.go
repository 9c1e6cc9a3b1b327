package cq

import (
	"errors"
	"strings"
	"testing"

	"gyokit/internal/schema"
)

func TestParseCanonical(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{
			"ans(X,Z):-ab(X,Y),bc(Y,Z).",
			"ans(X, Z) :- ab(X, Y), bc(Y, Z).",
		},
		{
			"  ans( X , Z )\n\t:- ab(X, Y)  ,\n bc(Y, Z) . ",
			"ans(X, Z) :- ab(X, Y), bc(Y, Z).",
		},
		{
			"out(V) :- user_id(U, V).",
			"out(V) :- user_id(U, V).",
		},
	}
	for _, c := range cases {
		q, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got := q.String(); got != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	texts := []string{
		"ans(X, Z) :- ab(X, Y), bc(Y, Z).",
		"ans(X) :- a(X).",
		"t(A, B, C) :- ab(A, B), bc(B, C), ca(C, A).",
		"self(X, Z) :- ab(X, Y), ab(Y, Z).",
	}
	for _, s := range texts {
		q, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		q2, err := Parse(q.String())
		if err != nil {
			t.Fatalf("re-parsing canonical %q: %v", q.String(), err)
		}
		if q2.String() != q.String() {
			t.Errorf("round trip changed canonical form: %q -> %q", q.String(), q2.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		in   string
		pos  string // "line:col" of the reported error
		frag string // substring of the message
	}{
		{"", "1:1", "expected identifier"},
		{"ans(X)", "1:7", "expected \":-\""},
		{"ans(X) :- r(X)", "1:15", "expected \".\""},
		{"ans(X) :- r(X). trailing", "1:17", "trailing input"},
		{"Ans(X) :- r(X).", "1:1", "must not be uppercase-initial"},
		{"ans(x) :- r(x).", "1:5", "must be variables"},
		{"ans(X) :- r(1).", "1:13", "constants are not supported"},
		{"ans(X) :- r(X, X).", "1:16", "repeated within"},
		{"ans(X, X) :- r(X).", "1:8", "head variable X repeated"},
		{"ans(Y) :- r(X).", "1:5", "unsafe head variable Y"},
		{"ans(X) :- r(X)? .", "1:15", "unexpected character"},
		{"ans(X) :\nr(X).", "1:8", "expected \":-\""},
	}
	for _, c := range cases {
		_, err := Parse(c.in)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error %q", c.in, c.frag)
			continue
		}
		var pe *Error
		if !errors.As(err, &pe) {
			t.Errorf("Parse(%q) error %v is not a *cq.Error", c.in, err)
			continue
		}
		if pe.Pos.String() != c.pos {
			t.Errorf("Parse(%q) error at %s, want %s (%v)", c.in, pe.Pos, c.pos, err)
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Parse(%q) = %v, want message containing %q", c.in, err, c.frag)
		}
	}
}

func TestParseSizeLimits(t *testing.T) {
	var b strings.Builder
	b.WriteString("ans(X0) :- ")
	for i := 0; i <= MaxBodyAtoms; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("ab(X0, Y0)")
	}
	b.WriteString(".")
	if _, err := Parse(b.String()); err == nil || !strings.Contains(err.Error(), "too many atoms") {
		t.Errorf("oversized body = %v, want \"too many atoms\"", err)
	}
}

func TestCompileArityAndPredicates(t *testing.T) {
	cases := []struct {
		in   string
		frag string
	}{
		{"ans(X) :- ab(X).", "has 2 attributes"},
		{"ans(X) :- aa(X, Y).", "repeats attribute"},
		{"ans(X) :- a_(X, Y).", "empty attribute name"},
	}
	for _, c := range cases {
		_, err := Compile(c.in)
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Compile(%q) = %v, want message containing %q", c.in, err, c.frag)
		}
	}

	// The two predicate styles address the right attribute names.
	c := MustCompile("ans(V) :- user_id(U, V).")
	if got := c.Atoms[0].Attrs; len(got) != 2 || got[0] != "user" || got[1] != "id" {
		t.Errorf("user_id attrs = %v, want [user id]", got)
	}
	c = MustCompile("ans(X) :- ab(X, Y).")
	if got := c.Atoms[0].Attrs; len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("ab attrs = %v, want [a b]", got)
	}
}

// TestLoweredText pins what the lowered cache key must and must not
// identify: permutations of one schema share a text, a different target,
// a different id→name assignment over equal bitsets, or a duplicated
// relation do not, and none of them can be mistaken for a written
// query's canonical text.
func TestLoweredText(t *testing.T) {
	u := schema.NewUniverse()
	d := schema.MustParse(u, "ab, bc, cd")
	x := u.Set("a", "d")
	text := LoweredText(d, x)
	if got := LoweredText(schema.MustParse(u, "cd, ab, bc"), x); got != text {
		t.Errorf("permuted schema changed the text:\n%s\n%s", text, got)
	}
	u2 := schema.NewUniverse()
	if got := LoweredText(schema.MustParse(u2, "ab, bc, cd"), u2.Set("a", "d")); got != text {
		t.Errorf("same names and ids in another universe changed the text:\n%s\n%s", text, got)
	}
	distinct := map[string]string{"base": text}
	add := func(name, txt string) {
		for prev, p := range distinct {
			if p == txt {
				t.Errorf("%s and %s share the text %s", name, prev, txt)
			}
		}
		distinct[name] = txt
	}
	add("other target", LoweredText(d, u.Set("a", "c")))
	add("duplicated relation", LoweredText(schema.MustParse(u, "ab, ab, bc, cd"), x))
	// Equal bitset multisets, different names per id.
	ua, ub := schema.NewUniverse(), schema.NewUniverse()
	da, db := schema.MustParse(ua, "ab, cd"), schema.MustParse(ub, "cd, ab")
	add("ab,cd", LoweredText(da, da.Rels[0]))
	add("cd,ab", LoweredText(db, db.Rels[0]))
	for name, txt := range distinct {
		if _, err := Parse(txt); err == nil {
			t.Errorf("%s text %q parses as a query", name, txt)
		}
	}
}
