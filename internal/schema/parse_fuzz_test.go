package schema

import (
	"strings"
	"testing"
)

// FuzzParse drives Parse with arbitrary input. Invariants checked on
// every successful parse:
//
//   - the schema validates (no attribute escapes the universe);
//   - String() re-parses without error into the same number of relation
//     schemas (the notation is closed under round trips).
//
// The seed corpus covers the paper's notations: single-letter runs,
// multi-character names, Aring/Aclique shapes, empty-set spellings, and
// malformed fragments.
func FuzzParse(f *testing.F) {
	for _, s := range []string{
		"ab, bc, cd",                      // §2 chain
		"(ab,bc,ac)",                      // Aring(3) = Aclique(3)
		"abg, bcg, acf, ad, de, ea",       // the §6 running example
		"ab, bc, cd, de, ea",              // Aring(5)
		"abc, abd, acd, bcd",              // Aclique(4) facets
		"user id, id name",                // multi-character names
		"∅, ab",                           // empty relation schema
		"{}",                              // empty-set spelling
		"",                                // empty schema
		"a1b2, b2c3",                      // digits as attributes
		"αβ, βγ",                          // non-ASCII letters
		"foo foo",                         // duplicate names in one schema
		"- x, b",                          // non-alnum multi-char field
		"ab,, cd",                         // malformed: empty part
		"a-b",                             // malformed: bad token
		"(((",                             // malformed: parens only
		strings.Repeat("ab, ", 50) + "yz", // long input
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		u := NewUniverse()
		d, err := Parse(u, s)
		if err != nil {
			return
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("Parse(%q) produced invalid schema: %v", s, err)
		}
		out := d.String()
		d2, err := Parse(NewUniverse(), out)
		if err != nil {
			t.Fatalf("String() of Parse(%q) does not re-parse: %q: %v", s, out, err)
		}
		if len(d2.Rels) != len(d.Rels) {
			t.Fatalf("round trip of %q changed relation count: %d → %d (%q)",
				s, len(d.Rels), len(d2.Rels), out)
		}
	})
}
