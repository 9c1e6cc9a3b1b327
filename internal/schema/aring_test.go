package schema

import "testing"

func TestAringConstruction(t *testing.T) {
	u := NewUniverse()
	d := Aring(u, 4, "")
	if got := d.String(); got != "(ab, bc, cd, ad)" {
		t.Errorf("Aring(4) = %s", got)
	}
	if !IsAring(d) {
		t.Error("Aring(4) not recognized")
	}
	if IsAclique(d) {
		t.Error("Aring(4) recognized as Aclique")
	}
}

func TestAcliqueConstruction(t *testing.T) {
	u := NewUniverse()
	d := Aclique(u, 4, "")
	// U − {a}, U − {b}, U − {c}, U − {d} over U = abcd.
	if got := d.String(); got != "(bcd, acd, abd, abc)" {
		t.Errorf("Aclique(4) = %s", got)
	}
	if !IsAclique(d) {
		t.Error("Aclique(4) not recognized")
	}
	if IsAring(d) {
		t.Error("Aclique(4) recognized as Aring")
	}
}

func TestAringAcliqueSize3Coincide(t *testing.T) {
	// For n = 3 the Aring and Aclique are the same schema (ab, bc, ac)
	// up to ordering — the triangle.
	u := NewUniverse()
	ring := Aring(u, 3, "")
	if !IsAring(ring) || !IsAclique(ring) {
		t.Error("triangle should be both Aring and Aclique of size 3")
	}
}

func TestConstructorPanics(t *testing.T) {
	for _, f := range []func(){
		func() { Aring(NewUniverse(), 2, "") },
		func() { Aclique(NewUniverse(), 2, "") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("size-2 constructor should panic")
				}
			}()
			f()
		}()
	}
}

func TestLargeRingNames(t *testing.T) {
	u := NewUniverse()
	d := Aring(u, 30, "v")
	if !IsAring(d) {
		t.Error("Aring(30) not recognized")
	}
	if u.Size() != 30 {
		t.Errorf("universe size = %d", u.Size())
	}
}

func TestIsAringNegatives(t *testing.T) {
	u := NewUniverse()
	cases := []string{
		"ab, bc, cd",         // path, not a cycle
		"ab, bc, ca, de, ea", // extra attrs: occurrence counts wrong
		"ab, bc, cd, da, ac", // chord: 5 rels over 4 attrs
		"abc, bcd, cda, dab", // ternary relations
		"ab, ba",             // would be a 2-cycle after dedup
	}
	for _, c := range cases {
		if IsAring(MustParse(u, c)) {
			t.Errorf("IsAring(%s) = true", c)
		}
	}
	// Two disjoint triangles: all local conditions hold but disconnected.
	two := MustParse(u, "ab, bc, ca, de, ef, fd")
	if IsAring(two) {
		t.Error("disjoint triangles recognized as one Aring")
	}
}

func TestIsAcliqueNegatives(t *testing.T) {
	u := NewUniverse()
	cases := []string{
		"bcd, acd, abd",      // only 3 of the 4 members
		"bcd, acd, abd, abd", // duplicated member
		"ab, bc, cd, da",     // ring
	}
	for _, c := range cases {
		if IsAclique(MustParse(u, c)) {
			t.Errorf("IsAclique(%s) = true", c)
		}
	}
}

func TestLemma31WitnessOnArings(t *testing.T) {
	// Arings and Acliques are cyclic with witness X = ∅ (paper: "In
	// particular, Arings and Acliques are cyclic (let X = ∅)").
	for n := 3; n <= 6; n++ {
		u := NewUniverse()
		ring := Aring(u, n, "")
		x, core, kind, found := Lemma31Witness(ring)
		if !found {
			t.Fatalf("no witness for Aring(%d)", n)
		}
		if !x.IsEmpty() {
			t.Errorf("Aring(%d) witness should be ∅, got %s", n, u.FormatSet(x))
		}
		if n > 3 && kind != CoreAring {
			t.Errorf("Aring(%d) core kind = %s", n, kind)
		}
		if core.Len() != n {
			t.Errorf("Aring(%d) core size = %d", n, core.Len())
		}
	}
	u := NewUniverse()
	cl := Aclique(u, 4, "")
	x, _, kind, found := Lemma31Witness(cl)
	if !found || !x.IsEmpty() || kind != CoreAclique {
		t.Errorf("Aclique(4): found=%v x=%v kind=%s", found, x.Attrs(), kind)
	}
}

func TestLemma31NoWitnessForTreeSchemas(t *testing.T) {
	u := NewUniverse()
	for _, s := range []string{"ab, bc, cd", "abc, cde, ace, afe", "ab", "ab, cd"} {
		if _, _, _, found := Lemma31Witness(MustParse(u, s)); found {
			t.Errorf("tree schema %s got a cyclicity witness", s)
		}
	}
}

// TestLemma31Fig2cStyle mirrors Fig. 2c: larger cyclic schemas whose
// GYO-style attribute deletion exposes an Aring or Aclique core. (The
// original figure's schemas are reconstructed — see experiment fig2 in
// internal/exp — preserving the stated witnesses: deleting X = abgi yields an
// Aring of size 4 and deleting X = efgi yields an Aclique of size 4.)
func TestLemma31Fig2cStyle(t *testing.T) {
	u := NewUniverse()
	// Deleting {a,b,g,i} leaves (cd, de, ef, fc): an Aring of size 4.
	d1 := MustParse(u, "abcd, de, gef, fci, ab, big")
	x1 := u.Set("a", "b", "g", "i")
	core1 := dropEmpty(d1.DeleteAttrs(x1).Reduce())
	if !IsAring(core1) {
		t.Fatalf("Fig2c-style #1: core %s is not an Aring", core1)
	}
	if _, _, kind, found := Lemma31Witness(d1); !found || kind == CoreNone {
		t.Error("Fig2c-style #1 should be cyclic with a witness")
	}

	// Deleting {e,f,g,i} leaves (bcd, acd, abd, abc): an Aclique of size 4.
	u2 := NewUniverse()
	d2 := MustParse(u2, "bcde, acdf, abdg, abci")
	x2 := u2.Set("e", "f", "g", "i")
	core2 := dropEmpty(d2.DeleteAttrs(x2).Reduce())
	if !IsAclique(core2) {
		t.Fatalf("Fig2c-style #2: core %s is not an Aclique", core2)
	}
	if _, _, kind, found := Lemma31Witness(d2); !found || kind == CoreNone {
		t.Error("Fig2c-style #2 should be cyclic with a witness")
	}
}

func TestCoreKindString(t *testing.T) {
	if CoreAring.String() != "Aring" || CoreAclique.String() != "Aclique" || CoreNone.String() != "none" {
		t.Error("CoreKind strings wrong")
	}
}
