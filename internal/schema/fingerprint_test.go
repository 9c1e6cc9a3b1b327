package schema

import (
	"sync"
	"testing"
)

func TestFingerprintOrderIndependent(t *testing.T) {
	u := NewUniverse()
	d1 := MustParse(u, "ab, bc, cd")
	d2 := MustParse(u, "cd, ab, bc")
	if d1.Fingerprint() != d2.Fingerprint() {
		t.Errorf("relation order changed fingerprint: %x vs %x", d1.Fingerprint(), d2.Fingerprint())
	}
}

func TestFingerprintUniverseIndependent(t *testing.T) {
	// Different interning orders give different bitsets but the same
	// name-based fingerprint.
	u1 := NewUniverse()
	u1.Set("z", "y", "x") // skew interning order
	d1 := MustParse(u1, "ab, bc, cd")
	u2 := NewUniverse()
	d2 := MustParse(u2, "bc, cd, ab")
	if d1.Fingerprint() != d2.Fingerprint() {
		t.Errorf("universe changed fingerprint: %x vs %x", d1.Fingerprint(), d2.Fingerprint())
	}
	x1 := MustSet(u1, "ad")
	x2 := MustSet(u2, "da")
	if u1.SetFingerprint(x1) != u2.SetFingerprint(x2) {
		t.Errorf("SetFingerprint not universe-independent")
	}
}

func TestFingerprintDistinguishes(t *testing.T) {
	u := NewUniverse()
	cases := []string{
		"ab, bc, cd",
		"ab, bc",
		"ab, bc, cd, cd", // multiplicity matters
		"ab, bc, ca",
		"abc, cd",
		"a, b, c, d",
		"abcd",
	}
	seen := map[uint64]string{}
	for _, s := range cases {
		fp := MustParse(u, s).Fingerprint()
		if prev, ok := seen[fp]; ok {
			t.Errorf("fingerprint collision: %q and %q both hash to %x", prev, s, fp)
		}
		seen[fp] = s
	}
}

func TestFingerprintSeparatorAmbiguity(t *testing.T) {
	u := NewUniverse()
	a := New(u, u.Set("ab", "c"))
	b := New(u, u.Set("a", "bc"))
	if a.Fingerprint() == b.Fingerprint() {
		t.Errorf("{ab,c} and {a,bc} fingerprint equally")
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
				_ = d.Fingerprint()
				_ = u.FormatSet(d.Rels[i%len(d.Rels)])
			}
		}(g)
	}
	wg.Wait()
	if got := u.Size(); got != 4+8 {
		t.Errorf("Size = %d, want 12", got)
	}
}
