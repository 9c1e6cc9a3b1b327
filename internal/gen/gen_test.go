package gen

import (
	"testing"

	"gyokit/internal/gyo"
	"gyokit/internal/schema"
)

func TestTreeSchemaIsAlwaysTree(t *testing.T) {
	rng := RNG(3)
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(12)
		d := TreeSchema(rng, n, 1+rng.Intn(3), 1+rng.Intn(3))
		if d.Len() != n {
			t.Fatalf("TreeSchema produced %d relations, want %d", d.Len(), n)
		}
		if !gyo.IsTree(d) {
			t.Fatalf("TreeSchema produced a cyclic schema: %s", d)
		}
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTreeSchemaDeterministic(t *testing.T) {
	a := TreeSchema(RNG(9), 8, 2, 2)
	b := TreeSchema(RNG(9), 8, 2, 2)
	if a.Key() != b.Key() {
		t.Error("same seed produced different tree schemas")
	}
}

func TestRandomSchemaShape(t *testing.T) {
	rng := RNG(5)
	d := RandomSchema(rng, 6, 5, 0.5)
	if d.Len() != 6 {
		t.Fatalf("relation count %d", d.Len())
	}
	for _, r := range d.Rels {
		if r.IsEmpty() {
			t.Error("RandomSchema produced an empty relation schema")
		}
		if !r.SubsetOf(d.U.All()) {
			t.Error("attributes out of universe")
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestChainAndStar(t *testing.T) {
	c := Chain(4)
	if c.Len() != 4 || c.Attrs().Card() != 5 {
		t.Errorf("Chain(4) shape wrong: %s", c)
	}
	if !gyo.IsTree(c) {
		t.Error("chain should be a tree schema")
	}
	s := Star(4)
	if s.Len() != 4 || s.Attrs().Card() != 5 {
		t.Errorf("Star(4) shape wrong: %s", s)
	}
	if !gyo.IsTree(s) {
		t.Error("star should be a tree schema")
	}
	// Every star relation contains the center.
	center := s.Rels[0].Intersect(s.Rels[1])
	if center.Card() != 1 {
		t.Fatal("star center wrong")
	}
	for _, r := range s.Rels {
		if !center.SubsetOf(r) {
			t.Error("star relation missing the center")
		}
	}
	mustPanic(t, func() { Chain(0) })
	mustPanic(t, func() { Star(0) })
	mustPanic(t, func() { TreeSchema(RNG(1), 0, 1, 1) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestRingAndClique(t *testing.T) {
	for n := 3; n <= 30; n += 9 {
		r := Ring(n)
		if !schema.IsAring(r) {
			t.Errorf("Ring(%d) not an Aring", n)
		}
		if gyo.IsTree(r) {
			t.Errorf("Ring(%d) classified as tree", n)
		}
	}
	c := Clique(5)
	if !schema.IsAclique(c) || gyo.IsTree(c) {
		t.Error("Clique(5) wrong")
	}
}

func TestBinPackingGenerator(t *testing.T) {
	rng := RNG(7)
	bp := BinPacking(rng, 10, 8, 3, 12)
	if len(bp.Sizes) != 10 || bp.K != 3 || bp.B != 12 {
		t.Fatalf("shape wrong: %+v", bp)
	}
	for _, s := range bp.Sizes {
		if s < 3 || s > 8 {
			t.Errorf("size %d out of [3, 8]", s)
		}
	}
	// maxSize below 3 is clamped.
	bp2 := BinPacking(rng, 4, 1, 1, 5)
	for _, s := range bp2.Sizes {
		if s != 3 {
			t.Errorf("clamped size = %d, want 3", s)
		}
	}
}

func TestSubSchema(t *testing.T) {
	rng := RNG(11)
	d := Chain(5)
	for trial := 0; trial < 30; trial++ {
		sub, idx := SubSchema(rng, d)
		if sub.Len() == 0 || sub.Len() != len(idx) {
			t.Fatalf("SubSchema shape wrong: %d vs %v", sub.Len(), idx)
		}
		for k, i := range idx {
			if !sub.Rels[k].Equal(d.Rels[i]) {
				t.Fatal("index mapping wrong")
			}
			if k > 0 && idx[k-1] >= i {
				t.Fatal("indexes not ascending")
			}
		}
	}
	empty := &schema.Schema{U: d.U}
	if sub, idx := SubSchema(rng, empty); sub.Len() != 0 || idx != nil {
		t.Error("empty input should give empty output")
	}
}

func TestRandomAttrSubset(t *testing.T) {
	rng := RNG(13)
	u, attrs := Universe(10)
	all := u.All()
	_ = attrs
	always := RandomAttrSubset(rng, all, 1.0)
	if !always.Equal(all) {
		t.Error("p=1 should keep everything")
	}
	never := RandomAttrSubset(rng, all, 0.0)
	if !never.IsEmpty() {
		t.Error("p=0 should drop everything")
	}
	some := RandomAttrSubset(rng, all, 0.5)
	if !some.SubsetOf(all) {
		t.Error("subset property violated")
	}
}

func TestUniverseHelper(t *testing.T) {
	u, attrs := Universe(30)
	if u.Size() != 30 || len(attrs) != 30 {
		t.Fatal("Universe helper wrong")
	}
	if u.Name(attrs[0]) != "a" || u.Name(attrs[25]) != "z" {
		t.Error("single-letter names wrong")
	}
	if u.Name(attrs[26]) != "x27" {
		t.Errorf("overflow name = %s", u.Name(attrs[26]))
	}
}

// TestInconsistent holds Inconsistent to its promise by brute force
// (CheckInconsistent) on rings, cliques, a ring with tails and random
// cyclic schemas, and checks that an acyclic schema has no such database
// and that the brute force rejects a ring whose relations are all "equal".
func TestInconsistent(t *testing.T) {
	cyclic := []*schema.Schema{Ring(3), Ring(4), Ring(6), Clique(4), Clique(5), Clique(6), RingWithTails(4, 2)}
	rng := RNG(7)
	for len(cyclic) < 17 {
		if d := RandomSchema(rng, 3+rng.Intn(4), 6, 0.4); !gyo.IsTree(d) {
			cyclic = append(cyclic, d)
		}
	}
	for _, d := range cyclic {
		rels, ok := Inconsistent(d)
		if !ok {
			t.Fatalf("%s: no inconsistent database", d)
		}
		if err := CheckInconsistent(d, rels); err != nil {
			t.Errorf("%s: %v", d, err)
		}
	}
	for _, d := range []*schema.Schema{Chain(4), Star(3), TreeSchema(RNG(1), 6, 2, 1)} {
		if _, ok := Inconsistent(d); ok {
			t.Errorf("%s is acyclic, yet has an inconsistent database", d)
		}
	}
	d := Ring(4)
	rels, _ := Inconsistent(d)
	rels[0] = [][]int{{0, 0}, {1, 1}}
	if err := CheckInconsistent(d, rels); err == nil {
		t.Error("a ring of equal relations passes the brute force")
	}
}
