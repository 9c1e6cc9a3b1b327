// Package gen provides deterministic workload generators for tests,
// property checks, and the benchmark harness: random tree schemas,
// random (usually cyclic) schemas, Arings/Acliques, chains, stars,
// bin-packing instances, and random universal relations.
//
// All generators are driven by explicit seeds so that every experiment
// in internal/exp is reproducible.
package gen

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"

	"gyokit/internal/schema"
)

// RNG returns a deterministic rand.Rand for the given seed.
func RNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// attrName returns a readable attribute name: single letters for the
// first 26, then "x27", "x28", ….
func attrName(i int) string {
	if i < 26 {
		return string(rune('a' + i))
	}
	return fmt.Sprintf("x%d", i+1)
}

// Universe returns a fresh universe pre-populated with n attributes.
func Universe(n int) (*schema.Universe, []schema.Attr) {
	u := schema.NewUniverse()
	attrs := make([]schema.Attr, n)
	for i := 0; i < n; i++ {
		attrs[i] = u.Attr(attrName(i))
	}
	return u, attrs
}

// TreeSchema generates a random connected tree schema with n relation
// schemas. It grows a join tree: each new relation shares a random
// non-empty subset of an existing relation's attributes and adds
// `fresh` new attributes (at least one). The result is acyclic by
// construction, with the grown tree as a qual tree.
func TreeSchema(rng *rand.Rand, n, maxShared, fresh int) *schema.Schema {
	if n < 1 {
		panic("gen: TreeSchema needs n ≥ 1")
	}
	if maxShared < 1 {
		maxShared = 1
	}
	if fresh < 1 {
		fresh = 1
	}
	u := schema.NewUniverse()
	next := 0
	newAttr := func() schema.Attr {
		a := u.Attr(attrName(next))
		next++
		return a
	}
	d := &schema.Schema{U: u}
	first := schema.NewAttrSet()
	for i := 0; i < 1+rng.Intn(fresh); i++ {
		first = first.Add(newAttr())
	}
	d.Add(first)
	for i := 1; i < n; i++ {
		parent := d.Rels[rng.Intn(len(d.Rels))]
		pattrs := parent.Attrs()
		k := 1 + rng.Intn(min(maxShared, len(pattrs)))
		rng.Shuffle(len(pattrs), func(a, b int) { pattrs[a], pattrs[b] = pattrs[b], pattrs[a] })
		r := schema.NewAttrSet(pattrs[:k]...)
		for j := 0; j < 1+rng.Intn(fresh); j++ {
			r = r.Add(newAttr())
		}
		d.Add(r)
	}
	return d
}

// RandomSchema generates an arbitrary schema: n relation schemas over a
// universe of m attributes, each relation containing every attribute
// independently with probability p (re-drawn until non-empty). The
// result may be a tree or cyclic schema.
func RandomSchema(rng *rand.Rand, n, m int, p float64) *schema.Schema {
	u, attrs := Universe(m)
	d := &schema.Schema{U: u}
	for i := 0; i < n; i++ {
		var r schema.AttrSet
		for r.IsEmpty() {
			r = schema.NewAttrSet()
			for _, a := range attrs {
				if rng.Float64() < p {
					r = r.Add(a)
				}
			}
		}
		d.Add(r)
	}
	return d
}

// Chain returns the path schema (A₁A₂, A₂A₃, …, AₙAₙ₊₁): a canonical
// tree schema with n relations.
func Chain(n int) *schema.Schema {
	if n < 1 {
		panic("gen: Chain needs n ≥ 1")
	}
	u, attrs := Universe(n + 1)
	d := &schema.Schema{U: u}
	for i := 0; i < n; i++ {
		d.Add(schema.NewAttrSet(attrs[i], attrs[i+1]))
	}
	return d
}

// Star returns the star schema (CA₁, CA₂, …, CAₙ): all relations share
// a central attribute. A canonical tree schema.
func Star(n int) *schema.Schema {
	if n < 1 {
		panic("gen: Star needs n ≥ 1")
	}
	u, attrs := Universe(n + 1)
	c := attrs[0]
	d := &schema.Schema{U: u}
	for i := 1; i <= n; i++ {
		d.Add(schema.NewAttrSet(c, attrs[i]))
	}
	return d
}

// Ring returns the Aring of size n on a fresh universe.
func Ring(n int) *schema.Schema {
	u := schema.NewUniverse()
	return schema.Aring(u, n, ringPrefix(n))
}

// RingWithTails returns an Aring of size ringN with a chain of tailLen
// binary relations hanging off each ring attribute: a cyclic schema
// whose GYO-irreducible core (the ring) is a small fraction of the
// whole. This is the workload where the §4 cyclic strategy — join the
// core, then treat the rest as a tree — pays off.
func RingWithTails(ringN, tailLen int) *schema.Schema {
	u := schema.NewUniverse()
	d := schema.Aring(u, ringN, ringPrefix(ringN))
	ringAttrs := d.Attrs().Attrs()
	for i, a := range ringAttrs {
		prev := a
		for j := 0; j < tailLen; j++ {
			next := u.Attr(fmt.Sprintf("t%d_%d", i, j))
			d.Add(schema.NewAttrSet(prev, next))
			prev = next
		}
	}
	return d
}

// Clique returns the Aclique of size n on a fresh universe.
func Clique(n int) *schema.Schema {
	u := schema.NewUniverse()
	return schema.Aclique(u, n, ringPrefix(n))
}

func ringPrefix(n int) string {
	if n <= 26 {
		return ""
	}
	return "a"
}

// BinPackingInstance is an instance of the bin-packing decision problem
// used by the Theorem 4.2 reduction: items with sizes, K bins of
// capacity B.
type BinPackingInstance struct {
	Sizes []int
	K     int
	B     int
}

// BinPacking generates a random instance with n items, sizes in
// [3, maxSize] (≥3 so every item maps to a legal Aclique), K bins of
// capacity B.
func BinPacking(rng *rand.Rand, n, maxSize, k, b int) BinPackingInstance {
	if maxSize < 3 {
		maxSize = 3
	}
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = 3 + rng.Intn(maxSize-2)
	}
	return BinPackingInstance{Sizes: sizes, K: k, B: b}
}

// SubSchema picks a random non-empty sub-multiset of d's relations,
// returning the sub-schema and the chosen indexes (sorted ascending).
func SubSchema(rng *rand.Rand, d *schema.Schema) (*schema.Schema, []int) {
	n := len(d.Rels)
	if n == 0 {
		return &schema.Schema{U: d.U}, nil
	}
	var idx []int
	for len(idx) == 0 {
		idx = idx[:0]
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				idx = append(idx, i)
			}
		}
	}
	return d.Restrict(idx), idx
}

// RandomAttrSubset returns a random subset of s, each attribute kept
// with probability p.
func RandomAttrSubset(rng *rand.Rand, s schema.AttrSet, p float64) schema.AttrSet {
	out := schema.NewAttrSet()
	s.ForEach(func(a schema.Attr) bool {
		if rng.Float64() < p {
			out = out.Add(a)
		}
		return true
	})
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Inconsistent returns a database over d that is pairwise consistent —
// every two of its relations agree on their shared attributes — yet whose
// join is empty: the semantic witness that d is cyclic, since on an
// acyclic schema pairwise consistency implies global consistency. Tuple
// j of relation i is rels[i][j], its values in the order of
// d.Rels[i].Attrs(). ok is false when d has no Lemma 3.1 witness, that
// is, when d is acyclic.
//
// The construction starts from the witness core (schema.Lemma31Witness):
// the relations of d with the attributes X deleted, reduced, form an
// Aring or an Aclique. With m = 2 for an Aring and m = n − 1 for an
// Aclique over n attributes, each core relation holds every tuple over
// Z_m whose values sum to 0 mod m — except the first, whose values sum to
// 1. Fixing all but one value of a core tuple leaves exactly one choice,
// so any proper subset of a core relation's attributes projects to the
// full cube, and two core relations meet on such a subset: the core is
// pairwise consistent. Summed over the core, every attribute appears in
// exactly two relations (Aring) or in n − 1 (Aclique), so a tuple in the
// join would make 0 ≡ 1 mod m. Lifted to d, every attribute of X takes
// the value 0 and each relation R is the projection of the first core
// relation that contains R \ X: pairwise consistency carries over, and
// every core relation is some R \ X, so the join stays empty. A core
// relation holds m^(k−1) tuples for k attributes.
func Inconsistent(d *schema.Schema) (rels [][][]int, ok bool) {
	x, core, kind, found := schema.Lemma31Witness(d)
	if !found {
		return nil, false
	}
	m := 2
	if kind == schema.CoreAclique {
		m = core.Attrs().Card() - 1
	}
	// coreTuples[c] holds core relation c's tuples, by attribute.
	coreTuples := make([][]map[schema.Attr]int, len(core.Rels))
	for c, cr := range core.Rels {
		attrs := cr.Attrs()
		vals := make([]int, len(attrs))
		target := 0
		if c == 0 {
			target = 1
		}
		for more := true; more; more = odometer(vals, m-1) {
			sum := 0
			for _, v := range vals {
				sum += v
			}
			if sum%m == target {
				tp := make(map[schema.Attr]int, len(attrs))
				for k, a := range attrs {
					tp[a] = vals[k]
				}
				coreTuples[c] = append(coreTuples[c], tp)
			}
		}
	}
	for _, r := range d.Rels {
		c := 0
		for !r.Diff(x).SubsetOf(core.Rels[c]) {
			c++
		}
		attrs := r.Attrs()
		seen := map[string]bool{}
		var rel [][]int
		for _, ct := range coreTuples[c] {
			tp := make([]int, len(attrs))
			for k, a := range attrs {
				tp[k] = ct[a] // 0 for an attribute of X
			}
			if key := fmt.Sprint(tp); !seen[key] {
				seen[key] = true
				rel = append(rel, tp)
			}
		}
		rels = append(rels, rel)
	}
	return rels, true
}

// CheckInconsistent checks by brute force what Inconsistent promises of
// rels over d: no relation is empty, every two agree on their shared
// attributes, and no assignment of values to U(d) — each attribute over
// 0 … the largest value in rels — projects into every relation. It costs
// (largest value + 1)^|U(d)| such checks.
func CheckInconsistent(d *schema.Schema, rels [][][]int) error {
	if len(rels) != len(d.Rels) {
		return fmt.Errorf("gen: %d relations for %d relation schemas", len(rels), len(d.Rels))
	}
	// on returns the set of the projections of relation i onto attrs.
	on := func(i int, attrs []schema.Attr) map[string]bool {
		cols := d.Rels[i].Attrs()
		set := map[string]bool{}
		for _, tp := range rels[i] {
			key := make([]int, len(attrs))
			for k, a := range attrs {
				key[k] = tp[slices.Index(cols, a)]
			}
			set[fmt.Sprint(key)] = true
		}
		return set
	}
	top := 0
	for i, rel := range rels {
		if len(rel) == 0 {
			return fmt.Errorf("gen: relation %s is empty", d.U.FormatSet(d.Rels[i]))
		}
		for _, tp := range rel {
			top = max(top, slices.Max(tp))
		}
		for j := range i {
			shared := d.Rels[i].Intersect(d.Rels[j]).Attrs()
			if !maps.Equal(on(i, shared), on(j, shared)) {
				return fmt.Errorf("gen: %s and %s disagree on %s", d.U.FormatSet(d.Rels[i]), d.U.FormatSet(d.Rels[j]),
					d.U.FormatSet(schema.NewAttrSet(shared...)))
			}
		}
	}
	members := make([]map[string]bool, len(rels))
	for i, r := range d.Rels {
		members[i] = on(i, r.Attrs())
	}
	u := d.Attrs().Attrs()
	vals := make([]int, len(u))
	for more := true; more; more = odometer(vals, top) {
		in := true
		for i, r := range d.Rels {
			var key []int
			for k, a := range u {
				if r.Has(a) {
					key = append(key, vals[k])
				}
			}
			if in = members[i][fmt.Sprint(key)]; !in {
				break
			}
		}
		if in {
			return fmt.Errorf("gen: the join holds %v over %s", vals, d.U.FormatSet(d.Attrs()))
		}
	}
	return nil
}

// odometer advances vals, each digit over 0 … top, to the next
// assignment, and reports false when it wraps back to all zeros.
func odometer(vals []int, top int) bool {
	for k := range vals {
		if vals[k] < top {
			vals[k]++
			return true
		}
		vals[k] = 0
	}
	return false
}
