package schema

import (
	"fmt"
	"sort"
	"strings"
)

// Schema is a database schema: a multiset of relation schemas over a
// shared Universe (paper §2). Order is preserved — the i-th relation
// schema corresponds to the paper's Rᵢ — and duplicates are allowed.
type Schema struct {
	U    *Universe
	Rels []AttrSet
}

// New returns a schema over u with the given relation schemas.
func New(u *Universe, rels ...AttrSet) *Schema {
	return &Schema{U: u, Rels: append([]AttrSet(nil), rels...)}
}

// Clone returns a deep copy sharing the same Universe.
func (d *Schema) Clone() *Schema {
	rels := make([]AttrSet, len(d.Rels))
	for i, r := range d.Rels {
		rels[i] = r.Clone()
	}
	return &Schema{U: d.U, Rels: rels}
}

// Len returns the number of relation schemas (counting duplicates).
func (d *Schema) Len() int { return len(d.Rels) }

// Attrs returns U(D) = ∪ᵢ Rᵢ, the attributes of the schema.
func (d *Schema) Attrs() AttrSet {
	n := 0
	for _, r := range d.Rels {
		n = max(n, len(r.words))
	}
	s := AttrSet{words: make([]uint64, n)}
	for _, r := range d.Rels {
		for i, w := range r.words {
			s.words[i] |= w
		}
	}
	s.trim()
	return s
}

// Add appends a relation schema.
func (d *Schema) Add(r AttrSet) { d.Rels = append(d.Rels, r) }

// WithRel returns a copy of d with r appended (the paper's D ∪ (R)).
func (d *Schema) WithRel(r AttrSet) *Schema {
	c := d.Clone()
	c.Add(r)
	return c
}

// RemoveAt returns a copy of d with the i-th relation schema removed.
func (d *Schema) RemoveAt(i int) *Schema {
	c := d.Clone()
	c.Rels = append(c.Rels[:i], c.Rels[i+1:]...)
	return c
}

// Contains reports whether some relation schema of d equals r.
func (d *Schema) Contains(r AttrSet) bool {
	for _, s := range d.Rels {
		if s.Equal(r) {
			return true
		}
	}
	return false
}

// IsReduced reports whether no relation schema is a subset of another
// (paper §2). Duplicates make a schema non-reduced.
func (d *Schema) IsReduced() bool {
	for i, r := range d.Rels {
		for j, s := range d.Rels {
			if i == j {
				continue
			}
			if r.SubsetOf(s) && (!s.SubsetOf(r) || i > j) {
				// r ⊂ s, or r = s and we keep the earlier copy.
				return false
			}
		}
	}
	return true
}

// Reduce returns the reduction of d: relation schemas that are subsets of
// others (including duplicates) are eliminated. The first occurrence of
// each maximal set is kept, preserving order.
func (d *Schema) Reduce() *Schema {
	keep := make([]bool, len(d.Rels))
	for i := range keep {
		keep[i] = true
	}
	for i, r := range d.Rels {
		if !keep[i] {
			continue
		}
		for j, s := range d.Rels {
			if i == j || !keep[i] {
				continue
			}
			if !keep[j] {
				continue
			}
			if r.SubsetOf(s) {
				if s.SubsetOf(r) {
					// duplicates: drop the later one
					if i > j {
						keep[i] = false
					} else {
						keep[j] = false
					}
				} else {
					keep[i] = false
				}
			}
		}
	}
	out := &Schema{U: d.U}
	for i, r := range d.Rels {
		if keep[i] {
			out.Rels = append(out.Rels, r.Clone())
		}
	}
	return out
}

// LE reports the paper's D′ ≤ D: for every R′ ∈ d there is R ∈ e with
// R′ ⊆ R.
func (d *Schema) LE(e *Schema) bool {
	for _, r := range d.Rels {
		ok := false
		for _, s := range e.Rels {
			if r.SubsetOf(s) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// SubmultisetOf reports whether every relation schema of d occurs in e
// at least as many times as in d (the paper's D′ ⊆ D for schemas).
func (d *Schema) SubmultisetOf(e *Schema) bool {
	used := make([]bool, len(e.Rels))
	for _, r := range d.Rels {
		found := false
		for j, s := range e.Rels {
			if !used[j] && r.Equal(s) {
				used[j] = true
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// SetEqual reports whether d and e contain the same relation schemas as
// sets (ignoring multiplicity and order).
func (d *Schema) SetEqual(e *Schema) bool {
	return d.subsetAsSet(e) && e.subsetAsSet(d)
}

func (d *Schema) subsetAsSet(e *Schema) bool {
	for _, r := range d.Rels {
		if !e.Contains(r) {
			return false
		}
	}
	return true
}

// MultisetEqual reports whether d and e are equal as multisets.
func (d *Schema) MultisetEqual(e *Schema) bool {
	return len(d.Rels) == len(e.Rels) && d.SubmultisetOf(e)
}

// DeleteAttrs returns the schema (R − X | R ∈ D): x removed uniformly
// from every relation schema. Empty relation schemas are kept (callers
// that want them gone should Reduce).
func (d *Schema) DeleteAttrs(x AttrSet) *Schema {
	out := &Schema{U: d.U}
	for _, r := range d.Rels {
		out.Rels = append(out.Rels, r.Diff(x))
	}
	return out
}

// Restrict returns the sub-schema of relation schemas at the given indexes.
func (d *Schema) Restrict(idx []int) *Schema {
	out := &Schema{U: d.U}
	for _, i := range idx {
		out.Rels = append(out.Rels, d.Rels[i].Clone())
	}
	return out
}

// Connected reports whether d is connected: every pair of non-empty
// relation schemas is linked by a path of relation schemas in which
// adjacent schemas share at least one attribute (paper §5.2).
// Schemas with at most one non-empty relation are connected; empty
// relation schemas are ignored.
func (d *Schema) Connected() bool {
	return len(d.Components()) <= 1
}

// Components returns the connected components of d as lists of relation
// indexes. Empty relation schemas are omitted from every component.
func (d *Schema) Components() [][]int {
	n := len(d.Rels)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(i, j int) {
		ri, rj := find(i), find(j)
		if ri != rj {
			parent[ri] = rj
		}
	}
	for i := 0; i < n; i++ {
		if d.Rels[i].IsEmpty() {
			continue
		}
		for j := i + 1; j < n; j++ {
			if d.Rels[j].IsEmpty() {
				continue
			}
			if d.Rels[i].Intersects(d.Rels[j]) {
				union(i, j)
			}
		}
	}
	groups := map[int][]int{}
	var roots []int
	for i := 0; i < n; i++ {
		if d.Rels[i].IsEmpty() {
			continue
		}
		r := find(i)
		if _, ok := groups[r]; !ok {
			roots = append(roots, r)
		}
		groups[r] = append(groups[r], i)
	}
	out := make([][]int, 0, len(roots))
	for _, r := range roots {
		out = append(out, groups[r])
	}
	return out
}

// AttrOccurrences returns, for each attribute of the universe, how many
// relation schemas of d contain it.
func (d *Schema) AttrOccurrences() []int {
	counts := make([]int, d.U.Size())
	for _, r := range d.Rels {
		r.ForEach(func(a Attr) bool {
			counts[a]++
			return true
		})
	}
	return counts
}

// Canonical returns the relation schemas sorted into Compare order; used
// for order-insensitive comparison and printing.
func (d *Schema) Canonical() []AttrSet {
	out := make([]AttrSet, len(d.Rels))
	for i, r := range d.Rels {
		out[i] = r.Clone()
	}
	SortSets(out)
	return out
}

// Key returns a canonical string key for the multiset of relation
// schemas, suitable for map keys and duplicate detection.
func (d *Schema) Key() string {
	cs := d.Canonical()
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = c.Key()
	}
	return strings.Join(parts, "|")
}

// String renders the schema in the paper's notation, e.g. "(ab, bc, cd)".
func (d *Schema) String() string {
	parts := make([]string, len(d.Rels))
	for i, r := range d.Rels {
		parts[i] = d.U.FormatSet(r)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// SortedString renders the schema with relation schemas in canonical
// order, for order-insensitive golden comparisons.
func (d *Schema) SortedString() string {
	cs := d.Canonical()
	parts := make([]string, len(cs))
	for i, r := range cs {
		parts[i] = d.U.FormatSet(r)
	}
	sort.Strings(parts)
	return "(" + strings.Join(parts, ", ") + ")"
}

// Validate checks internal consistency: every attribute is interned in
// the universe.
func (d *Schema) Validate() error {
	if d.U == nil {
		return fmt.Errorf("schema: nil universe")
	}
	size := d.U.Size()
	for i, r := range d.Rels {
		if top := r.top(); int(top) >= size {
			return fmt.Errorf("schema: relation %d uses attribute %d beyond universe size %d", i, top, size)
		}
	}
	return nil
}
