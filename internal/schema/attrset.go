// Package schema implements the basic objects of the paper's Section 2:
// attributes, relation schemas (sets of attributes), and database schemas
// (multisets of relation schemas), together with the Aring and Aclique
// families of Section 3.1.
//
// Attributes are interned integers managed by a Universe; attribute sets
// are bitsets so that the set algebra used pervasively by GYO reductions,
// tableaux, and qual-graph checks is word-parallel.
package schema

import (
	"math/bits"
	"sort"
	"strings"
)

// Attr identifies an attribute within a Universe. Attributes are dense,
// starting at 0, in order of interning.
type Attr int

// AttrSet is a set of attributes represented as a bitset. The zero value
// is the empty set. AttrSet values are immutable by convention: all
// methods return new sets and never modify the receiver. (The lower-case
// mutators are internal.)
type AttrSet struct {
	words []uint64
}

const wordBits = 64

// NewAttrSet returns the set containing exactly the given attributes.
func NewAttrSet(attrs ...Attr) AttrSet {
	var s AttrSet
	for _, a := range attrs {
		s.add(a)
	}
	return s
}

func (s *AttrSet) ensure(w int) {
	for len(s.words) <= w {
		s.words = append(s.words, 0)
	}
}

func (s *AttrSet) add(a Attr) {
	if a < 0 {
		panic("schema: negative attribute")
	}
	w := int(a) / wordBits
	s.ensure(w)
	s.words[w] |= 1 << (uint(a) % wordBits)
}

func (s *AttrSet) remove(a Attr) {
	if a < 0 {
		return
	}
	w := int(a) / wordBits
	if w < len(s.words) {
		s.words[w] &^= 1 << (uint(a) % wordBits)
	}
}

// trim drops trailing zero words so that Equal and Hash are canonical.
func (s *AttrSet) trim() {
	n := len(s.words)
	for n > 0 && s.words[n-1] == 0 {
		n--
	}
	s.words = s.words[:n]
}

// Has reports whether a is in the set.
func (s AttrSet) Has(a Attr) bool {
	if a < 0 {
		return false
	}
	w := int(a) / wordBits
	if w >= len(s.words) {
		return false
	}
	return s.words[w]&(1<<(uint(a)%wordBits)) != 0
}

// Card returns the number of attributes in the set.
func (s AttrSet) Card() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// IsEmpty reports whether the set is empty.
func (s AttrSet) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Add returns s ∪ {a}.
func (s AttrSet) Add(a Attr) AttrSet {
	t := s.Clone()
	t.add(a)
	return t
}

// Remove returns s − {a}.
func (s AttrSet) Remove(a Attr) AttrSet {
	t := s.Clone()
	t.remove(a)
	t.trim()
	return t
}

// Clone returns an independent copy of s.
func (s AttrSet) Clone() AttrSet {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	return AttrSet{words: w}
}

// Union returns s ∪ t.
func (s AttrSet) Union(t AttrSet) AttrSet {
	a, b := s.words, t.words
	if len(a) < len(b) {
		a, b = b, a
	}
	w := make([]uint64, len(a))
	copy(w, a)
	for i := range b {
		w[i] |= b[i]
	}
	return AttrSet{words: w}
}

// Intersect returns s ∩ t.
func (s AttrSet) Intersect(t AttrSet) AttrSet {
	n := min(len(s.words), len(t.words))
	w := make([]uint64, n)
	for i := 0; i < n; i++ {
		w[i] = s.words[i] & t.words[i]
	}
	r := AttrSet{words: w}
	r.trim()
	return r
}

// Diff returns s − t.
func (s AttrSet) Diff(t AttrSet) AttrSet {
	w := make([]uint64, len(s.words))
	copy(w, s.words)
	n := min(len(w), len(t.words))
	for i := 0; i < n; i++ {
		w[i] &^= t.words[i]
	}
	r := AttrSet{words: w}
	r.trim()
	return r
}

// Intersects reports whether s ∩ t ≠ ∅ without allocating.
func (s AttrSet) Intersects(t AttrSet) bool {
	n := min(len(s.words), len(t.words))
	for i := 0; i < n; i++ {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// IntersectCard returns |s ∩ t| without allocating.
func (s AttrSet) IntersectCard(t AttrSet) int {
	n := min(len(s.words), len(t.words))
	c := 0
	for i := 0; i < n; i++ {
		c += bits.OnesCount64(s.words[i] & t.words[i])
	}
	return c
}

// SubsetOf reports whether s ⊆ t.
func (s AttrSet) SubsetOf(t AttrSet) bool {
	for i, w := range s.words {
		if w == 0 {
			continue
		}
		if i >= len(t.words) || w&^t.words[i] != 0 {
			return false
		}
	}
	return true
}

// ProperSubsetOf reports whether s ⊂ t.
func (s AttrSet) ProperSubsetOf(t AttrSet) bool {
	return s.SubsetOf(t) && !t.SubsetOf(s)
}

// Equal reports whether s and t contain the same attributes.
func (s AttrSet) Equal(t AttrSet) bool {
	a, b := s.words, t.words
	if len(a) > len(b) {
		a, b = b, a
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	for i := len(a); i < len(b); i++ {
		if b[i] != 0 {
			return false
		}
	}
	return true
}

// ForEach calls f for every attribute in ascending order. If f returns
// false, iteration stops.
func (s AttrSet) ForEach(f func(Attr) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !f(Attr(wi*wordBits + b)) {
				return
			}
			w &= w - 1
		}
	}
}

// Attrs returns the attributes in ascending order.
func (s AttrSet) Attrs() []Attr {
	out := make([]Attr, 0, s.Card())
	s.ForEach(func(a Attr) bool {
		out = append(out, a)
		return true
	})
	return out
}

// Min returns the smallest attribute in the set, or -1 if empty.
func (s AttrSet) Min() Attr {
	for wi, w := range s.words {
		if w != 0 {
			return Attr(wi*wordBits + bits.TrailingZeros64(w))
		}
	}
	return -1
}

// top returns the largest attribute in the set, or -1 if empty.
func (s AttrSet) top() Attr {
	for wi := len(s.words) - 1; wi >= 0; wi-- {
		if w := s.words[wi]; w != 0 {
			return Attr(wi*wordBits + wordBits - 1 - bits.LeadingZeros64(w))
		}
	}
	return -1
}

// Hash returns a 64-bit hash of the set, equal for Equal sets.
func (s AttrSet) Hash() uint64 {
	var h uint64 = 1469598103934665603 // FNV offset basis
	for i := len(s.words) - 1; i >= 0; i-- {
		if s.words[i] == 0 && h == 1469598103934665603 {
			continue // skip leading zero words for canonicality
		}
		h ^= s.words[i]
		h *= 1099511628211
	}
	return h
}

// Key returns a canonical comparable key for use in maps.
func (s AttrSet) Key() string {
	t := s.Clone()
	t.trim()
	var b strings.Builder
	for _, w := range t.words {
		var buf [8]byte
		for i := 0; i < 8; i++ {
			buf[i] = byte(w >> (8 * i))
		}
		b.Write(buf[:])
	}
	return b.String()
}

// Compare orders sets first by cardinality, then lexicographically by
// attribute sequence; it returns -1, 0, or +1. Used for canonical
// orderings in printing and deterministic iteration.
func (s AttrSet) Compare(t AttrSet) int {
	if c, d := s.Card(), t.Card(); c != d {
		if c < d {
			return -1
		}
		return 1
	}
	sa, ta := s.Attrs(), t.Attrs()
	for i := range sa {
		if sa[i] != ta[i] {
			if sa[i] < ta[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// SortSets sorts a slice of attribute sets into the canonical Compare order.
func SortSets(sets []AttrSet) {
	sort.Slice(sets, func(i, j int) bool { return sets[i].Compare(sets[j]) < 0 })
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
