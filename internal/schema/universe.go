package schema

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Universe interns attribute names. All schemas participating in one
// analysis must share a Universe so that their bitsets line up.
//
// A Universe is safe for concurrent use: interning takes a write lock
// and lookups take a read lock, so a serving layer can parse new
// schemas while other goroutines format existing ones.
// Attribute ids are append-only — once interned, an id never changes.
type Universe struct {
	mu    sync.RWMutex
	names []string
	index map[string]Attr
}

// NewUniverse returns an empty attribute universe.
func NewUniverse() *Universe {
	return &Universe{index: make(map[string]Attr)}
}

// Attr interns name and returns its attribute id, allocating a new id for
// unseen names.
func (u *Universe) Attr(name string) Attr {
	u.mu.RLock()
	a, ok := u.index[name]
	u.mu.RUnlock()
	if ok {
		return a
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if a, ok := u.index[name]; ok { // interned while upgrading the lock
		return a
	}
	a = Attr(len(u.names))
	u.names = append(u.names, name)
	u.index[name] = a
	return a
}

// Lookup returns the id for name without interning. ok is false when the
// name has never been interned.
func (u *Universe) Lookup(name string) (a Attr, ok bool) {
	u.mu.RLock()
	defer u.mu.RUnlock()
	a, ok = u.index[name]
	return a, ok
}

// Name returns the interned name of a. It panics if a was never allocated
// by this universe.
func (u *Universe) Name(a Attr) string {
	u.mu.RLock()
	defer u.mu.RUnlock()
	if int(a) < 0 || int(a) >= len(u.names) {
		panic(fmt.Sprintf("schema: attribute %d not in universe (size %d)", a, len(u.names)))
	}
	return u.names[int(a)]
}

// Size returns the number of interned attributes.
func (u *Universe) Size() int {
	u.mu.RLock()
	defer u.mu.RUnlock()
	return len(u.names)
}

// All returns the set of every interned attribute.
func (u *Universe) All() AttrSet {
	u.mu.RLock()
	defer u.mu.RUnlock()
	var s AttrSet
	for i := range u.names {
		s.add(Attr(i))
	}
	return s
}

// Set interns the given names and returns the corresponding set.
func (u *Universe) Set(names ...string) AttrSet {
	var s AttrSet
	for _, n := range names {
		s.add(u.Attr(n))
	}
	return s
}

// FormatSet renders a set using this universe's attribute names. Names
// are concatenated when every name is a single character (the paper's
// "abc" style) and joined by spaces otherwise. The empty set renders
// as "∅".
func (u *Universe) FormatSet(s AttrSet) string {
	attrs := s.Attrs()
	if len(attrs) == 0 {
		return "∅"
	}
	parts := make([]string, len(attrs))
	compact := true
	for i, a := range attrs {
		parts[i] = u.Name(a)
		// Concatenation must survive a round trip through Parse, whose
		// single-token path splits on letter/digit runes only.
		if len(parts[i]) != 1 || !isAlnumByte(parts[i][0]) {
			compact = false
		}
	}
	// Sort by name so output is stable even if interning order differs.
	sort.Strings(parts)
	if compact {
		return strings.Join(parts, "")
	}
	return strings.Join(parts, " ")
}

// isAlnumByte reports whether b is an ASCII letter or digit.
func isAlnumByte(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9'
}
