package relation

import (
	"fmt"

	"gyokit/internal/schema"
)

// Renamed returns r's tuples as a relation over a different attribute
// vocabulary — the conjunctive-query engine's bridge from stored
// attribute names to query variables. attrs (over universe u) names the
// new columns; src gives, for each new column k (attrs in sorted-id
// order), the index of the r column feeding it. Renaming is a bijection
// on tuples, so the result always has r's cardinality.
//
// When src is the identity permutation and r is frozen, the result is a
// zero-copy frozen view sharing r's chunk table (dead-row bitmaps
// included) and set index, overlay too — O(1), the common case when
// variable interning order matches the stored column order (an
// index-free r builds its index here, once, so every later view shares
// it; a Clone of the view copies what it will write, as a Clone of r
// does). Otherwise the rows are permuted into a fresh index-free
// relation (a row's key word depends on column order, so a permuted
// relation cannot share r's index; a permutation of distinct rows is
// distinct, so it needs none to build).
func (r *Relation) Renamed(u *schema.Universe, attrs schema.AttrSet, src []int) *Relation {
	cols := attrs.Attrs()
	if len(cols) != r.width || len(src) != r.width {
		panic(fmt.Sprintf("relation: Renamed onto %d columns with %d sources, want width %d",
			len(cols), len(src), r.width))
	}
	identity := true
	for k, s := range src {
		if s < 0 || s >= r.width {
			panic(fmt.Sprintf("relation: Renamed source column %d out of range [0, %d)", s, r.width))
		}
		if s != k {
			identity = false
		}
	}
	if identity && r.frozen.Load() {
		r.ensureIndex()
		out := &Relation{
			U:      u,
			attrs:  attrs.Clone(),
			cols:   cols,
			width:  r.width,
			all:    r.all,
			chunks: r.chunks,
			n:      r.n,
			dead:   r.dead,
			base:   r.base,
			over:   r.over,
			baseN:  r.baseN,
		}
		if r.baseOwned {
			// The shared table covers every row; record that so a later
			// Clone of the view reasons about the overlay correctly.
			out.baseN = r.n
		}
		out.frozen.Store(true)
		return out
	}
	out := New(u, attrs)
	out.reserved = r.Card()
	buf := make([]Value, r.width)
	for i := r.nextLive(0); i < r.n; i = r.nextLive(i + 1) {
		row := r.row(i)
		for k, s := range src {
			buf[k] = row[s]
		}
		out.appendRow(buf)
	}
	return out
}
