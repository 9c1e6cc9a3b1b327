package relation

import (
	"fmt"

	"gyokit/internal/schema"
)

// Exec is a reusable execution context for the relational operators.
// It owns the scratch state the operators need — open-addressing hash
// tables, chain links, per-row key hashes, gather buffers, and column
// position maps — so a program that evaluates many statements (a §6
// semijoin program, a Yannakakis plan, a full reducer) reuses one set
// of allocations instead of rebuilding them per statement. Its tables
// are the only hash tables a statement touches: Join and Semijoin build
// their key sets in them, Project deduplicates in them, and every
// operator emits an index-free output by plain appends (the output's own
// set index is built only if something later asks it for membership —
// see the package comment). The zero value is ready to use; an Exec must
// not be used concurrently.
type Exec struct {
	slots []int32 // open addressing: row index + 1; 0 = empty
	next  []int32 // same-key chain: next row index + 1; 0 = end
	keyh  []uint64
	kbuf  []Value
	obuf  []Value
	posA  []int
	posB  []int
	srcs  []int32
}

// NewExec returns a fresh execution context.
func NewExec() *Exec { return &Exec{} }

// slotScratch returns e.slots resized to n and zeroed.
func (e *Exec) slotScratch(n int) []int32 {
	if cap(e.slots) < n {
		e.slots = make([]int32, n)
	} else {
		e.slots = e.slots[:n]
		clear(e.slots)
	}
	return e.slots
}

func int32Scratch(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func intScratch(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func valScratch(s []Value, n int) []Value {
	if cap(s) < n {
		return make([]Value, n)
	}
	return s[:n]
}

func uint64Scratch(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

// Project returns π_x(r). x must be a subset of r's attributes.
// Projection is the one operator that can create duplicates; they are
// eliminated in the Exec's slot table — sized for r's cardinality, the
// output's upper bound, so it never grows — whose slots name output
// rows.
func (e *Exec) Project(r *Relation, x schema.AttrSet) *Relation {
	if !x.SubsetOf(r.attrs) {
		panic(fmt.Sprintf("relation: projection %s ⊄ %s",
			r.U.FormatSet(x), r.U.FormatSet(r.attrs)))
	}
	out := New(r.U, x)
	out.reserved = r.Card() // upper bound
	pos := intScratch(e.posA, out.width)
	e.posA = pos
	for i, c := range out.cols {
		pos[i] = r.colPos(c)
	}
	buf := valScratch(e.obuf, out.width)
	e.obuf = buf
	nSlots := tableSize(r.Card())
	mask := uint64(nSlots - 1)
	slots := e.slotScratch(nSlots)
	for i := r.nextLive(0); i < r.n; i = r.nextLive(i + 1) {
		row := r.row(i)
		for k, p := range pos {
			buf[k] = row[p]
		}
		h := hashValues(buf)
		j := h & mask
		for {
			s := slots[j]
			if s == 0 {
				slots[j] = int32(out.n + 1)
				out.appendRow(buf, h)
				break
			}
			if o := int(s - 1); out.hash(o) == h && valuesEqual(out.row(o), buf) {
				break // duplicate
			}
			j = (j + 1) & mask
		}
	}
	return out
}

// keyEqual reports whether the key columns pos of row i of r equal key.
func keyEqual(r *Relation, i int, pos []int, key []Value) bool {
	row := r.row(i)
	for k, p := range pos {
		if row[p] != key[k] {
			return false
		}
	}
	return true
}

// Join returns the natural join r ⋈ s: a hash join on the shared
// attributes (a cross product when none are shared). The smaller side
// is built into a bucket-chained open-addressing table keyed by the
// 64-bit hash of its shared columns; probe-side matches are verified
// column-by-column, so hash collisions never produce wrong results.
// Two distinct (r-row, s-row) pairs differ on some column of the result,
// so output rows are appended without a duplicate check.
func (e *Exec) Join(r, s *Relation) *Relation {
	build, probe := r, s
	if s.Card() < r.Card() {
		build, probe = s, r
	}
	shared := r.attrs.Intersect(s.attrs)
	sharedCols := shared.Attrs()
	bPos := intScratch(e.posA, len(sharedCols))
	pPos := intScratch(e.posB, len(sharedCols))
	e.posA, e.posB = bPos, pPos
	for i, c := range sharedCols {
		bPos[i] = build.colPos(c)
		pPos[i] = probe.colPos(c)
	}

	// Build: distinct keys claim slots; rows sharing a key are chained
	// through next (newest first). next and keyh are indexed by row
	// position, the table holds live rows only.
	nSlots := tableSize(build.Card())
	mask := uint64(nSlots - 1)
	slots := e.slotScratch(nSlots)
	next := int32Scratch(e.next, build.n)
	e.next = next
	keyh := uint64Scratch(e.keyh, build.n)
	e.keyh = keyh
	kbuf := valScratch(e.kbuf, len(sharedCols))
	e.kbuf = kbuf
	for i := build.nextLive(0); i < build.n; i = build.nextLive(i + 1) {
		row := build.row(i)
		for k, p := range bPos {
			kbuf[k] = row[p]
		}
		h := hashValues(kbuf)
		keyh[i] = h
		j := h & mask
		for {
			head := slots[j]
			if head == 0 {
				slots[j] = int32(i + 1)
				next[i] = 0
				break
			}
			if hi := int(head - 1); keyh[hi] == h && keyEqual(build, hi, bPos, kbuf) {
				next[i] = head
				slots[j] = int32(i + 1)
				break
			}
			j = (j + 1) & mask
		}
	}

	out := New(r.U, r.attrs.Union(s.attrs))
	// A guess, not a bound: the joins a reduced Yannakakis plan runs are
	// key–foreign-key shaped and emit about one row per probe row.
	out.reserved = probe.Card()
	// Output column sources: from probe where present, else from build.
	// srcs[k] ≥ 0 is a probe column; srcs[k] < 0 is build column ^srcs[k].
	srcs := int32Scratch(e.srcs, out.width)
	e.srcs = srcs
	for i, c := range out.cols {
		if probe.attrs.Has(c) {
			srcs[i] = int32(probe.colPos(c))
		} else {
			srcs[i] = int32(^build.colPos(c))
		}
	}
	obuf := valScratch(e.obuf, out.width)
	e.obuf = obuf
	for pi := probe.nextLive(0); pi < probe.n; pi = probe.nextLive(pi + 1) {
		prow := probe.row(pi)
		for k, p := range pPos {
			kbuf[k] = prow[p]
		}
		h := hashValues(kbuf)
		j := h & mask
		for {
			head := slots[j]
			if head == 0 {
				break // key absent from build side
			}
			hi := int(head - 1)
			if keyh[hi] != h || !keyEqual(build, hi, bPos, kbuf) {
				j = (j + 1) & mask
				continue
			}
			for bi := head; bi != 0; bi = next[bi-1] {
				brow := build.row(int(bi - 1))
				for k, sc := range srcs {
					if sc >= 0 {
						obuf[k] = prow[sc]
					} else {
						obuf[k] = brow[^sc]
					}
				}
				out.appendRow(obuf, hashValues(obuf))
			}
			break
		}
	}
	return out
}

// Semijoin returns r ⋉ s = π_{attrs(r)}(r ⋈ s): the tuples of r that
// join with at least one tuple of s. The distinct shared-column keys of
// s form an open-addressing set (each slot keeps a representative
// s-row for collision verification). While every row of r so far has
// survived, nothing is copied: at the first dropped row (or the end) the
// output adopts that clean prefix, sharing its full chunks with r —
// ids included, the way compact shares the chunks before a delete — and
// only the rows from the first drop's chunk onward are repacked, with
// their stored hashes. A dead row of r is a dropped row, so the output
// is dense whatever r carries. A semijoin that filters nothing, the steady
// state of a full reducer over consistent data, costs a chunk-table
// copy plus the tail.
func (e *Exec) Semijoin(r, s *Relation) *Relation {
	shared := r.attrs.Intersect(s.attrs)
	sharedCols := shared.Attrs()
	sPos := intScratch(e.posA, len(sharedCols))
	rPos := intScratch(e.posB, len(sharedCols))
	e.posA, e.posB = sPos, rPos
	for i, c := range sharedCols {
		sPos[i] = s.colPos(c)
		rPos[i] = r.colPos(c)
	}
	nSlots := tableSize(s.Card())
	mask := uint64(nSlots - 1)
	slots := e.slotScratch(nSlots)
	keyh := uint64Scratch(e.keyh, s.n)
	e.keyh = keyh
	kbuf := valScratch(e.kbuf, len(sharedCols))
	e.kbuf = kbuf
	for i := s.nextLive(0); i < s.n; i = s.nextLive(i + 1) {
		row := s.row(i)
		for k, p := range sPos {
			kbuf[k] = row[p]
		}
		h := hashValues(kbuf)
		keyh[i] = h
		j := h & mask
		for {
			head := slots[j]
			if head == 0 {
				slots[j] = int32(i + 1)
				break
			}
			if hi := int(head - 1); keyh[hi] == h && keyEqual(s, hi, sPos, kbuf) {
				break // key already present
			}
			j = (j + 1) & mask
		}
	}
	out := New(r.U, r.attrs)
	out.reserved = r.Card() // upper bound
	// clean: no row dropped yet, so out is still empty.
	clean := true
	for i := 0; i < r.n; i++ {
		row := r.row(i)
		hit := false
		if r.dead == 0 || !r.isDead(i) {
			for k, p := range rPos {
				kbuf[k] = row[p]
			}
			h := hashValues(kbuf)
			j := h & mask
			for {
				head := slots[j]
				if head == 0 {
					break
				}
				if hi := int(head - 1); keyh[hi] == h && keyEqual(s, hi, sPos, kbuf) {
					hit = true
					break
				}
				j = (j + 1) & mask
			}
		}
		switch {
		case hit && !clean:
			out.appendRow(row, r.hash(i))
		case !hit && clean:
			clean = false
			out.adoptPrefix(r, i)
		}
	}
	if clean {
		out.adoptPrefix(r, r.n)
	}
	return out
}

// JoinAll folds the natural join over rels greedily: it starts from
// the smallest relation and repeatedly joins the smallest relation
// that shares an attribute with the accumulated schema, falling back
// to the smallest remaining relation only when a cross product is
// unavoidable. Ties break toward the earlier input position, so the
// order — and therefore the result, join being commutative and
// associative — is deterministic. It panics on an empty input.
func (e *Exec) JoinAll(rels []*Relation) *Relation {
	if len(rels) == 0 {
		panic("relation: JoinAll of nothing")
	}
	rest := append([]*Relation(nil), rels...)
	start := 0
	for i, r := range rest {
		if r.Card() < rest[start].Card() {
			start = i
		}
	}
	acc := rest[start]
	rest = append(rest[:start], rest[start+1:]...)
	attrs := acc.attrs
	for len(rest) > 0 {
		pick := -1
		for i, r := range rest {
			if attrs.Intersects(r.attrs) && (pick < 0 || r.Card() < rest[pick].Card()) {
				pick = i
			}
		}
		if pick < 0 { // disconnected: cross product with the smallest
			pick = 0
			for i, r := range rest {
				if r.Card() < rest[pick].Card() {
					pick = i
				}
			}
		}
		acc = e.Join(acc, rest[pick])
		attrs = acc.attrs
		rest = append(rest[:pick], rest[pick+1:]...)
	}
	return acc
}
