package relation

import (
	"fmt"
	"math/bits"

	"gyokit/internal/schema"
)

// Exec is a reusable execution context for the relational operators.
// It owns the scratch state the operators need — one open-addressing
// slot table, chain links and a key word per build row, an output-row
// buffer, and column position maps — so a program that evaluates many
// statements (a §6 semijoin program, a Yannakakis plan, a full reducer)
// reuses one set of allocations instead of rebuilding them per
// statement. Its table is the only hash table a statement touches: Join
// and Semijoin build their key sets in it, keyed by the shared columns
// themselves (keyWord: 12 B of scratch per build row beside the slots,
// nothing per slot), Project deduplicates in it by row hash, and every
// operator emits an index-free output by plain appends (the output's own
// set index is built only if something later asks it for membership —
// see the package comment). The zero value is ready to use; an Exec must
// not be used concurrently.
type Exec struct {
	slots []int32  // open addressing: row index + 1; 0 = empty
	next  []int32  // same-key chain: next row index + 1; 0 = end
	words []uint64 // key word of each build row, by position
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

// keyWord returns the 64-bit key word of row's columns pos. A key of at
// most two columns is the columns themselves — exact: equal words are
// equal keys, and nothing is fetched to verify a match. A wider key is an
// FNV-1a fold of its columns — inexact: a word match is verified
// column-by-column (keyEqual). Both pack through uint32, so (-1, 0) and
// (0, -1) are distinct words.
func keyWord(row []Value, pos []int) uint64 {
	switch len(pos) {
	case 0:
		return 0
	case 1:
		return uint64(uint32(row[pos[0]]))
	case 2:
		return uint64(uint32(row[pos[0]]))<<32 | uint64(uint32(row[pos[1]]))
	}
	w := uint64(fnvOffset64)
	for _, p := range pos {
		w ^= uint64(uint32(row[p]))
		w *= fnvPrime64
	}
	return w
}

// Two values fill a key word exactly only while a Value is 32 bits.
var (
	_ [4 - ValueBytes]struct{}
	_ [ValueBytes - 4]struct{}
)

// keySlot maps a key word to its home slot in a table of 1<<(64-shift)
// slots: a multiplicative mix whose top bits depend on every bit of the
// word, packed columns included.
func keySlot(w uint64, shift uint) uint64 {
	return (w ^ w>>29) * 0x9E3779B97F4A7C15 >> shift
}

// keyEqual reports whether the key columns bPos of build row i equal
// the key columns pos of row. Only an inexact key (more than two
// columns) ever needs it.
func keyEqual(build *Relation, i int, bPos []int, row []Value, pos []int) bool {
	brow := build.row(i)
	for k, p := range bPos {
		if brow[p] != row[pos[k]] {
			return false
		}
	}
	return true
}

// keyTable is the build side of a Join or Semijoin: an open-addressing
// table over the Exec's scratch, keyed by the key word of the build
// relation's columns pos. A slot names one build row (position + 1) per
// distinct key; words holds the key word of every build row, by
// position, so a probe reads slots[j], then words[head-1], and — the
// key being exact — is done.
type keyTable struct {
	slots []int32
	words []uint64
	shift uint
	mask  uint64
	exact bool
	build *Relation
	pos   []int
}

// buildKeys enters every live row of build into a fresh keyTable on its
// columns pos. The first row of a key claims a slot. With chain, later
// rows of the key are linked in front of it through e.next (newest
// first) and the slot names the newest — Join's buckets; without, they
// are dropped — Semijoin's key set.
func (e *Exec) buildKeys(build *Relation, pos []int, chain bool) keyTable {
	nSlots := tableSize(build.Card())
	slots := e.slotScratch(nSlots)
	words := uint64Scratch(e.words, build.n)
	e.words = words
	var next []int32
	if chain {
		next = int32Scratch(e.next, build.n)
		e.next = next
	}
	shift := uint(64 - bits.TrailingZeros(uint(nSlots)))
	mask := uint64(nSlots - 1)
	exact := len(pos) <= 2
	w := build.width
	for c := range build.chunks {
		ch := &build.chunks[c]
		data, dead := ch.data, ch.dead
		for k := range ch.hashes {
			if dead != nil && dead.has(k) {
				continue
			}
			row := data[k*w : k*w+w]
			i := c<<chunkShift + k
			word := keyWord(row, pos)
			words[i] = word
			j := keySlot(word, shift)
			for {
				head := slots[j]
				if head == 0 {
					slots[j] = int32(i + 1)
					if chain {
						next[i] = 0
					}
					break
				}
				if words[head-1] == word && (exact || keyEqual(build, int(head-1), pos, row, pos)) {
					if chain {
						next[i] = head
						slots[j] = int32(i + 1)
					}
					break
				}
				j = (j + 1) & mask
			}
		}
	}
	return keyTable{slots: slots, words: words, shift: shift, mask: mask, exact: exact, build: build, pos: pos}
}

// lookup returns the slot value (build row position + 1) of the key in
// row's columns pos, or 0 when no build row carries it.
func (t *keyTable) lookup(row []Value, pos []int) int32 {
	word := keyWord(row, pos)
	for j := keySlot(word, t.shift); ; j = (j + 1) & t.mask {
		head := t.slots[j]
		if head == 0 || t.words[head-1] == word && (t.exact || keyEqual(t.build, int(head-1), t.pos, row, pos)) {
			return head
		}
	}
}

// Join returns the natural join r ⋈ s: a hash join on the shared
// attributes (a cross product when none are shared). The smaller side
// is built into a bucket-chained open-addressing table keyed by the key
// word of its shared columns (keyWord): the columns themselves when
// there are at most two, so a word match is the match; a fold of them
// otherwise, verified column-by-column, so collisions never produce
// wrong results. Both sides are walked chunk by chunk.
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
	t := e.buildKeys(build, bPos, true)
	next := e.next // bucket chains, newest build row first

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
	w := probe.width
	for c := range probe.chunks {
		ch := &probe.chunks[c]
		for k := range ch.hashes {
			if ch.dead != nil && ch.dead.has(k) {
				continue
			}
			prow := ch.data[k*w : k*w+w]
			for bi := t.lookup(prow, pPos); bi != 0; bi = next[bi-1] {
				brow := build.row(int(bi - 1))
				for o, sc := range srcs {
					if sc >= 0 {
						obuf[o] = prow[sc]
					} else {
						obuf[o] = brow[^sc]
					}
				}
				out.appendRow(obuf, hashValues(obuf))
			}
		}
	}
	return out
}

// Semijoin returns r ⋉ s = π_{attrs(r)}(r ⋈ s): the tuples of r that
// join with at least one tuple of s. The distinct shared-column keys of
// s form an open-addressing set — Join's build table without the chains,
// keyed by the same key word, so for a key of up to two columns a probe
// never touches a row of s — which every row of r probes, chunk by
// chunk. While every row of r so far has survived, nothing is copied: at
// the first dropped row (or the end) the output adopts that clean
// prefix, sharing its full chunks with r — ids included, the way compact
// shares the chunks before a delete — and only the rows from the first
// drop's chunk onward are repacked, with their stored hashes. A dead row
// of r is a dropped row, so the output is dense whatever r carries. A
// semijoin that filters nothing, the steady state of a full reducer over
// consistent data, costs the build, the probes, a chunk-table copy and
// two block copies of the tail.
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
	t := e.buildKeys(s, sPos, false)
	out := New(r.U, r.attrs)
	out.reserved = r.Card() // upper bound
	// clean: no row dropped yet, so out is still empty.
	clean := true
	w := r.width
	for c := range r.chunks {
		ch := &r.chunks[c]
		for k, h := range ch.hashes {
			row := ch.data[k*w : k*w+w]
			hit := (ch.dead == nil || !ch.dead.has(k)) && t.lookup(row, rPos) != 0
			switch {
			case hit && !clean:
				out.appendRow(row, h)
			case !hit && clean:
				clean = false
				out.adoptPrefix(r, c<<chunkShift+k)
			}
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
