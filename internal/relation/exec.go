package relation

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"gyokit/internal/schema"
)

// Exec is a reusable execution context for the relational operators.
// It owns the scratch state the operators need — two key tables' worth
// of open-addressing slots, chain links and per-row key words, a small
// group-local deduplication table, an output-row buffer, and column
// position maps — so a program that evaluates many statements (a §6
// semijoin program, a Yannakakis plan, a full reducer) reuses one set of
// allocations instead of rebuilding them per statement. Join and
// Semijoin build their key sets in keys, keyed by the shared columns
// themselves (keyWord: 12 B of scratch per build row beside the slots,
// nothing per slot), and Project deduplicates in keys' slots by row
// hash. A streamed join (JoinProject, JoinFilter) also keys its second
// operand in aux — the probe side chained by the kept columns, or the
// filter's rows — and JoinProject deduplicates in local, a table sized
// by the largest group of one call rather than by |r ⋈ s|. Every
// operator emits an index-free output by plain appends (the output's own
// set index is built only if something later asks it for membership —
// see the package comment). The zero value is ready to use; an Exec must
// not be used concurrently.
type Exec struct {
	keys  keyScratch  // Join's and Semijoin's build side; Project's table
	aux   keyScratch  // JoinProject's probe groups; JoinFilter's filter keys
	local []localSlot // JoinProject's group-local output keys
	obuf  []Value
	pos   []int // column positions of one call, carved per operand
	srcs  []int32
}

// keyScratch is the storage of one keyTable, kept across calls.
type keyScratch struct {
	slots []int32  // open addressing: row index + 1; 0 = empty
	next  []int32  // same-key chain: next row index + 1; 0 = end
	words []uint64 // key word of each row, by position
}

// NewExec returns a fresh execution context.
func NewExec() *Exec { return &Exec{} }

// slotScratch returns ks.slots resized to n and zeroed.
func (ks *keyScratch) slotScratch(n int) []int32 {
	if cap(ks.slots) < n {
		ks.slots = make([]int32, n)
	} else {
		ks.slots = ks.slots[:n]
		clear(ks.slots)
	}
	return ks.slots
}

func int32Scratch(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// positions returns e.pos resized to n; a call carves it into the
// column position lists it needs.
func (e *Exec) positions(n int) []int {
	if cap(e.pos) < n {
		e.pos = make([]int, n)
	}
	e.pos = e.pos[:n]
	return e.pos
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
// Duplicates are eliminated in the Exec's slot table — sized for r's
// cardinality, the output's upper bound, so it never grows — whose
// slots name output rows.
func (e *Exec) Project(r *Relation, x schema.AttrSet) *Relation {
	if !x.SubsetOf(r.attrs) {
		panic(fmt.Sprintf("relation: projection %s ⊄ %s",
			r.U.FormatSet(x), r.U.FormatSet(r.attrs)))
	}
	out := New(r.U, x)
	out.reserved = r.Card() // upper bound
	pos := e.positions(out.width)
	for i, c := range out.cols {
		pos[i] = r.colPos(c)
	}
	buf := valScratch(e.obuf, out.width)
	e.obuf = buf
	nSlots := tableSize(r.Card())
	mask := uint64(nSlots - 1)
	slots := e.keys.slotScratch(nSlots)
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

// keyTable is an open-addressing table over one keyScratch, keyed by the
// key word of a relation's columns pos: the build side of a Join or
// Semijoin, and a streamed join's probe groups or filter keys. A slot
// names one row (position + 1) per distinct key; words holds the key
// word of every row, by position, so a lookup reads slots[j], then
// words[head-1], and — the key being exact — is done.
type keyTable struct {
	slots []int32
	next  []int32
	words []uint64
	shift uint
	mask  uint64
	exact bool
	build *Relation
	pos   []int
}

// buildKeys enters every live row of rel into a fresh keyTable over ks on
// its columns pos. The first row of a key claims a slot. With chain,
// later rows of the key are linked in front of it through next (newest
// first) and the slot names the newest — Join's buckets, JoinProject's
// groups; without, they are dropped — a key set.
func (ks *keyScratch) buildKeys(rel *Relation, pos []int, chain bool) keyTable {
	nSlots := tableSize(rel.Card())
	slots := ks.slotScratch(nSlots)
	words := uint64Scratch(ks.words, rel.n)
	ks.words = words
	var next []int32
	if chain {
		next = int32Scratch(ks.next, rel.n)
		ks.next = next
	}
	shift := uint(64 - bits.TrailingZeros(uint(nSlots)))
	mask := uint64(nSlots - 1)
	exact := len(pos) <= 2
	w := rel.width
	for c := range rel.chunks {
		ch := &rel.chunks[c]
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
				if words[head-1] == word && (exact || keyEqual(rel, int(head-1), pos, row, pos)) {
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
	return keyTable{slots: slots, next: next, words: words, shift: shift, mask: mask, exact: exact, build: rel, pos: pos}
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

// Budget bounds a streamed join (JoinProject, JoinFilter) the way a
// program's limits bound its run: the join stops once it has produced
// Rows rows (Rows ≤ 0: no bound), or once Deadline, when nonzero, has
// passed. It is looked at between probe rows — for Rows at the first
// probe row whose partners reach it, so a stopped join has walked at
// most one probe row's partners past Rows; for Deadline every
// budgetStride join rows. The zero value never stops.
type Budget struct {
	Rows     int
	Deadline time.Time
}

const budgetStride = 1 << 12

// next returns the join row count, past done, at which b is next looked at.
func (b Budget) next(done int) int {
	at := math.MaxInt
	if !b.Deadline.IsZero() {
		at = done + budgetStride
	}
	if b.Rows > 0 {
		at = min(at, b.Rows)
	}
	return at
}

// spent reports whether a join that has produced done rows must stop.
func (b Budget) spent(done int) bool {
	return b.Rows > 0 && done >= b.Rows || !b.Deadline.IsZero() && time.Now().After(b.Deadline)
}

// sink is what the join kernel does with each row of r ⋈ s.
type sink uint8

const (
	appendRows  sink = iota // Join: emit it
	projectRows             // JoinProject: emit its projection, once per probe group
	filterRows              // JoinFilter: emit it if its projection onto f is a row of f
)

// localSlot is one entry of JoinProject's group-local table: the key word
// of an output row's build-side columns, the group that entered it, and
// the output row.
type localSlot struct {
	word  uint64
	stamp uint32
	row   int32
}

// localSlots is the group-local table's starting size: 16 KB, so the
// groups of a key–foreign-key join deduplicate in L1.
const localSlots = 1 << 10

// localScratch returns e.local resized to n and zeroed.
func (e *Exec) localScratch(n int) []localSlot {
	if cap(e.local) < n {
		e.local = make([]localSlot, n)
	} else {
		e.local = e.local[:n]
		clear(e.local)
	}
	return e.local
}

// groupDedup is JoinProject's duplicate check. Within one probe group
// every join row agrees on the probe-side kept columns, so an output row
// is told apart by its build-side columns h alone: the table keys their
// key word — exact up to two columns, verified against the output row
// beyond. A slot belongs to the current group only if it carries the
// group's stamp, so starting a group clears the table in O(1).
type groupDedup struct {
	loc   []localSlot
	shift uint // loc has 1<<(64-shift) slots
	stamp uint32
	first int // the current group's first output row
	exact bool
	hPos  []int // h in the build side
	outH  []int // h in the output
}

// start begins a group whose first output row will be out's next.
func (d *groupDedup) start(out *Relation) {
	d.stamp++
	d.first = out.n
}

// seen reports whether the current group has emitted the output row
// whose h columns are brow's; if not, it enters that row as out's next.
// A group about to fill half the table first doubles it (grow).
func (d *groupDedup) seen(e *Exec, out *Relation, brow []Value) bool {
	if 2*(out.n+1-d.first) > len(d.loc) {
		d.grow(e, out)
	}
	word := keyWord(brow, d.hPos)
	mask := uint64(len(d.loc) - 1)
	for j := keySlot(word, d.shift); ; j = (j + 1) & mask {
		sl := &d.loc[j]
		if sl.stamp != d.stamp {
			*sl = localSlot{word: word, stamp: d.stamp, row: int32(out.n)}
			return false
		}
		if sl.word == word && (d.exact || keyEqual(out, int(sl.row), d.outH, brow, d.hPos)) {
			return true
		}
	}
}

// grow doubles the table in e's scratch and re-enters the current
// group's output rows, out's rows from d.first on. The table keeps its
// size for the rest of the call.
func (d *groupDedup) grow(e *Exec, out *Relation) {
	d.loc = e.localScratch(2 * len(d.loc))
	d.shift--
	mask := uint64(len(d.loc) - 1)
	for o := d.first; o < out.n; o++ {
		word := keyWord(out.row(o), d.outH)
		j := keySlot(word, d.shift)
		for d.loc[j].stamp == d.stamp {
			j = (j + 1) & mask
		}
		d.loc[j] = localSlot{word: word, stamp: d.stamp, row: int32(o)}
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
	out, _ := e.join(r, s, appendRows, r.attrs.Union(s.attrs), nil, Budget{})
	return out
}

// JoinProject returns π_x(r ⋈ s) without materializing r ⋈ s, and the
// number of rows r ⋈ s has. x must be a subset of r's and s's
// attributes. It is Join with one more pass first: the probe side is
// chained by its columns g = x ∩ attrs(probe) — the kept columns the
// probe row decides — and the probe loop runs group by group. Two join
// rows with one projection agree on g, so they come from one group; each
// group's projections are deduplicated in a table of its own, cleared
// per group by stamp and keyed by the projection's build-side columns
// (exact up to two columns, verified beyond). Output rows come grouped by
// g. It returns a nil relation when b stops the join.
func (e *Exec) JoinProject(r, s *Relation, x schema.AttrSet, b Budget) (*Relation, int) {
	if !x.SubsetOf(r.attrs.Union(s.attrs)) {
		panic(fmt.Sprintf("relation: projection %s ⊄ %s",
			r.U.FormatSet(x), r.U.FormatSet(r.attrs.Union(s.attrs))))
	}
	return e.join(r, s, projectRows, x, nil, b)
}

// JoinFilter returns (r ⋈ s) ⋈ f — equally (r ⋈ s) ⋉ f — for an f
// whose attributes are a subset of r's and s's, without materializing
// r ⋈ s, and the number of rows r ⋈ s has. f's rows form a key set on
// all of f's columns, and a row of r ⋈ s is emitted, in Join's order,
// when its projection onto f is in it. It returns a nil relation when b
// stops the join.
func (e *Exec) JoinFilter(r, s, f *Relation, b Budget) (*Relation, int) {
	if !f.attrs.SubsetOf(r.attrs.Union(s.attrs)) {
		panic(fmt.Sprintf("relation: filter %s ⊄ %s",
			r.U.FormatSet(f.attrs), r.U.FormatSet(r.attrs.Union(s.attrs))))
	}
	return e.join(r, s, filterRows, r.attrs.Union(s.attrs), f, b)
}

// join is the one join kernel: it builds the smaller of r and s on the
// shared columns, probes it with every live row of the other, and hands
// each row of r ⋈ s to the sink sk, whose output is over x. The probe
// loop is shared; the sink picks how a probe row's bucket is walked, so
// Join's walk carries no test for the other two. It returns the output
// (nil when b stopped it) and how many join rows it walked.
func (e *Exec) join(r, s *Relation, sk sink, x schema.AttrSet, f *Relation, b Budget) (*Relation, int) {
	build, probe := r, s
	if s.Card() < r.Card() {
		build, probe = s, r
	}
	out := New(r.U, x)
	// A guess, not a bound: the joins a reduced Yannakakis plan runs are
	// key–foreign-key shaped and emit about one row per probe row.
	out.reserved = probe.Card()

	// Column positions: the join key on each side, then the sink's own —
	// for JoinProject g in the probe and h = x \ attrs(probe) in the build
	// side and the output; for JoinFilter f's columns in f and the output.
	sharedCols := r.attrs.Intersect(s.attrs).Attrs()
	nk := len(sharedCols)
	var g, h []schema.Attr
	extra := 0
	switch sk {
	case projectRows:
		g, h = x.Intersect(probe.attrs).Attrs(), x.Diff(probe.attrs).Attrs()
		extra = len(g) + 2*len(h)
	case filterRows:
		extra = 2 * f.width
	}
	pos := e.positions(2*nk + extra)
	bPos, pPos, rest := pos[:nk], pos[nk:2*nk], pos[2*nk:]
	for i, c := range sharedCols {
		bPos[i] = build.colPos(c)
		pPos[i] = probe.colPos(c)
	}
	var gPos, hPos, outH, fOwn, fPos []int
	switch sk {
	case projectRows:
		gPos, hPos, outH = rest[:len(g)], rest[len(g):len(g)+len(h)], rest[len(g)+len(h):]
		for i, c := range g {
			gPos[i] = probe.colPos(c)
		}
		for i, c := range h {
			hPos[i], outH[i] = build.colPos(c), out.colPos(c)
		}
	case filterRows:
		fOwn, fPos = rest[:f.width], rest[f.width:]
		for i, c := range f.cols {
			fOwn[i], fPos[i] = i, out.colPos(c)
		}
	}
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

	t := e.keys.buildKeys(build, bPos, true)
	next := t.next // bucket chains, newest build row first
	// The probe side is walked in groups: for JoinProject the rows of one
	// g-chain (newest first), otherwise one chunk in position order.
	groups := len(probe.chunks)
	var gt, ft keyTable
	var dd groupDedup
	switch sk {
	case projectRows:
		gt = e.aux.buildKeys(probe, gPos, true)
		groups = len(gt.slots)
		dd = groupDedup{loc: e.localScratch(localSlots), shift: uint(64 - bits.TrailingZeros(localSlots)),
			exact: len(hPos) <= 2, hPos: hPos, outH: outH}
	case filterRows:
		ft = e.aux.buildKeys(f, fOwn, false)
	}
	joined, check := 0, b.next(0)
	w := probe.width
	for grp := 0; grp < groups; grp++ {
		i, end := grp<<chunkShift, min((grp+1)<<chunkShift, probe.n)
		if sk == projectRows {
			if gt.slots[grp] == 0 {
				continue
			}
			i = int(gt.slots[grp] - 1)
			dd.start(out)
		}
		for i >= 0 {
			ch := &probe.chunks[i>>chunkShift]
			if k := i & chunkMask; ch.dead == nil || !ch.dead.has(k) {
				prow := ch.data[k*w : k*w+w]
				bi := t.lookup(prow, pPos)
				switch sk {
				case appendRows:
					for ; bi != 0; bi = next[bi-1] {
						brow := build.row(int(bi - 1))
						fillRow(obuf, srcs, prow, brow)
						out.appendRow(obuf, hashValues(obuf))
					}
					joined = out.n // every join row is an output row
				case filterRows:
					for ; bi != 0; bi = next[bi-1] {
						joined++
						brow := build.row(int(bi - 1))
						fillRow(obuf, srcs, prow, brow)
						if ft.lookup(obuf, fPos) != 0 {
							out.appendRow(obuf, hashValues(obuf))
						}
					}
				case projectRows:
					for ; bi != 0; bi = next[bi-1] {
						joined++
						brow := build.row(int(bi - 1))
						if dd.seen(e, out, brow) {
							continue // this group has emitted the row
						}
						fillRow(obuf, srcs, prow, brow)
						out.appendRow(obuf, hashValues(obuf))
					}
				}
				if joined >= check {
					if b.spent(joined) {
						return nil, joined
					}
					check = b.next(joined)
				}
			}
			if sk == projectRows {
				i = int(gt.next[i]) - 1
			} else if i++; i == end {
				i = -1
			}
		}
	}
	return out, joined
}

// fillRow writes the join row of probe row prow and build row brow into
// buf, column o from srcs[o] (see join).
func fillRow(buf []Value, srcs []int32, prow, brow []Value) {
	for o, sc := range srcs {
		if sc >= 0 {
			buf[o] = prow[sc]
		} else {
			buf[o] = brow[^sc]
		}
	}
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
	sharedCols := r.attrs.Intersect(s.attrs).Attrs()
	pos := e.positions(2 * len(sharedCols))
	sPos, rPos := pos[:len(sharedCols)], pos[len(sharedCols):]
	for i, c := range sharedCols {
		sPos[i] = s.colPos(c)
		rPos[i] = r.colPos(c)
	}
	t := e.keys.buildKeys(s, sPos, false)
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
