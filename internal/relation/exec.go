package relation

import (
	"fmt"
	"math"
	"math/bits"
	"time"

	"gyokit/internal/schema"
)

// Exec is a reusable execution context for the relational operators.
// It owns the scratch state the operators need — three keyScratch
// tables' worth of open-addressing slots, chain links and per-row key
// words (and a wide group key's columns, for JoinProject), an output-row
// buffer, and column position maps — so a program
// that evaluates many statements (a §6 semijoin program, a Yannakakis
// plan, a full reducer) reuses one set of allocations instead of
// rebuilding them per statement. Every table is a keyTable, keyed by
// columns themselves (keyWord: 4 B per slot, 8 B per row, 4 B more per
// row for a chained one). Join and Semijoin build their key sets in
// keys, and Project deduplicates there, keyed by its output's rows. A
// streamed join (JoinProject, JoinFilter) also keys its second operand
// in aux — the probe side chained by the kept columns, or the filter's
// rows — and JoinProject deduplicates in local, a table sized by the
// largest group of one call rather than by |r ⋈ s| or by its output, so
// a counted join (JoinFirst, or a k below All) stores k rows whatever it
// counts. Every operator
// emits an index-free output by plain appends (the output's own set
// index is built only if something later asks it for membership — see
// the package comment). The zero value is ready to use; an Exec must not
// be used concurrently.
type Exec struct {
	keys  keyScratch // Join's and Semijoin's build side; Project's output keys
	aux   keyScratch // JoinProject's probe groups; JoinFilter's filter keys
	local keyScratch // JoinProject's group-local output keys
	obuf  []Value
	pos   []int // column positions of one call, carved per operand
	srcs  []int32
}

// keyScratch is the storage of one keyTable, kept across calls.
type keyScratch struct {
	slots []int32  // open addressing: row index + 1; 0 = empty
	next  []int32  // same-key chain: next row index + 1; 0 = end
	words []uint64 // key word of each row, by row index
	vals  []Value  // key columns of each row, by row index: a table with no rel
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

// scratch returns s resized to n, reallocated only when it is too small;
// the contents are whatever was there.
func scratch[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// positions returns e.pos resized to n; a call carves it into the
// column position lists it needs.
func (e *Exec) positions(n int) []int {
	e.pos = scratch(e.pos, n)
	return e.pos
}

// Project returns π_x(r). x must be a subset of r's attributes.
// Duplicates are eliminated in a keyTable over the output's rows, keyed
// by all their columns, in the Exec's keys scratch — sized for r's
// cardinality, the output's upper bound, so it never grows. A live row of
// r is looked up by its columns x and emitted (and entered) the first
// time its projection is seen, so the output keeps r's order.
func (e *Exec) Project(r *Relation, x schema.AttrSet) *Relation {
	if !x.SubsetOf(r.attrs) {
		panic(fmt.Sprintf("relation: projection %s ⊄ %s",
			r.U.FormatSet(x), r.U.FormatSet(r.attrs)))
	}
	out := New(r.U, x)
	out.reserved = r.Card() // upper bound
	rPos := e.positions(out.width)
	for i, c := range out.cols {
		rPos[i] = r.colPos(c)
	}
	buf := scratch(e.obuf, out.width)
	e.obuf = buf
	t := e.keys.table(out, out.all, r.Card(), r.Card())
	for i := r.nextLive(0); i < r.n; i = r.nextLive(i + 1) {
		row := r.row(i)
		w, j, head := t.probe(row, rPos)
		if head != 0 {
			continue
		}
		t.enter(out.n, w, j)
		for k, p := range rPos {
			buf[k] = row[p]
		}
		out.appendRow(buf)
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

// allCols returns the positions 0 … w−1: the key on all of a width-w
// row's columns.
func allCols(w int) []int {
	p := make([]int, w)
	for i := range p {
		p[i] = i
	}
	return p
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

// keyEqual reports whether the key columns tPos of trow equal the key
// columns pos of row. Only an inexact key (more than two columns) ever
// needs it.
func keyEqual(trow []Value, tPos []int, row []Value, pos []int) bool {
	for k, p := range tPos {
		if trow[p] != row[pos[k]] {
			return false
		}
	}
	return true
}

// keyTable is the one hash table of the operators: open addressing over
// one keyScratch, keyed by the key word of the columns pos of rel's rows.
// It is the build side of a Join or Semijoin, a streamed join's probe
// groups or filter keys, Project's output rows and JoinProject's current
// group of distinct projections (groupDedup), whose rel is nil: its rows
// are its keys alone, in vals, pos being 0, 1, …. A slot names one row
// (i + 1) per distinct key; words holds the key word of every row, by i,
// so a lookup reads slots[j], then words[head-1], and — the key being
// exact — is done.
type keyTable struct {
	slots []int32
	next  []int32
	words []uint64
	vals  []Value
	shift uint
	mask  uint64
	exact bool
	rel   *Relation
	pos   []int
}

// row returns row i of the table: rel's, or its key columns in vals.
func (t *keyTable) row(i int) []Value {
	if t.rel == nil {
		n := len(t.pos)
		return t.vals[i*n : i*n+n]
	}
	return t.rel.row(i)
}

// table returns an empty keyTable over ks for rel's rows, keyed by their
// columns pos: tableSize(keys) slots, zeroed, and a word for each of rows
// rows.
func (ks *keyScratch) table(rel *Relation, pos []int, keys, rows int) keyTable {
	n := tableSize(keys)
	ks.words = scratch(ks.words, rows)
	return keyTable{slots: ks.slotScratch(n), words: ks.words, shift: uint(64 - bits.TrailingZeros(uint(n))),
		mask: uint64(n - 1), exact: len(pos) <= 2, rel: rel, pos: pos}
}

// buildKeys enters every live row of rel into a fresh keyTable over ks on
// its columns pos. The first row of a key claims a slot. With chain,
// later rows of the key are linked in front of it through next (newest
// first) and the slot names the newest — Join's buckets, JoinProject's
// groups; without, they are dropped — a key set.
func (ks *keyScratch) buildKeys(rel *Relation, pos []int, chain bool) keyTable {
	t := ks.table(rel, pos, rel.Card(), rel.n)
	if chain {
		ks.next = scratch(ks.next, rel.n)
		t.next = ks.next
	}
	w := rel.width
	for c := range rel.chunks {
		ch := &rel.chunks[c]
		data, dead := ch.data, ch.dead
		for k := range rel.chunkRows(c) {
			if dead != nil && dead.has(k) {
				continue
			}
			row := data[k*w : k*w+w]
			i := c<<chunkShift + k
			kw, j, head := t.probe(row, pos)
			if chain {
				t.next[i] = head
			}
			if head == 0 || chain {
				t.enter(i, kw, j)
			}
		}
	}
	return t
}

// probe is the table's one probe loop. It returns the key word of row's
// columns pos, the slot of that key and the row (+ 1) the slot names —
// or, when no row of the table carries the key, the empty slot the key
// would claim and 0, so an insert (enter) needs no second probe. It
// leaves the table as it was: a lookup pays for no insert.
func (t *keyTable) probe(row []Value, pos []int) (w, j uint64, head int32) {
	w = keyWord(row, pos)
	for j = keySlot(w, t.shift); ; j = (j + 1) & t.mask {
		head = t.slots[j]
		if head == 0 || t.words[head-1] == w && (t.exact || keyEqual(t.row(int(head-1)), t.pos, row, pos)) {
			return w, j, head
		}
	}
}

// enter makes row i the one slot j names, with key word w.
func (t *keyTable) enter(i int, w, j uint64) {
	t.words[i], t.slots[j] = w, int32(i+1)
}

// lookup returns the slot value (row + 1) of the key in row's columns
// pos, or 0 when no row of the table carries it.
func (t *keyTable) lookup(row []Value, pos []int) int32 {
	_, _, head := t.probe(row, pos)
	return head
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

// groupRows is the row capacity a JoinProject group table starts with:
// 4 KB of slots and 4 KB of words, so the groups of a key–foreign-key
// join deduplicate in L1.
const groupRows = 1 << 9

// groupDedup is JoinProject's duplicate check: a keyTable over ks of the
// current group's distinct projections, by the order they were seen,
// keyed by the output columns that tell them apart. Every join row of a
// probe group agrees on the probe-side kept columns, so those are the
// build-side ones, h, alone. Up to two columns the key word is the key,
// and nothing but the words is kept. A wider key is verified against the
// group's h-columns, which it keeps in ks.vals; either way the output is
// never read back, so it may keep as few of its rows as it likes.
type groupDedup struct {
	keyTable
	ks *keyScratch
	n  int // the group's distinct keys so far
}

// groupDedup returns an empty group table over ks for keys of n columns,
// at positions 0 … n−1 of the table's rows.
func (ks *keyScratch) groupDedup(n int) groupDedup {
	d := groupDedup{ks: ks}
	d.pos = allCols(n)
	d.resize(groupRows)
	return d
}

// seen reports whether the current group holds a key equal to row's
// columns pos; if not, it enters that key. A group about to outgrow its
// words first doubles the table (grow).
func (d *groupDedup) seen(row []Value, pos []int) bool {
	if d.n == len(d.words) {
		d.grow()
	}
	w, j, head := d.probe(row, pos)
	if head != 0 {
		return true
	}
	d.enter(d.n, w, j)
	if !d.exact {
		key := d.row(d.n)
		for k, p := range pos {
			key[k] = row[p]
		}
	}
	d.n++
	return false
}

// grow doubles the table. It keeps its size for the rest of the call.
func (d *groupDedup) grow() { d.resize(2 * len(d.words)) }

// resize makes the table rows keys large in ks and re-enters the current
// group's keys by their stored words: they are distinct, so each takes
// the first empty slot from its home, and no row is read. A wide key's
// columns stay at their row index in vals.
func (d *groupDedup) resize(rows int) {
	words, vals := d.words, d.vals
	d.keyTable = d.ks.table(nil, d.pos, rows, rows)
	if !d.exact {
		d.ks.vals = scratch(d.ks.vals, rows*len(d.pos))
		d.vals = d.ks.vals
		copy(d.vals, vals)
	}
	for i, w := range words {
		j := keySlot(w, d.shift)
		for d.slots[j] != 0 {
			j = (j + 1) & d.mask
		}
		d.enter(i, w, j)
	}
}

// start empties the table of the group before and begins the next.
// Clearing costs the table's size, not the group's — 4 KB of slots unless
// a group of the call grew it — and that is no slower than re-zeroing a
// group's slots one probe each even when every group is one probe row
// (BenchmarkJoinProjectRowGroups).
func (d *groupDedup) start() {
	clear(d.slots)
	d.n = 0
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
	out, _, _ := e.join(r, s, appendRows, r.attrs.Union(s.attrs), nil, All, Budget{})
	return out
}

// All is the keep of an operator that stores every row it counts.
const All = math.MaxInt

// JoinFirst is Join in counted form: it returns the first k rows of
// r ⋈ s, in Join's order, and how many rows r ⋈ s has. The two are
// distinct pairs of sets, so the count is the sum of every probe row's
// partners, and only the first k rows are built and stored. It returns a
// nil relation when b stops the join.
func (e *Exec) JoinFirst(r, s *Relation, k int, b Budget) (*Relation, int) {
	out, card, _ := e.join(r, s, appendRows, r.attrs.Union(s.attrs), nil, k, b)
	return out, card
}

// JoinProject returns the first k rows of π_x(r ⋈ s) (k = All: every
// row) without materializing r ⋈ s, how many rows π_x(r ⋈ s) has, and
// how many r ⋈ s has. x must be a subset of r's and s's attributes. It
// is Join with one more pass first: the probe side is chained by its
// columns g = x ∩ attrs(probe) — the kept columns the probe row decides
// — and the probe loop runs group by group. Two join rows with one
// projection agree on g, so they come from one group; each group's
// projections are deduplicated in a group-local table (groupDedup) keyed
// by the projection's build-side columns, which never reads the output
// back, so a row past the first k is counted and not built. Output rows
// come grouped by g. It returns a nil relation when b stops the join.
func (e *Exec) JoinProject(r, s *Relation, x schema.AttrSet, k int, b Budget) (out *Relation, card, joined int) {
	if !x.SubsetOf(r.attrs.Union(s.attrs)) {
		panic(fmt.Sprintf("relation: projection %s ⊄ %s",
			r.U.FormatSet(x), r.U.FormatSet(r.attrs.Union(s.attrs))))
	}
	return e.join(r, s, projectRows, x, nil, k, b)
}

// JoinFilter returns the first k rows of (r ⋈ s) ⋈ f — equally
// (r ⋈ s) ⋉ f — (k = All: every row) for an f whose attributes are a
// subset of r's and s's, without materializing r ⋈ s, how many rows it
// has, and how many r ⋈ s has. f's rows form a key set on all of f's
// columns, and a row of r ⋈ s is emitted, in Join's order, when its
// projection onto f is in it. It returns a nil relation when b stops the
// join.
func (e *Exec) JoinFilter(r, s, f *Relation, k int, b Budget) (out *Relation, card, joined int) {
	if !f.attrs.SubsetOf(r.attrs.Union(s.attrs)) {
		panic(fmt.Sprintf("relation: filter %s ⊄ %s",
			r.U.FormatSet(f.attrs), r.U.FormatSet(r.attrs.Union(s.attrs))))
	}
	return e.join(r, s, filterRows, r.attrs.Union(s.attrs), f, k, b)
}

// join is the one join kernel: it builds the smaller of r and s on the
// shared columns, probes it with every live row of the other, and hands
// each row of r ⋈ s to the sink sk, whose output is over x. The probe
// loop is shared; the sink picks how a probe row's bucket is walked, so
// Join's walk carries no test for the other two. Every sink counts its
// output rows and stores the first keep of them. It returns the output
// (nil when b stopped it), its row count and how many join rows it
// walked.
func (e *Exec) join(r, s *Relation, sk sink, x schema.AttrSet, f *Relation, keep int, b Budget) (out *Relation, card, joined int) {
	build, probe := r, s
	if s.Card() < r.Card() {
		build, probe = s, r
	}
	out = New(r.U, x)
	// A guess, not a bound: the joins a reduced Yannakakis plan runs are
	// key–foreign-key shaped and emit about one row per probe row.
	out.reserved = min(keep, probe.Card())

	// Column positions: the join key on each side, then the sink's own —
	// for JoinProject g in the probe and h = x \ attrs(probe) in the build
	// side; for JoinFilter f's columns in the output.
	sharedCols := r.attrs.Intersect(s.attrs).Attrs()
	nk := len(sharedCols)
	var g, h []schema.Attr
	extra := 0
	switch sk {
	case projectRows:
		g, h = x.Intersect(probe.attrs).Attrs(), x.Diff(probe.attrs).Attrs()
		extra = len(g) + len(h)
	case filterRows:
		extra = f.width
	}
	pos := e.positions(2*nk + extra)
	bPos, pPos, rest := pos[:nk], pos[nk:2*nk], pos[2*nk:]
	for i, c := range sharedCols {
		bPos[i] = build.colPos(c)
		pPos[i] = probe.colPos(c)
	}
	var gPos, hPos, fPos []int
	switch sk {
	case projectRows:
		gPos, hPos = rest[:len(g)], rest[len(g):]
		for i, c := range g {
			gPos[i] = probe.colPos(c)
		}
		for i, c := range h {
			hPos[i] = build.colPos(c)
		}
	case filterRows:
		fPos = rest
		for i, c := range f.cols {
			fPos[i] = out.colPos(c)
		}
	}
	// Output column sources: from probe where present, else from build.
	// srcs[k] ≥ 0 is a probe column; srcs[k] < 0 is build column ^srcs[k].
	srcs := scratch(e.srcs, out.width)
	e.srcs = srcs
	for i, c := range out.cols {
		if probe.attrs.Has(c) {
			srcs[i] = int32(probe.colPos(c))
		} else {
			srcs[i] = int32(^build.colPos(c))
		}
	}
	obuf := scratch(e.obuf, out.width)
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
		dd = e.local.groupDedup(len(h))
	case filterRows:
		ft = e.aux.buildKeys(f, f.all, false)
	}
	check := b.next(0)
	w := probe.width
	for grp := 0; grp < groups; grp++ {
		i, end := grp<<chunkShift, min((grp+1)<<chunkShift, probe.n)
		if sk == projectRows {
			if gt.slots[grp] == 0 {
				continue
			}
			i = int(gt.slots[grp] - 1)
			dd.start()
		}
		for i >= 0 {
			ch := &probe.chunks[i>>chunkShift]
			if k := i & chunkMask; ch.dead == nil || !ch.dead.has(k) {
				prow := ch.data[k*w : k*w+w]
				bi := t.lookup(prow, pPos)
				switch sk {
				case appendRows:
					for ; bi != 0; bi = next[bi-1] {
						if card++; card <= keep {
							fillRow(obuf, srcs, prow, build.row(int(bi-1)))
							out.appendRow(obuf)
						}
					}
					joined = card // every join row is an output row
				case filterRows:
					for ; bi != 0; bi = next[bi-1] {
						joined++
						fillRow(obuf, srcs, prow, build.row(int(bi-1)))
						if ft.lookup(obuf, fPos) != 0 {
							if card++; card <= keep {
								out.appendRow(obuf)
							}
						}
					}
				case projectRows:
					for ; bi != 0; bi = next[bi-1] {
						joined++
						brow := build.row(int(bi - 1))
						if dd.seen(brow, hPos) {
							continue // this group has counted the row
						}
						if card++; card <= keep {
							fillRow(obuf, srcs, prow, brow)
							out.appendRow(obuf)
						}
					}
				}
				if joined >= check {
					if b.spent(joined) {
						return nil, card, joined
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
	return out, card, joined
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
// drop's chunk onward are repacked. A dead row of r is a dropped row, so
// the output is dense whatever r carries. A semijoin that filters
// nothing, the steady state of a full reducer over consistent data,
// costs the build, the probes, a chunk-table copy and one block copy of
// the tail.
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
		for k := range r.chunkRows(c) {
			row := ch.data[k*w : k*w+w]
			hit := (ch.dead == nil || !ch.dead.has(k)) && t.lookup(row, rPos) != 0
			switch {
			case hit && !clean:
				out.appendRow(row)
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
