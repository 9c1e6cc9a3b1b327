package relation

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"gyokit/internal/schema"
)

// Exec is a reusable execution context for the relational operators. It
// owns the scratch state the operators need — three keyScratch tables'
// worth of open-addressing slots, chain links and per-row key words (and
// a wide group key's columns), JoinFilter's groups of f, Semijoin's
// bitmap and row marks, a chain's key sets, an output-row buffer, and
// column position maps — so a program
// that evaluates many statements (a §6 semijoin program, a Yannakakis
// plan, a full reducer) reuses one set of allocations instead of
// rebuilding them per statement. Every table is a keyTable, keyed by
// columns themselves (keyWord: 4 B per slot, 8 B per row, 4 B more per
// row for a chained one, 4 B more again for a counted Join's bucket
// sizes). Join and Semijoin build their key sets in keys, and Project
// deduplicates there, keyed by its output's rows. The one key set that is
// not a keyTable is a Semijoin's on one column whose live values in s lie
// in a short enough [lo, hi]: a bitmap over it (keyBits), which denseSpan
// allows only when it has no more bytes than the slot table it stands in
// for. A streamed join (JoinProject, JoinFilter) walks its probe side one
// group at a time, g being the columns of the sink's key the probe side
// holds, and group sorts it into aux by counting sort: one pass counts
// each group's live rows and one places them, so a group is one run of
// entries in aux's words, in position order, and aux's slots end each
// run. A group is numbered by its value less the least when g is one
// column whose live values span fewer values than a keyTable over the
// probe side has slots (no table is built); otherwise aux first holds an
// unchained keyTable of g's keys that numbers each key as it first
// appears, each row's number in next.
// JoinFilter groups f the same way, in fends and fents (4 B per group and
// 4 B per filter row). The build-side columns of the sink's key, h, go
// into local, one group at a time — JoinProject's projections as it meets
// them, JoinFilter's filter rows when the group starts — a table sized by
// the largest group of one call rather than by |r ⋈ s|, its output or f,
// so it stays in L1, and a counted join (JoinFirst, or a k below All)
// stores k rows whatever it counts. When the join key is one column and h
// is one column, both dense (bitSpans), the build side is bit rows
// instead of a chained table (bitRows): a row of words per key, a bit per
// h value, in the words of keys and its counts by key in keys' sizes — at
// most bitRowWords words per build row — and a group's filter bits or
// projections are one such row in local's words.
// A JoinFilter's chain carries its walk on to later statements: each
// semijoin's key set goes into a setScratch of sets of its own, built as
// Semijoin builds its one, or, on bit rows, a mask over h's window in that
// scratch's bits; a closing projection marks its probe rows in marks, a
// bit per row, where Semijoin marks the rows it keeps.
// The dense passes — Semijoin's probe, liveSpan, bitsOver and group's
// passes over the probe side — pick their path once per call or chunk and
// read one column with stride the row width: a chunk with no dead rows in
// a loop with no dead-row test, a chunk with some row by row or with its
// dead rows masked out afterwards. SetGeneric holds an Exec to the generic
// twin of every specialization, for tests.
// Every operator emits an index-free output by plain appends (the
// output's own set index is built only if something later asks it for
// membership — see the package comment). The zero value is ready to use;
// an Exec must not be used concurrently.
type Exec struct {
	keys  keyScratch // Join's and Semijoin's build side; Project's output keys
	aux   keyScratch // a streamed join's probe side: g's numbering, then its groups (group)
	local keyScratch // a streamed join's group-local keys, by h
	fends []int32    // JoinFilter: by group, the end of its run of filter entries in fents
	fents []int32    // JoinFilter: f's live rows, group by group (group)
	obuf  []Value
	pos   []int // column positions of one call, carved per operand
	srcs  []int32
	bits  []uint64     // Semijoin's one-column key set, when it is a bitmap (keyBits)
	marks []uint64     // Semijoin's kept rows, or a chain's projected probe rows: a bit per row (keepMarked)
	sets  []setScratch // a chain's semijoin key sets, one per stage (JoinFilter)

	generic bool // every specialization off (SetGeneric), read once a call
}

// setScratch is the storage of one of a chain's semijoin key sets
// (JoinFilter): a keyTable's, or a bitmap's words.
type setScratch struct {
	keys keyScratch
	bits []uint64
}

// keyScratch is the storage of one keyTable, kept across calls.
type keyScratch struct {
	slots []int32  // open addressing: row index + 1; 0 = empty; group: each group's end
	next  []int32  // same-key chain: next row index + 1, 0 = end; numberKeys: each row's key number
	sizes []int32  // a sized chain's row count, by its newest row; bit rows' count, by key
	words []uint64 // key word of each row, by row index; bit rows' words; group: the entries
	vals  []Value  // key columns of each row, by row index: a table with no rel
}

// NewExec returns a fresh execution context.
func NewExec() *Exec { return &Exec{} }

// SetGeneric holds e to the generic paths (on) or lets the data pick them
// (off): a semijoin key set is a keyTable, not a bitmap; a streamed join
// builds the chained table, not bit rows, numbers its groups by a
// keyTable, and tests a chain's semijoin by key set, not mask; a counted
// Join walks every bucket; survivors are copied row by row. Outputs are
// the same sets with the same counts; a streamed join's row order may
// differ. It is for tests, which run an input both ways and compare.
func (e *Exec) SetGeneric(on bool) { e.generic = on }

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
// It is the build side of a Join or Semijoin, the numbering of a
// streamed join's probe groups (numberKeys), Project's output rows and a
// streamed join's current group of keys (groupDedup), whose rel is nil:
// its rows are its keys alone, in vals, pos being 0, 1, …. A slot names one row (i + 1) per distinct
// key; words holds the key word of every row, by i, so a lookup reads
// slots[j], then words[head-1], and — the key being exact — is done.
type keyTable struct {
	slots []int32
	next  []int32
	sizes []int32
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
// first) and the slot names the newest — Join's buckets; without, they
// are dropped — a key set. With sized too, sizes holds each bucket's row
// count at its newest row, so a counted join adds a bucket up without
// walking it.
func (ks *keyScratch) buildKeys(rel *Relation, pos []int, chain, sized bool) keyTable {
	t := ks.table(rel, pos, rel.Card(), rel.n)
	if chain {
		ks.next = scratch(ks.next, rel.n)
		t.next = ks.next
	}
	if sized {
		ks.sizes = scratch(ks.sizes, rel.n)
		t.sizes = ks.sizes
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
			if sized {
				t.sizes[i] = 1
				if head != 0 {
					t.sizes[i] += t.sizes[head-1]
				}
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

// groupRows is the row capacity a group table starts with: 4 KB of slots
// and 4 KB of words, so the groups of a key–foreign-key join deduplicate,
// and filter, in L1.
const groupRows = 1 << 9

// groupDedup is the group-local table of a streamed join: a keyTable over
// ks of the current group's distinct keys, by the order they were seen,
// keyed by the columns that tell them apart. Every join row of a probe
// group agrees on the probe-side columns of the sink's key, g, so those
// are the build-side ones, h, alone. For JoinProject it is the duplicate
// check of the group's projections; for JoinFilter it holds the h
// columns of the group's filter rows. Up to two columns the key word is
// the key, and nothing but the words is kept. A wider key is verified
// against the group's h-columns, which it keeps in ks.vals; either way
// the output is never read back, so it may keep as few of its rows as it
// likes.
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
	out, _, _ := e.join(r, s, appendRows, r.attrs.Union(s.attrs), nil, nil, All, Budget{})
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
	out, card, _ := e.join(r, s, appendRows, r.attrs.Union(s.attrs), nil, nil, k, b)
	return out, card
}

// JoinProject returns the first k rows of π_x(r ⋈ s) (k = All: every
// row) without materializing r ⋈ s, how many rows π_x(r ⋈ s) has, and
// how many r ⋈ s has. x must be a subset of r's and s's attributes. It
// is Join with two more passes first: the probe side is sorted into
// groups on its columns g = x ∩ attrs(probe) — the kept columns the
// probe row decides — and the probe loop runs group by group (group).
// Two join rows with one projection agree on g, so they come from one
// group; each group's
// projections are deduplicated in a group-local table (groupDedup) keyed
// by the projection's build-side columns, which never reads the output
// back, so a row past the first k is counted and not built. Output rows
// come grouped by g. It returns a nil relation when b stops the join.
func (e *Exec) JoinProject(r, s *Relation, x schema.AttrSet, k int, b Budget) (out *Relation, card, joined int) {
	if !x.SubsetOf(r.attrs.Union(s.attrs)) {
		panic(fmt.Sprintf("relation: projection %s ⊄ %s",
			r.U.FormatSet(x), r.U.FormatSet(r.attrs.Union(s.attrs))))
	}
	return e.join(r, s, projectRows, x, nil, nil, k, b)
}

// Chain is what a streamed join feeds past its filter (JoinFilter): the
// semijoins of its value by each of Semijoins, in order, and then, when
// Onto is r or s, the projection onto Onto's attributes. The zero Chain
// is the filter alone.
type Chain struct {
	Semijoins []*Relation
	Onto      *Relation
}

// JoinFilter evaluates the chain of statements v₀ = r ⋈ s, v₁ = v₀ ⋈ f —
// equally v₀ ⋉ f, for an f whose attributes are a subset of r's and s's
// — vᵢ₊₁ = vᵢ ⋉ c.Semijoins[i−1], and, when c.Onto is set,
// π_attrs(Onto)(v) in one grouped walk, storing none of them but the
// last. It walks the probe side group by group, as JoinProject does, on
// g = attrs(f) ∩ attrs(probe), with f sorted into the same groups: when a
// group starts, the h = attrs(f) \ g columns of its filter rows go into
// the group-local table, and a row of r ⋈ s passes the filter when its
// build-side h columns are there — a probe among the group's few keys,
// not a table over all of f. Each semijoin is Semijoin's key set
// (keySet), probed with the join rows the filter and the semijoins before
// it keep; on bit rows, one keyed by h alone is instead a mask over the
// bit rows' window, ANDed with a group's filter bits. The projection
// takes Onto as the probe side, marks each probe row that keeps a join
// row, and returns the marked rows as Semijoin returns its survivors
// (keepMarked) — every one of them: it has no k. Otherwise the last
// value's first k rows are stored (k = All: every row), grouped by g. It
// appends to cards each statement's exact row
// count — |r ⋈ s|, the filter's, each semijoin's, the projection's. When
// b stops the join it returns a nil relation and appends only how many
// join rows it walked.
func (e *Exec) JoinFilter(r, s, f *Relation, c Chain, k int, b Budget, cards []int) (*Relation, []int) {
	x := r.attrs.Union(s.attrs)
	if !f.attrs.SubsetOf(x) {
		panic(fmt.Sprintf("relation: filter %s ⊄ %s", r.U.FormatSet(f.attrs), r.U.FormatSet(x)))
	}
	if c.Onto != nil && c.Onto != r && c.Onto != s {
		panic("relation: a chain projects onto r or s")
	}
	ch := chain{Chain: c}
	out, card, joined := e.join(r, s, filterRows, x, f, &ch, k, b)
	if out == nil {
		return nil, append(cards, joined)
	}
	cards = append(cards, joined, ch.filtered)
	for _, st := range ch.stages {
		cards = append(cards, st.n)
	}
	if c.Onto != nil {
		cards = append(cards, card)
	}
	return out, cards
}

// chain is a JoinFilter's Chain in the join kernel: how many join rows
// the filter kept, each semijoin's stage, and the projection's marks by
// probe row.
type chain struct {
	Chain
	filtered int
	stages   []stage
	rowTest  bool     // some stage tests a whole join row, not a mask
	marks    []uint64 // the projection's: a bit per probe row; nil without one
}

// stage is one semijoin of a chain: its key set, probed with the join
// row's columns — or, on bit rows, mask, a bit per h value of the window
// — and how many rows it kept.
type stage struct {
	set  keySet
	mask []uint64
	n    int
}

// pass reports whether row, a join row of probe row i that the filter
// keeps, passes every stage, counting it as the filter's and at each stage
// it passes, and marks probe row i when it does and the chain projects.
func (ch *chain) pass(row []Value, i int) bool {
	ch.filtered++
	for k := range ch.stages {
		st := &ch.stages[k]
		if !st.set.has(row) {
			return false
		}
		st.n++
	}
	if ch.marks != nil {
		ch.marks[i>>6] |= 1 << (i & 63)
	}
	return true
}

// passBits narrows m, the filter's bits of word wi of probe row i's
// partners on bit rows br, to those that pass every stage, counting the
// filter's and each stage's, and marks probe row i when some bit passes
// and the chain projects. When some stage tests whole rows, row holds the
// probe row's columns, and its column ho, h, is set to each bit's value in
// turn.
func (ch *chain) passBits(m uint64, i, wi int, br *bitRows, row []Value, ho int) uint64 {
	ch.filtered += bits.OnesCount64(m)
	for k := range ch.stages {
		st := &ch.stages[k]
		if st.mask != nil {
			m &= st.mask[wi]
		} else {
			for rest := m; rest != 0; rest &= rest - 1 {
				if row[ho] = br.h(wi, rest); !st.set.has(row) {
					m &^= rest & -rest
				}
			}
		}
		st.n += bits.OnesCount64(m)
	}
	if ch.marks != nil && m != 0 {
		ch.marks[i>>6] |= 1 << (i & 63)
	}
	return m
}

// stages builds ch's semijoin stages for join rows laid out as out's
// columns, each in a setScratch of e's: when the build side is bit rows
// (br non-nil), a semijoin keyed by h alone — the one column of h — is a
// mask over br's window; any other is a key set.
func (e *Exec) stages(ch *chain, out *Relation, br *bitRows, h []schema.Attr) {
	if len(ch.Semijoins) == 0 {
		return
	}
	for len(e.sets) < len(ch.Semijoins) {
		e.sets = append(e.sets, setScratch{})
	}
	ch.stages = make([]stage, len(ch.Semijoins))
	for i, rel := range ch.Semijoins {
		shared := out.attrs.Intersect(rel.attrs).Attrs()
		sPos, rPos := make([]int, len(shared)), make([]int, len(shared))
		for j, a := range shared {
			sPos[j], rPos[j] = rel.colPos(a), out.colPos(a)
		}
		sc := &e.sets[i]
		if br != nil && len(shared) == 1 && shared[0] == h[0] {
			ch.stages[i].mask = bitsOver(rel, sPos[0], br.hlo, br.w, &sc.bits).words
			continue
		}
		ch.stages[i].set = sc.keys.keySet(rel, sPos, rPos, &sc.bits, !e.generic)
		ch.rowTest = true
	}
}

// join is the one join kernel: it builds the smaller of r and s on the
// shared columns, probes it with every live row of the other, and hands
// each row of r ⋈ s to the sink sk, whose output is over x. Join walks
// the probe side chunk by chunk, in position order, and a counted Join
// walks a bucket only while it stores rows and adds the rest of it from
// the bucket's size. The streamed sinks walk it group by group on g
// (group): dense groups in ascending g, hash-numbered ones in the order
// they first appear, each group's rows in position order. The build side
// is a chained keyTable — a streamed sink then starts a group-local table
// for each group — or, for a streamed sink whose one key column and one h
// column are dense, bit rows (bitRows): a probe row's partners are then
// one row of words, ANDed with its group's filter bits or ORed into its
// group's projections, and come in ascending h. Every sink counts its
// output rows and stores the first keep of them. It returns the output
// (nil when b stopped it), its row count and how many join rows it
// walked.
func (e *Exec) join(r, s *Relation, sk sink, x schema.AttrSet, f *Relation, ch *chain, keep int, b Budget) (out *Relation, card, joined int) {
	var onto *Relation
	if ch != nil {
		onto = ch.Onto
	}
	build, probe := r, s
	if onto == r || onto == nil && s.Card() < r.Card() {
		build, probe = s, r
	}
	out = New(r.U, x)
	// A guess, not a bound: the joins a reduced Yannakakis plan runs are
	// key–foreign-key shaped and emit about one row per probe row.
	out.reserved = min(keep, probe.Card())

	// Column positions: the join key on each side, then a streamed sink's
	// group key g in the probe side and the rest of its key, h, in the
	// build side — for JoinProject g = x ∩ attrs(probe) and h = x \ g, for
	// JoinFilter g = attrs(f) ∩ attrs(probe) and h = attrs(f) \ g, both
	// also at their columns in f.
	sharedCols := r.attrs.Intersect(s.attrs).Attrs()
	nk := len(sharedCols)
	var g, h []schema.Attr
	switch sk {
	case projectRows:
		g, h = x.Intersect(probe.attrs).Attrs(), x.Diff(probe.attrs).Attrs()
	case filterRows:
		g, h = f.attrs.Intersect(probe.attrs).Attrs(), f.attrs.Diff(probe.attrs).Attrs()
	}
	ng, nh := len(g), len(h)
	pos := e.positions(2 * (nk + ng + nh))
	bPos, pPos := pos[:nk], pos[nk:2*nk]
	gPos, fgPos := pos[2*nk:][:ng], pos[2*nk+ng:][:ng]
	hPos, fhPos := pos[2*(nk+ng):][:nh], pos[2*(nk+ng)+nh:][:nh]
	for i, c := range sharedCols {
		bPos[i], pPos[i] = build.colPos(c), probe.colPos(c)
	}
	for i, c := range g {
		gPos[i] = probe.colPos(c)
		if sk == filterRows {
			fgPos[i] = f.colPos(c)
		}
	}
	for i, c := range h {
		hPos[i] = build.colPos(c)
		if sk == filterRows {
			fhPos[i] = f.colPos(c)
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

	// The build side: bit rows when the sink allows them — one key column,
	// one h column and, for a filter, no other build column, so that a bit
	// is a build row — and bitSpans finds both dense enough; else a
	// chained keyTable, sized when a counted Join adds buckets up instead
	// of walking them.
	var t keyTable
	var br bitRows
	bitPath := !e.generic && nk == 1 && nh == 1 && (sk == projectRows || sk == filterRows && build.width == 2)
	if bitPath {
		br, bitPath = e.bitRows(build, bPos[0], hPos[0], sk)
	}
	if !bitPath {
		t = e.keys.buildKeys(build, bPos, true, !e.generic && sk == appendRows && keep < All)
	}
	next := t.next // bucket chains, newest build row first
	var bp *bitRows
	if bitPath {
		bp = &br
	}
	// A filter whose chain goes on past it — semijoins, or a projection
	// that marks probe rows — is chained; a plain filter's walk is
	// untouched by it.
	chained := false
	if sk == filterRows {
		e.stages(ch, out, bp, h)
		if onto != nil {
			e.marks = scratch(e.marks, (probe.n+63)>>6)
			clear(e.marks)
			ch.marks = e.marks
		}
		chained = ch.stages != nil || ch.marks != nil
	}
	check := b.next(0)

	if sk == appendRows {
		// Sized, a bucket's rows past keep are counted, not walked.
		walk, sizes := All, t.sizes
		if sizes != nil {
			walk = keep
		}
		w := probe.width
		for c := range probe.chunks {
			ch := &probe.chunks[c]
			for k := range probe.chunkRows(c) {
				if ch.dead != nil && ch.dead.has(k) {
					continue
				}
				prow := ch.data[k*w : k*w+w]
				bi := t.lookup(prow, pPos)
				total := card
				if sizes != nil && bi != 0 {
					total += int(sizes[bi-1])
				}
				for ; bi != 0 && card < walk; bi = next[bi-1] {
					if card++; card <= keep {
						fillRow(obuf, srcs, prow, build.row(int(bi-1)))
						out.appendRow(obuf)
					}
				}
				if card = max(card, total); card >= check { // every join row is an output row
					if b.spent(card) {
						return nil, card, card
					}
					check = b.next(card)
				}
			}
		}
		return out, card, card
	}

	// A streamed sink walks its groups, each with a fresh group table —
	// or, on bit rows, a fresh row of bits, acc.
	gs := e.group(probe, f, gPos, fgPos, pPos, fhPos, bp)
	var dd groupDedup
	var acc []uint64 // bit rows: the group's filter bits, or its projections so far
	var fw []int32   // bit rows: the words a filter group set in acc, ascending
	ho := 0          // bit rows: the output column of h
	if bitPath {
		e.local.words = scratch(e.local.words, br.w)
		e.local.slots = scratch(e.local.slots, br.w)
		acc, fw = e.local.words, e.local.slots[:0]
		clear(acc)
		ho = slices.Index(srcs, int32(^hPos[0]))
	} else {
		dd = e.local.groupDedup(len(h))
	}
	lo, flo := int32(0), int32(0)
	for grp, hi := range gs.ends {
		ents := gs.ents[lo:hi]
		lo = hi
		var fents []int32
		if sk == filterRows {
			fents = gs.fents[flo:gs.fends[grp]]
			flo = gs.fends[grp]
		}
		if len(ents) == 0 {
			continue // a dense group no live probe row has
		}
		switch {
		case sk == filterRows && bitPath:
			// The group's filter rows agree with it on g; the bits of their h
			// in the build side's window are the rest of the key a join row
			// must carry.
			wlo, whi := br.w, -1
			for _, u := range fents {
				acc[u>>6] |= 1 << (u & 63)
				wlo, whi = min(wlo, int(u>>6)), max(whi, int(u>>6))
			}
			fw = fw[:max(whi-wlo+1, 0)]
			nw := 0
			for wi := wlo; wi <= whi; wi++ {
				fw[nw] = int32(wi)
				nw += int((acc[wi] | -acc[wi]) >> 63) // the word is set
			}
			fw = fw[:nw]
		case sk == filterRows:
			dd.start()
			for _, fi := range fents {
				dd.seen(f.row(int(fi)), fhPos)
			}
		case !bitPath:
			dd.start()
		}
		for _, ent := range ents {
			i := int(uint32(ent))
			switch {
			case bitPath:
				d := uint64(int64(int32(ent>>32)) - br.klo)
				if d >= uint64(len(br.sizes)) {
					break // no build row has this key
				}
				joined += int(br.sizes[d])
				row := br.words[int(d)*br.w:][:br.w]
				if sk == projectRows {
					acc := acc[:len(row)]
					for wi, bw := range row {
						acc[wi] |= bw
					}
					break
				}
				filled := false // the probe row is read only when it emits, or a stage tests it
				for _, wi := range fw {
					m := row[wi] & acc[wi]
					if chained && m != 0 {
						if ch.rowTest && !filled {
							fillProbe(obuf, srcs, probe.row(i))
							filled = true
						}
						if m = ch.passBits(m, i, int(wi), &br, obuf, ho); ch.marks != nil {
							continue
						}
					}
					if card >= keep || m == 0 {
						card += bits.OnesCount64(m)
						continue
					}
					if !filled {
						fillProbe(obuf, srcs, probe.row(i))
						filled = true
					}
					for ; m != 0; m &= m - 1 {
						if card++; card <= keep {
							obuf[ho] = br.h(int(wi), m)
							out.appendRow(obuf)
						}
					}
				}
			case sk == filterRows:
				prow := probe.row(i)
				for bi := t.lookup(prow, pPos); bi != 0; bi = next[bi-1] {
					joined++
					brow := build.row(int(bi - 1))
					if dd.lookup(brow, hPos) == 0 {
						continue // no filter row of this group has its h columns
					}
					if chained {
						fillRow(obuf, srcs, prow, brow)
						if !ch.pass(obuf, i) || ch.marks != nil {
							continue
						}
					}
					if card++; card <= keep {
						fillRow(obuf, srcs, prow, brow)
						out.appendRow(obuf)
					}
				}
			default:
				prow := probe.row(i)
				for bi := t.lookup(prow, pPos); bi != 0; bi = next[bi-1] {
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
		if !bitPath {
			continue
		}
		// A filter group's bits, or a projecting group's projections,
		// emitted in ascending h; either way acc is left empty.
		if sk == filterRows {
			for _, wi := range fw {
				acc[wi] = 0
			}
			continue
		}
		if card < keep {
			fillProbe(obuf, srcs, probe.row(int(uint32(ents[0]))))
		}
		for wi, m := range acc {
			if m == 0 {
				continue
			}
			acc[wi] = 0
			if card >= keep {
				card += bits.OnesCount64(m)
				continue
			}
			for ; m != 0; m &= m - 1 {
				if card++; card <= keep {
					obuf[ho] = br.h(wi, m)
					out.appendRow(obuf)
				}
			}
		}
	}
	switch {
	case chained && ch.marks != nil:
		out = keepMarked(probe, ch.marks, !e.generic)
		card = out.Card()
	case sk == filterRows && !chained:
		ch.filtered = card // a plain filter counts every row it keeps
	}
	return out, card, joined
}

// groups is a streamed join's probe side, and a filter's f, grouped on g
// (group): group i's entries run from ends[i−1] (0 for the first group)
// to ends[i], and its filter entries from fends[i−1] to fends[i].
type groups struct {
	ends  []int32
	ents  []uint64 // a live probe row's position; on bit rows its join key too, in the high word
	fends []int32
	fents []int32 // a live filter row's position; on bit rows its h's offset in the build side's window
}

// group sorts the live rows of probe by their g columns gPos — and, for a
// filter, the live rows of f by theirs, fgPos — into e's scratch by
// counting sort: a pass counts each group's rows, a pass places them, so
// each group is one run, in position order. The groups are numbered by
// value, v − lo, when g is one column whose live span is shorter than
// tableSize(|probe|) — its ends then take no more bytes than the slot
// table they stand in for, and no table is built — and otherwise by an
// unchained keyTable of probe's g keys (numberKeys), in the order they
// first appear: g = ∅, two or more columns, or a sparse column. A row of
// f whose g no probe row has matches no join row, and is dropped. On bit
// rows (br), a probe entry carries the row's join key, its column
// pPos[0], so the walk reads no probe row it does not emit, and a filter
// entry is the offset of its h, column fhPos[0], in br's window; a filter
// row whose h lies outside the window has no partner, and is dropped too.
// Numbered by value, a clean chunk of the probe side is counted by g's
// column alone and placed in a loop with no dead-row test.
// The ends are aux's slots and the entries its words, which a keyTable
// of g leaves behind once f has been looked up in it; f's are fends and
// fents.
func (e *Exec) group(probe, f *Relation, gPos, fgPos, pPos, fhPos []int, br *bitRows) groups {
	var gs groups
	// Dense, a row's group is v − lo; else t numbers g's keys and nums
	// holds each probe row's number.
	var t keyTable
	var nums []int32
	lo, n, dense := int64(0), 0, false
	if len(gPos) == 1 && !e.generic {
		var span int64
		lo, span, dense = liveSpan(probe, gPos[0], int64(tableSize(probe.Card()))-1)
		n = int(span)
	}
	if !dense {
		t, n = e.aux.numberKeys(probe, gPos)
		nums = e.aux.next
	}
	if f != nil {
		e.fends = scratch(e.fends, n)
		gs.fends = e.fends
		clear(gs.fends)
		// Dense, a row's group is column fgp; on bit rows its entry is
		// column fhp's offset.
		w, fgp, fhp := f.width, 0, 0
		if dense {
			fgp = fgPos[0]
		}
		if br != nil {
			fhp = fhPos[0]
		}
		for pass := range 2 {
			for c := range f.chunks {
				data, dead := f.chunks[c].data, f.chunks[c].dead
				for k, o := 0, 0; k < f.chunkRows(c); k, o = k+1, o+w {
					if dead != nil && dead.has(k) {
						continue
					}
					var grp int
					if dense {
						d := uint64(int64(data[o+fgp]) - lo)
						if d >= uint64(n) {
							continue
						}
						grp = int(d)
					} else if head := t.lookup(data[o:o+w], fgPos); head != 0 {
						grp = int(nums[head-1])
					} else {
						continue
					}
					ent := int32(c<<chunkShift + k)
					if br != nil {
						u := uint64(int64(data[o+fhp]) - br.hlo)
						if u>>6 >= uint64(br.w) {
							continue
						}
						ent = int32(u)
					}
					if pass == 1 {
						gs.fents[gs.fends[grp]] = ent
					}
					gs.fends[grp]++
				}
			}
			if pass == 0 {
				e.fents = scratch(e.fents, int(starts(gs.fends)))
				gs.fents = e.fents
			}
		}
	}
	gs.ends = e.aux.slotScratch(n)
	e.aux.words = scratch(e.aux.words, probe.Card())
	gs.ents = e.aux.words
	// On bit rows an entry's high word is the probe row's join key, column
	// kp; off them keyed masks it out.
	w, gp, kp, keyed := probe.width, 0, 0, uint64(0)
	if dense {
		gp = gPos[0]
	}
	if br != nil {
		kp, keyed = pPos[0], math.MaxUint32
	}
	for pass := range 2 {
		for c := range probe.chunks {
			data, dead, rows := probe.chunks[c].data, probe.chunks[c].dead, probe.chunkRows(c)
			i0 := c << chunkShift
			switch {
			case !dense:
				for i, grp := range nums[i0 : i0+rows] {
					if grp < 0 {
						continue
					}
					if pass == 1 {
						ent := uint64(i0 + i)
						if br != nil {
							ent |= uint64(uint32(data[i*w+kp])) << 32
						}
						gs.ents[gs.ends[grp]] = ent
					}
					gs.ends[grp]++
				}
			case dead == nil && pass == 0: // g's column alone
				for o, end := gp, rows*w; o < end; o += w {
					gs.ends[int64(data[o])-lo]++
				}
			case dead == nil:
				for k, o := 0, 0; k < rows; k, o = k+1, o+w {
					grp := int64(data[o+gp]) - lo
					gs.ents[gs.ends[grp]] = uint64(i0+k) | uint64(uint32(data[o+kp]))&keyed<<32
					gs.ends[grp]++
				}
			default:
				for k, o := 0, 0; k < rows; k, o = k+1, o+w {
					if dead.has(k) {
						continue
					}
					grp := int64(data[o+gp]) - lo
					if pass == 1 {
						gs.ents[gs.ends[grp]] = uint64(i0+k) | uint64(uint32(data[o+kp]))&keyed<<32
					}
					gs.ends[grp]++
				}
			}
		}
		if pass == 0 {
			starts(gs.ends)
		}
	}
	return gs
}

// starts turns counts by group into each group's first index — its end
// once the place pass has advanced it by its count — and returns their sum.
func starts(ends []int32) int32 {
	sum := int32(0)
	for grp, n := range ends {
		ends[grp] = sum
		sum += n
	}
	return sum
}

// numberKeys enters the keys of rel's live rows, its columns pos, into a
// fresh unchained keyTable over ks, as buildKeys does, and numbers each
// key the first time it meets it: next holds every row's number, −1 for a
// dead row. It returns the table and how many keys it numbered.
func (ks *keyScratch) numberKeys(rel *Relation, pos []int) (keyTable, int) {
	t := ks.table(rel, pos, rel.Card(), rel.n)
	ks.next = scratch(ks.next, rel.n)
	num := ks.next
	n := int32(0)
	w := rel.width
	for c := range rel.chunks {
		data, dead := rel.chunks[c].data, rel.chunks[c].dead
		for k := range rel.chunkRows(c) {
			i := c<<chunkShift + k
			if dead != nil && dead.has(k) {
				num[i] = -1
				continue
			}
			kw, j, head := t.probe(data[k*w:k*w+w], pos)
			if head != 0 {
				num[i] = num[head-1]
				continue
			}
			t.enter(i, kw, j)
			num[i] = n
			n++
		}
	}
	return t, int(n)
}

// bitRowWords bounds a streamed join's bit rows, by sink: they may hold
// at most bitRowWords[sk] words per live build row — per key, a row of at
// most that many words per partner the key has on average. It is the
// memory bound too: 64 B per build row for JoinProject and 160 B for
// JoinFilter, against the ≈ 25 B of the chained table they stand in for.
// The figures are the crossovers of BenchmarkJoinDensity (counted, k =
// 10, 20k build rows over 2000 keys, h's domain from 2000 to 128 000; a
// 2-core Xeon at -cpu 1, bits ÷ chained, medians of 5 runs, two or three
// sweeps): JoinProject ORs a key's whole row into its group's — 0.44–0.47
// at 3.2 words a row, 0.63–0.64 at 6.3, 0.99 at 8.0, 0.79–1.07 at 8.9,
// 1.29–1.53 at 12.5; JoinFilter reads only the words its group's filter
// rows set — 0.39–0.58 at 3.2, 0.72–0.94 at 12.5, 0.83–0.96 at 17.7, 1.07
// at 20, 0.90–1.30 at 25, 1.06–1.69 at 35. D20k's triangle is 3.2 words a
// row. It is a variable so that the sweep can force either path; nothing
// else sets it.
var bitRowWords = [...]int{projectRows: 8, filterRows: 20}

// bitRows is a streamed join's build side on one dense key column and one
// dense h column: row v − klo of words, w words long, has bit u − hlo set
// for every live build row whose key is v and whose h is u, and sizes
// counts the live build rows of each key — the join rows one probe row
// with that key makes. The rows live in the words, and the counts in the
// sizes, of the keys scratch: the chained table they stand in for is not
// built.
type bitRows struct {
	words    []uint64
	sizes    []int32
	klo, hlo int64
	w        int
}

// bitSpans scans the live rows of rel for the least values and the spans
// hi − lo + 1 of its columns kp and hp, in int64, and reports whether bit
// rows over them fit: one row of ⌈hspan/64⌉ words per key of the span,
// at most perRow words per live row in all. The scan stops at the first
// live row that breaks the bound, so a sparse column costs a few rows,
// not a pass. A rel with no live row has no bit rows.
func bitSpans(rel *Relation, kp, hp, perRow int) (klo, kspan, hlo, hspan int64, ok bool) {
	if rel.Card() == 0 {
		return 0, 0, 0, 0, false
	}
	budget := int64(perRow) * int64(rel.Card())
	klo, khi := int64(math.MaxInt64), int64(math.MinInt64)
	hlo, hhi := klo, khi
	w := rel.width
	for c := range rel.chunks {
		data, dead := rel.chunks[c].data, rel.chunks[c].dead
		for k, o := 0, 0; k < rel.chunkRows(c); k, o = k+1, o+w {
			if dead != nil && dead.has(k) {
				continue
			}
			kv, hv := int64(data[o+kp]), int64(data[o+hp])
			if kv < klo || kv > khi || hv < hlo || hv > hhi {
				klo, khi = min(klo, kv), max(khi, kv)
				hlo, hhi = min(hlo, hv), max(hhi, hv)
				if (khi-klo+1)*((hhi-hlo+64)>>6) > budget {
					return 0, 0, 0, 0, false
				}
			}
		}
	}
	return klo, khi - klo + 1, hlo, hhi - hlo + 1, true
}

// bitRows builds rel's bit rows on its key column kp and h column hp in
// e's keys scratch for the sink sk, when bitSpans allows them at
// bitRowWords[sk] words per row; otherwise false.
func (e *Exec) bitRows(rel *Relation, kp, hp int, sk sink) (bitRows, bool) {
	klo, kspan, hlo, hspan, ok := bitSpans(rel, kp, hp, bitRowWords[sk])
	if !ok {
		return bitRows{}, false
	}
	br := bitRows{klo: klo, hlo: hlo, w: int((hspan + 63) >> 6)}
	e.keys.words = scratch(e.keys.words, int(kspan)*br.w)
	e.keys.sizes = scratch(e.keys.sizes, int(kspan))
	br.words, br.sizes = e.keys.words, e.keys.sizes
	clear(br.words)
	clear(br.sizes)
	w := rel.width
	for c := range rel.chunks {
		data, dead := rel.chunks[c].data, rel.chunks[c].dead
		for k, o := 0, 0; k < rel.chunkRows(c); k, o = k+1, o+w {
			if dead != nil && dead.has(k) {
				continue
			}
			d, u := int64(data[o+kp])-klo, uint64(int64(data[o+hp])-hlo)
			br.words[int(d)*br.w+int(u>>6)] |= 1 << (u & 63)
			br.sizes[d]++
		}
	}
	return br, true
}

// h returns the h value of the lowest set bit of m, word wi of a bit row.
func (br bitRows) h(wi int, m uint64) Value {
	return Value(br.hlo + int64(wi<<6+bits.TrailingZeros64(m)))
}

// fillProbe writes the columns of a join row that come from probe row
// prow into buf: on bit rows every other column is h.
func fillProbe(buf []Value, srcs []int32, prow []Value) {
	for o, sc := range srcs {
		if sc >= 0 {
			buf[o] = prow[sc]
		}
	}
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
// s form a set (keySet) which every row of r probes, chunk by chunk. A
// key of one column whose live values in s span few enough values
// (denseSpan) is a bitmap over [lo, hi] (keyBits), and a probe is a
// subtract, an unsigned compare and a bit test on r's key column, read
// with stride r's width; any other key is an open-addressing set —
// Join's build table without the chains, keyed by the same key word, so
// for a key of up to two columns a probe never touches a row of s. The
// path, chosen once per call, is tested once per 64 rows, and each has a
// loop of its own. A row that has a partner is marked, a bit per row of
// r, 64 rows to a word, and a chunk's dead rows are masked out of its
// words afterwards; the marked rows are the output (keepMarked): the
// clean prefix — every row before the first dropped one — shares r's full
// chunks, and only the rows from the first drop's chunk onward are
// repacked. A dead row of r is a dropped row, so the output is dense
// whatever r carries. A semijoin that filters nothing, the steady state
// of a full reducer over consistent data, costs the build, the probes, a
// chunk-table copy and one block copy of the tail.
func (e *Exec) Semijoin(r, s *Relation) *Relation {
	sharedCols := r.attrs.Intersect(s.attrs).Attrs()
	pos := e.positions(2 * len(sharedCols))
	sPos, rPos := pos[:len(sharedCols)], pos[len(sharedCols):]
	for i, c := range sharedCols {
		sPos[i] = s.colPos(c)
		rPos[i] = r.colPos(c)
	}
	set := e.keys.keySet(s, sPos, rPos, &e.bits, !e.generic)
	e.marks = scratch(e.marks, (r.n+63)>>6)
	for c := range r.chunks {
		// A chunk is a whole number of words: each word of marks is one
		// run of 64 rows, written once.
		data, dead, rows := r.chunks[c].data, r.chunks[c].dead, r.chunkRows(c)
		marks, w := e.marks[c<<(chunkShift-6):][:(rows+63)>>6], r.width
		for wi := range marks {
			if set.dense {
				marks[wi] = set.bits.mark(data, wi<<6, rows, w, set.p)
				continue
			}
			var m uint64
			for k := wi << 6; k < min(wi<<6+64, rows); k++ {
				if set.t.lookup(data[k*w:k*w+w], set.pos) != 0 {
					m |= 1 << (k & 63)
				}
			}
			marks[wi] = m
		}
		if dead != nil {
			for wi := range marks {
				marks[wi] &^= dead[wi]
			}
		}
	}
	return keepMarked(r, e.marks, !e.generic)
}

// keepMarked returns the rows of r whose bits are set in marks — a dead
// row's never is — in r's order: Semijoin's survivors, and the probe rows
// a chain's projection keeps (JoinFilter). They are rows of a set, so
// nothing is deduplicated. While every row so far is kept nothing is
// copied: the output adopts the clean prefix before the first unmarked
// row, sharing its full chunks with r — ids included, the way compact
// shares the chunks before a delete — and only the marked rows past it
// are repacked, 64 rows at a time where a word of marks is full and
// blocks allows it, else row by row.
func keepMarked(r *Relation, marks []uint64, blocks bool) *Relation {
	out := New(r.U, r.attrs)
	first := r.n
	for wi, m := range marks {
		out.reserved += bits.OnesCount64(m)
		if first == r.n && m != math.MaxUint64 {
			first = min(wi<<6+bits.TrailingZeros64(^m), r.n)
		}
	}
	out.adoptPrefix(r, first)
	w := r.width
	for wi := first >> 6; wi < len(marks); wi++ {
		m := marks[wi]
		if wi == first>>6 {
			m &= math.MaxUint64 << (first & 63)
		}
		if blocks && m == math.MaxUint64 && w > 0 { // 64 rows of one chunk, in one copy
			c, k := wi>>(chunkShift-6), wi<<6&chunkMask
			out.appendRows(r.chunks[c].data[k*w : (k+64)*w])
			continue
		}
		for ; m != 0; m &= m - 1 {
			out.appendRow(r.row(wi<<6 + bits.TrailingZeros64(m)))
		}
	}
	return out
}

// keySet is a semijoin's build side: the distinct keys of its right
// operand's shared columns, as a bitmap (bits) when the key is one column
// that denseSpan allows and bitmaps are allowed, else as a keyTable
// without chains (t). A row probes it on its own key columns, p or pos.
type keySet struct {
	bits  keyBits
	t     keyTable
	dense bool
	p     int
	pos   []int
}

// keySet builds the key set of s's columns sPos — in ks, or in *words
// when it is a bitmap, which only bitmap lets it be — for rows whose key
// columns are rPos.
func (ks *keyScratch) keySet(s *Relation, sPos, rPos []int, words *[]uint64, bitmap bool) keySet {
	set := keySet{pos: rPos}
	if len(sPos) == 1 && bitmap {
		if lo, span, ok := denseSpan(s, sPos[0]); ok {
			set.bits, set.dense = bitsOver(s, sPos[0], lo, int((span+63)>>6), words), true
		}
		set.p = rPos[0]
	}
	if !set.dense {
		set.t = ks.buildKeys(s, sPos, false, false)
	}
	return set
}

// has reports whether the key of row is in the set.
func (set *keySet) has(row []Value) bool {
	if set.dense {
		return set.bits.has(row[set.p])
	}
	return set.t.lookup(row, set.pos) != 0
}

// denseSpan decides how Semijoin holds the key set of a one-column key,
// s's column p: as a bitmap over [lo, hi], a bit per value, when the live
// values span at most 32 · tableSize(|s|) — it then has no more bytes than
// the slot table of the keyTable it replaces (liveSpan).
func denseSpan(s *Relation, p int) (lo, span int64, ok bool) {
	return liveSpan(s, p, 32*int64(tableSize(s.Card())))
}

// liveSpan returns the least live value lo of rel's column p and the span
// hi − lo + 1 of its live values, and whether that span is at most limit.
// The span is taken in int64, so [MinInt32, MaxInt32] is 2³² and does not
// wrap. It reads the column with stride rel's width, 64 rows at a time —
// a chunk with no dead rows in a loop with no dead-row test — and stops
// after the first block of 64 whose rows push the span past limit, so a
// sparse column costs a few blocks, not a pass. A rel with no live row
// has span 0.
func liveSpan(rel *Relation, p int, limit int64) (lo, span int64, ok bool) {
	if rel.Card() == 0 {
		return 0, 0, true
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	w := rel.width
	for c := range rel.chunks {
		data, dead, rows := rel.chunks[c].data, rel.chunks[c].dead, rel.chunkRows(c)
		for k0 := 0; k0 < rows; k0 += 64 {
			if end := min(k0+64, rows) * w; dead == nil {
				for o := k0*w + p; o < end; o += w {
					lo, hi = min(lo, int64(data[o])), max(hi, int64(data[o]))
				}
			} else {
				for k, o := k0, k0*w+p; o < end; k, o = k+1, o+w {
					if !dead.has(k) {
						lo, hi = min(lo, int64(data[o])), max(hi, int64(data[o]))
					}
				}
			}
			if hi > lo && hi-lo >= limit {
				return 0, 0, false
			}
		}
	}
	return lo, hi - lo + 1, true
}

// keyBits is a one-column key set as a bitmap: bit v − lo of words is
// set when the set holds v.
type keyBits struct {
	words []uint64
	lo    int64
}

// bitsOver returns the live values of s's column p that lie in the n
// words' window [lo, lo + 64n) as a bitmap in *words; the others are
// left out. It reads the column as liveSpan does.
func bitsOver(s *Relation, p int, lo int64, n int, words *[]uint64) keyBits {
	*words = scratch(*words, n)
	clear(*words)
	bw, w := *words, s.width
	for c := range s.chunks {
		data, dead, rows := s.chunks[c].data, s.chunks[c].dead, s.chunkRows(c)
		if dead == nil {
			for o, end := p, rows*w; o < end; o += w {
				if d := uint64(int64(data[o]) - lo); d>>6 < uint64(len(bw)) {
					bw[d>>6] |= 1 << (d & 63)
				}
			}
			continue
		}
		for k, o := 0, p; k < rows; k, o = k+1, o+w {
			if d := uint64(int64(data[o]) - lo); d>>6 < uint64(len(bw)) && !dead.has(k) {
				bw[d>>6] |= 1 << (d & 63)
			}
		}
	}
	return keyBits{words: bw, lo: lo}
}

// mark returns the rows from k0 of data, rows rows of width w, whose
// column p the set holds: bit k − k0 for row k, up to 64 of them.
func (b keyBits) mark(data []Value, k0, rows, w, p int) (m uint64) {
	n, end := uint64(len(b.words)), min(64, rows-k0)
	for o, stop := k0*w+p, (k0+end)*w; o < stop; o += w {
		m >>= 1 // row k's bit enters at the top and is shifted down to k
		if d := uint64(int64(data[o]) - b.lo); d>>6 < n {
			m |= b.words[d>>6] << (63 - d&63) & (1 << 63)
		}
	}
	return m >> (64 - end)
}

// has reports whether the set holds v: a v below lo wraps to a large d,
// so one unsigned compare bounds both ends.
func (b keyBits) has(v Value) bool {
	d := uint64(int64(v) - b.lo)
	return d>>6 < uint64(len(b.words)) && b.words[d>>6]&(1<<(d&63)) != 0
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
