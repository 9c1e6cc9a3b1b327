// Package relation implements the relational-algebra substrate: relation
// states over attribute sets, natural join, projection, semijoin, and
// universal-relation database construction (paper §2). Tuples carry
// int32 values; relations have set semantics (duplicates eliminated).
//
// Storage is columnar-adjacent and persistent: every relation keeps its
// rows in a chunked row-major arena — fixed-size (ChunkRows) immutable
// chunks with width-strided access, never per-row slices. Full chunks
// are immutable from the moment they fill, so snapshots share them
// structurally: Clone of a frozen relation copies only the chunk table
// (slice headers) and the small index overlay, making the engine's
// copy-on-write write path O(batch) instead of O(card) per mutation
// batch.
//
// Row positions never move. A delete does not repack: each chunk may
// carry a dead-row bitmap (nil for a chunk that never lost a row — every
// operator output and every never-deleted relation), and DeleteBlock /
// Without look each victim up in the relation's own index, copy the
// bitmaps of the chunks they touch, set bits and share everything else —
// chunks, durable chunk ids, the base index table and the overlay — so a
// delete, like an insert, costs O(batch). Card is the live count, index
// probes treat a matching dead row as absent and keep probing (a
// re-inserted tuple is appended as a fresh row), every row loop skips
// dead rows of a stored input, and operator outputs are always dense.
// The one O(card) routine left is compact — repack the chunks past the
// leading ones that hold few or no dead rows, and rebuild the index —
// which a delete runs itself once dead rows exceed 1/compactDiv of the
// live rows: amortised O(1) per deleted row, and never more than that
// fraction of wasted space.
//
// Set semantics hold by construction wherever they can. The join or
// semijoin of duplicate-free inputs, any partition of a duplicate-free
// relation, and a column permutation of one are duplicate-free, so
// Exec.Join, Exec.Semijoin, Partition and the permuting Renamed only
// append rows;
// projection is the one operation that can create duplicates: Exec.Project
// eliminates them in a pooled key table over its output's rows, and
// Exec.JoinProject — π_x(r ⋈ s) without the join ever being stored —
// in a small group-local one, since two join rows with one projection
// come from probe rows that agree on the kept columns. Exec.JoinFilter,
// a join with a relation over a subset of its attributes done as it
// streams, only appends. The three join sinks also run counted
// (Exec.JoinFirst, and the k of the other two): they count every output
// row and store only the first k. None of them gives its output a set
// index. A row stores nothing but its values. The index is open
// addressing over row positions, placed by the key word of all a row's
// columns (the word Project's output table uses) and verified against
// the row itself. It is maintained eagerly only by the insert paths
// (Insert, InsertBlock, FromArena), whose rows arrive from outside; for
// an operator output it is built on demand, once and race-safely, by the
// first membership use: Has, Equal (of its argument),
// Insert/InsertBlock, DeleteBlock/Without, Clone, or the identity
// Renamed view. A program run therefore never allocates, grows or probes
// a per-relation table, and a database published from operator outputs
// (URDatabase) pays for each relation's index on its first write or
// first bind. An index is a shared immutable base table inherited from
// the snapshot lineage plus a small private overlay for rows appended
// since, merged back into an owned base once the overlay outgrows its
// bound. No string keys are materialized anywhere on the insert, lookup,
// join, or semijoin paths. The operators live on Exec (see exec.go), a
// reusable execution context that amortizes its scratch tables and
// buffers across a whole program run; the methods on Relation are
// convenience wrappers over a throwaway Exec. The operator tables are
// not the set index: they are all one keyTable, keyed by columns
// themselves — a 64-bit key word per row that is the key when it has at
// most two columns, so a probe compares words and fetches no row, and a
// fold of the columns, verified column-by-column, when it has more. The
// one exception is a Semijoin on one column whose live values in s span
// no more values than that keyTable's slot table has bits: its key set is
// a bitmap over [lo, hi], no bigger than those slots, and a probe is a
// subtract, a compare and a bit test. Join and Semijoin key their build
// side by the shared columns and walk both operands chunk by chunk;
// Project keys its output rows by all their columns, and a streamed
// join's group-local table keys them by their build-side columns —
// JoinProject's projections, and the filter rows of JoinFilter's current
// group.
package relation

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"gyokit/internal/schema"
)

// Value is a single attribute value.
type Value = int32

// Tuple is a row; values are ordered by the owning relation's sorted
// attribute list.
type Tuple []Value

// ChunkRows is the arena chunk size in rows. A chunk that reaches
// ChunkRows rows is full and immutable forever; only the (unique,
// growing) tail chunk of a relation is ever appended to. 4096 rows
// keeps a full chunk's arena at 16·width KiB — big enough to amortize
// the chunk-table indirection, small enough that the copy-on-write tail
// copy stays trivial next to a large relation.
const ChunkRows = 1 << chunkShift

const (
	chunkShift = 12
	chunkMask  = ChunkRows - 1
)

// chunk is one fixed-capacity block of the arena: up to ChunkRows rows
// of values, row-major, so len(data) is row count × width. The row count
// itself comes from the relation's n (chunkRows): a zero-width chunk has
// no data to count.
type chunk struct {
	data []Value
	// id is the chunk's durable identity: nonzero exactly when the chunk
	// is full (and therefore immutable forever), drawn from a
	// process-wide monotonic counter at the moment the chunk fills.
	// Clones copy the chunk struct by value, id included, so structurally
	// shared chunks share one id and two live chunks with the same id
	// always hold identical rows. The counter is process-wide rather than
	// per-relation so the id alone can key a durable chunk table — a
	// relation has no stable identity across Drop, which renumbers the
	// survivors. The mutable tail chunk never carries an id.
	id uint64
	// dead marks the chunk's deleted rows; nil (the common case) means
	// every row is live. A bitmap is immutable once the call that built it
	// returns — a later delete copies it before setting more bits — so
	// snapshots share it like the chunk itself.
	dead *deadBits
}

// deadBits is one chunk's dead-row bitmap: bit i set = row i deleted.
type deadBits [ChunkRows / 64]uint64

func (d *deadBits) has(i int) bool { return d[i>>6]&(1<<(i&63)) != 0 }

// count returns the number of dead rows; a nil bitmap has none.
func (d *deadBits) count() int {
	n := 0
	if d != nil {
		for _, w := range d {
			n += bits.OnesCount64(w)
		}
	}
	return n
}

// compactDiv sets the compaction trigger: a delete that leaves more
// dead rows than 1/compactDiv of the live rows repacks the relation
// (see compact). It bounds the space dead rows hold and the extra rows a
// scan steps over to that fraction, and makes compaction — O(card) —
// amortised O(1) per deleted row.
const compactDiv = 4

// chunkIDs is the process-wide chunk-id counter. SetChunkID raises it
// past every id restored from a checkpoint manifest, so freshly filled
// chunks can never collide with a restored identity.
var chunkIDs atomic.Uint64

func nextChunkID() uint64 { return chunkIDs.Add(1) }

// Relation is a relation state over a fixed attribute set.
//
// A Relation is safe for concurrent READS (operators never mutate their
// inputs); mutation via Insert/InsertMap is single-writer. Freeze marks
// a relation immutable, turning later Inserts into panics — the serving
// layer freezes every relation of a published Database snapshot so that
// accidental writes to shared state fail loudly instead of racing.
// Freezing also unlocks cheap snapshots: Clone of a frozen relation
// shares every chunk and the base index with the original.
type Relation struct {
	U     *schema.Universe
	attrs schema.AttrSet
	cols  []schema.Attr // sorted ascending
	width int
	all   []int // positions 0 … width−1: the key the set index and Project place a row by

	chunks []chunk // row i lives in chunks[i>>chunkShift] at offset (i&chunkMask)*width
	n      int     // row positions in use, live or dead
	dead   int     // dead rows among them; Card is n - dead
	// compactions counts the compact runs in this relation's lineage
	// (Clone carries it over): an observability counter, nothing reads it
	// to decide anything.
	compactions uint64
	// reserved is the row count a builder expects to append in total
	// (0 = unknown): see newChunk. It is a sizing hint only; a low or a
	// high estimate costs allocation, never correctness.
	reserved int

	// The set-semantics index. When baseOwned, base is this relation's
	// private mutable open-addressing table over all n rows (overlay
	// unused). When !baseOwned, base is an immutable table inherited
	// from a snapshot ancestor covering rows [0, baseN), and over is a
	// private overlay covering rows [baseN, n); once the overlay
	// outgrows overlayBound the two are merged into a fresh owned base.
	// Slot values are row index + 1; 0 = empty.
	//
	// An operator output is born index-free: baseOwned with rows but no
	// base table. indexOnce builds the table on the first membership use
	// (see ensureIndex); every read or write of the index fields goes
	// through it first, which is what makes that first use safe on a
	// relation many goroutines already share.
	//
	// Tables name row positions and outlive deletes: a slot may name a row
	// this relation (but not the ancestor that built the table) holds
	// dead, so probes check liveness on a match.
	base      []int32
	over      []int32
	baseN     int
	baseOwned bool
	// overShared: over belongs to a frozen relation this one was derived
	// from and is copied before its first write.
	overShared bool
	indexOnce  sync.Once

	frozen atomic.Bool
}

// New returns an empty relation over the given attribute set.
func New(u *schema.Universe, attrs schema.AttrSet) *Relation {
	cols := attrs.Attrs()
	return &Relation{
		U:         u,
		attrs:     attrs.Clone(),
		cols:      cols,
		width:     len(cols),
		all:       allCols(len(cols)),
		baseOwned: true,
	}
}

// NewSized returns an empty relation over attrs presized for rows
// tuples: the index table is allocated at its final size and the first
// chunk at full capacity, so bulk-loading rows tuples never rehashes.
func NewSized(u *schema.Universe, attrs schema.AttrSet, rows int) *Relation {
	r := New(u, attrs)
	r.grow(rows)
	return r
}

// Attrs returns the relation's attribute set.
func (r *Relation) Attrs() schema.AttrSet { return r.attrs.Clone() }

// Cols returns the sorted attribute list defining tuple column order.
func (r *Relation) Cols() []schema.Attr { return append([]schema.Attr(nil), r.cols...) }

// Card returns the number of tuples.
func (r *Relation) Card() int { return r.n - r.dead }

// row returns the i-th row as a view into its arena chunk.
func (r *Relation) row(i int) []Value {
	o := (i & chunkMask) * r.width
	return r.chunks[i>>chunkShift].data[o : o+r.width]
}

// chunkRows returns the row count of chunk c: ChunkRows for every chunk
// but the tail.
func (r *Relation) chunkRows(c int) int {
	return min(r.n-c<<chunkShift, ChunkRows)
}

// isDead reports whether the row at position i has been deleted.
func (r *Relation) isDead(i int) bool {
	d := r.chunks[i>>chunkShift].dead
	return d != nil && d.has(i&chunkMask)
}

// nextLive returns the first live row position ≥ i, or a value ≥ r.n
// when there is none. Every row loop over a relation that may be a
// stored one runs
//
//	for i := r.nextLive(0); i < r.n; i = r.nextLive(i + 1)
//
// which on a relation without dead rows is the plain counting loop.
func (r *Relation) nextLive(i int) int {
	if r.dead == 0 {
		return i
	}
	return r.skipDead(i)
}

func (r *Relation) skipDead(i int) int {
	for i < r.n {
		d := r.chunks[i>>chunkShift].dead
		if d == nil {
			return i
		}
		// Live rows of this bitmap word at or after i. Bits past the
		// chunk's last row are clear, so a hit may lie beyond r.n — in the
		// tail chunk only, where the caller's bound ends the loop.
		o := i & chunkMask
		if w := ^d[o>>6] >> (o & 63); w != 0 {
			return i + bits.TrailingZeros64(w)
		}
		i = (i | 63) + 1
	}
	return i
}

// Tuples returns the rows as views into the arena (shared; callers
// must not modify).
func (r *Relation) Tuples() []Tuple {
	out := make([]Tuple, 0, r.Card())
	for i := r.nextLive(0); i < r.n; i = r.nextLive(i + 1) {
		out = append(out, Tuple(r.row(i)))
	}
	return out
}

// TupleAt returns the i-th live row, in position order, as a view into
// the arena (shared; callers must not modify). For bounded iteration it
// avoids Tuples' O(Card) slice of row headers; on a relation carrying
// dead rows each call counts its way there through the chunk bitmaps.
func (r *Relation) TupleAt(i int) Tuple {
	if r.dead == 0 {
		return Tuple(r.row(i))
	}
	for c := range r.chunks {
		ch, rows := &r.chunks[c], r.chunkRows(c)
		if ch.dead == nil {
			if i < rows {
				return Tuple(r.row(c<<chunkShift + i))
			}
			i -= rows
			continue
		}
		for w := 0; w<<6 < rows; w++ {
			live := ^ch.dead[w]
			if rest := rows - w<<6; rest < 64 {
				live &= 1<<rest - 1
			}
			if n := bits.OnesCount64(live); i >= n {
				i -= n
				continue
			}
			for ; i > 0; i-- {
				live &= live - 1
			}
			return Tuple(r.row(c<<chunkShift + w<<6 + bits.TrailingZeros64(live)))
		}
	}
	panic(fmt.Sprintf("relation: TupleAt past the last of %d tuples", r.Card()))
}

// appendRow appends a row (copied) to the arena tail, starting a fresh
// chunk when the tail is full. It neither checks for duplicates nor
// touches the index: the producers that call it directly emit rows that
// are distinct by construction into a relation that has no index yet.
func (r *Relation) appendRow(vals []Value) {
	if r.n&chunkMask == 0 {
		r.chunks = append(r.chunks, r.newChunk())
	}
	c := &r.chunks[len(r.chunks)-1]
	c.data = append(c.data, vals...)
	if r.n++; r.n&chunkMask == 0 {
		c.id = nextChunkID()
	}
}

// appendRows appends the rows of block, a whole number of rows of a
// relation of nonzero width, a chunk's worth at a time.
func (r *Relation) appendRows(block []Value) {
	for len(block) > 0 {
		if r.n&chunkMask == 0 {
			r.chunks = append(r.chunks, r.newChunk())
		}
		c := &r.chunks[len(r.chunks)-1]
		rows := min(len(block)/r.width, ChunkRows-r.n&chunkMask)
		c.data = append(c.data, block[:rows*r.width]...)
		block = block[rows*r.width:]
		if r.n += rows; r.n&chunkMask == 0 {
			c.id = nextChunkID()
		}
	}
}

// newChunk returns an empty tail chunk sized for the rows still
// expected: the outstanding part of the reservation, at most a full
// chunk. Past (or without) a reservation, a chunk that follows a full
// one is allocated full — the relation is evidently large, and growing
// 4096 rows by append's 1.25× steps allocates about five times the
// chunk — while the first chunk of a relation of unknown size starts
// empty and grows, so small relations stay small.
func (r *Relation) newChunk() chunk {
	rows := min(r.reserved-r.n, ChunkRows)
	if rows <= 0 && len(r.chunks) > 0 {
		rows = ChunkRows
	}
	if rows <= 0 {
		return chunk{}
	}
	return chunk{data: make([]Value, 0, rows*r.width)}
}

// growBase (re)builds the owned open-addressing table at double
// capacity.
func (r *Relation) growBase() {
	size := 16
	if len(r.base) > 0 {
		size = 2 * len(r.base)
	}
	r.base = rebuildTable(r, size, 0, r.n)
}

// growOverlay doubles the overlay table, re-placing the overlay rows.
func (r *Relation) growOverlay() {
	size := 16
	if len(r.over) > 0 {
		size = 2 * len(r.over)
	}
	r.over = rebuildTable(r, size, r.baseN, r.n)
	r.overShared = false
}

// rebuildTable builds a table of the given power-of-two size holding
// the live rows among [lo, hi) of r, each placed by its key word.
func rebuildTable(r *Relation, size, lo, hi int) []int32 {
	return placeRows(r, make([]int32, size), lo, hi)
}

// placeRows places the live rows among [lo, hi) of r into the
// power-of-two table t, which holds none of them, and returns t. Live
// rows of a relation are distinct by construction, so placement needs no
// compares.
func placeRows(r *Relation, t []int32, lo, hi int) []int32 {
	mask := uint64(len(t) - 1)
	shift := uint(bits.LeadingZeros64(mask))
	for i := r.nextLive(lo); i < hi; i = r.nextLive(i + 1) {
		j := keySlot(keyWord(r.row(i), r.all), shift)
		for t[j] != 0 {
			j = (j + 1) & mask
		}
		t[j] = int32(i + 1)
	}
	return t
}

// overlayBound is the overlay row count past which a shared-base
// relation merges base+overlay into a fresh owned table. The bound
// grows with the relation (n/64) so sustained ingest rebuilds the big
// table geometrically rarely, with a floor so small relations don't
// thrash.
func (r *Relation) overlayBound() int {
	if b := r.n / 64; b > ChunkRows {
		return b
	}
	return ChunkRows
}

// mergeOverlay merges the shared base and the overlay into one owned
// table sized for n rows. When the base already has that size it is
// copied and only the overlay's rows [baseN, n) are placed: its slots
// still name the rows [0, baseN) of this relation (only compact moves
// rows, and it rebuilds), and a slot naming a row deleted since is one
// probe skips. The copy keeps load at or under a half, as a rebuild
// would, since the table holds at most n entries.
func (r *Relation) mergeOverlay() {
	if len(r.base) != tableSize(r.n) {
		r.rebuildOwned()
		return
	}
	r.base = placeRows(r, slices.Clone(r.base), r.baseN, r.n)
	r.baseOwned = true
	r.baseN = r.n
	r.over, r.overShared = nil, false
}

// rebuildOwned replaces the index by one owned table sized for n rows,
// built by reading every row.
func (r *Relation) rebuildOwned() {
	r.base = rebuildTable(r, tableSize(r.n), 0, r.n)
	r.baseOwned = true
	r.baseN = r.n
	r.over, r.overShared = nil, false
}

// ensureIndex builds the set index of an index-free operator output —
// rows are distinct by construction, so placement needs no compares —
// and is a no-op on every relation that already maintains one. Safe for
// concurrent callers: the first builds, the rest wait for it.
func (r *Relation) ensureIndex() {
	r.indexOnce.Do(func() {
		if r.baseOwned && len(r.base) == 0 && r.n > 0 {
			r.base = rebuildTable(r, tableSize(r.n), 0, r.n)
		}
	})
}

// probe is the set index's one probe loop. It looks vals, whose key word
// is w, up in table and returns the slot of the live row equal to it and
// that row's position — or, when there is none, the empty slot vals
// would claim and -1, so an insert needs no second probe. A matching
// dead row is not an answer and does not end the search: the tuple may
// have been inserted again since, further along the probe sequence. An
// empty (unallocated) table holds nothing and has no slot to claim.
func (r *Relation) probe(table []int32, vals []Value, w uint64) (slot uint64, pos int) {
	if len(table) == 0 {
		return 0, -1
	}
	mask := uint64(len(table) - 1)
	for j := keySlot(w, uint(bits.LeadingZeros64(mask))); ; j = (j + 1) & mask {
		s := table[j]
		if s == 0 {
			return j, -1
		}
		if i := int(s - 1); valuesEqual(r.row(i), vals) && !r.isDead(i) {
			return j, i
		}
	}
}

// insert adds the row vals (copied into the arena) unless an equal row
// is present and reports whether it was added. The index must exist
// (ensureIndex).
func (r *Relation) insert(vals []Value) bool {
	w := keyWord(vals, r.all)
	if r.baseOwned {
		if 4*(r.n+1) > 3*len(r.base) {
			r.growBase()
		}
		j, i := r.probe(r.base, vals, w)
		if i >= 0 {
			return false
		}
		r.base[j] = int32(r.n + 1)
		r.appendRow(vals)
		return true
	}
	// Shared base: duplicate-check it read-only, then claim an overlay
	// slot. The shared table is never written — ancestors and siblings
	// keep probing it concurrently.
	if _, i := r.probe(r.base, vals, w); i >= 0 {
		return false
	}
	if 4*(r.n-r.baseN+1) > 3*len(r.over) {
		r.growOverlay()
	} else if r.overShared {
		r.over, r.overShared = slices.Clone(r.over), false
	}
	j, i := r.probe(r.over, vals, w)
	if i >= 0 {
		return false
	}
	r.over[j] = int32(r.n + 1)
	r.appendRow(vals)
	if r.n-r.baseN > r.overlayBound() {
		r.mergeOverlay()
	}
	return true
}

// find returns the position of the live row equal to vals, or -1.
func (r *Relation) find(vals []Value) int {
	r.ensureIndex()
	w := keyWord(vals, r.all)
	if _, i := r.probe(r.base, vals, w); i >= 0 {
		return i
	}
	_, i := r.probe(r.over, vals, w)
	return i
}

// Insert adds a tuple given in column order. Duplicates are ignored.
// It panics if the arity is wrong or the relation is frozen
// (programmer errors).
func (r *Relation) Insert(t Tuple) {
	if r.frozen.Load() {
		panic("relation: insert into frozen relation (clone the snapshot first)")
	}
	if len(t) != r.width {
		panic(fmt.Sprintf("relation: arity %d ≠ %d", len(t), r.width))
	}
	r.ensureIndex()
	r.insert(t)
}

// InsertBlock inserts a row-major block of tuples given in column
// order (len(data) must be a multiple of the width, which must be
// positive) and reports how many were actually inserted — duplicates,
// inside the block or against the relation, are ignored. It is the
// bulk mirror of Insert: the WAL-replay and batch-apply paths feed
// whole mutation batches through it without materializing per-row
// Tuple headers.
func (r *Relation) InsertBlock(data []Value) int {
	if r.frozen.Load() {
		panic("relation: insert into frozen relation (clone the snapshot first)")
	}
	if r.width == 0 || len(data)%r.width != 0 {
		panic(fmt.Sprintf("relation: block of %d values over width %d", len(data), r.width))
	}
	r.ensureIndex()
	added := 0
	for o := 0; o < len(data); o += r.width {
		if r.insert(data[o : o+r.width]) {
			added++
		}
	}
	return added
}

// InsertMap adds a tuple given as attribute→value; all attributes of
// the relation must be present.
func (r *Relation) InsertMap(m map[schema.Attr]Value) {
	t := make(Tuple, r.width)
	for i, c := range r.cols {
		v, ok := m[c]
		if !ok {
			panic(fmt.Sprintf("relation: missing attribute %q", r.U.Name(c)))
		}
		t[i] = v
	}
	r.Insert(t)
}

// Has reports whether the tuple (in column order) is present.
func (r *Relation) Has(t Tuple) bool {
	if len(t) != r.width {
		return false
	}
	return r.find(t) >= 0
}

// DeleteBlock removes a row-major block of tuples given in column order
// (len(data) must be a multiple of the width, which must be positive)
// and reports how many rows were actually removed — tuples not present,
// or repeated inside the block, are ignored. It is the bulk, in-place
// mirror of InsertBlock: the batch-apply path runs it on a Clone of the
// published relation, WAL replay on its private database. Each victim
// costs one probe of r's own index; nothing else is read.
func (r *Relation) DeleteBlock(data []Value) int {
	if r.frozen.Load() {
		panic("relation: delete from frozen relation (clone the snapshot first)")
	}
	if r.width == 0 || len(data)%r.width != 0 {
		panic(fmt.Sprintf("relation: block of %d values over width %d", len(data), r.width))
	}
	pos := make([]int32, 0, len(data)/r.width)
	for o := 0; o < len(data); o += r.width {
		if i := r.find(data[o : o+r.width]); i >= 0 {
			pos = append(pos, int32(i))
		}
	}
	return r.kill(pos)
}

// Without returns a copy of r with the given tuples removed (tuples in
// column order; tuples not present — or of the wrong arity — are
// ignored) and reports how many rows were actually removed. r is
// unchanged, so Without is the copy-on-write delete mirroring Clone +
// Insert on the write path, and costs what they cost: the copy shares
// every chunk, the base index table and the overlay with r, and owns
// only its chunk table and the bitmaps of the chunks it deleted from.
func (r *Relation) Without(ts []Tuple) (*Relation, int) {
	out := r.Clone()
	pos := make([]int32, 0, len(ts))
	for _, t := range ts {
		if len(t) != r.width {
			continue
		}
		if i := out.find(t); i >= 0 {
			pos = append(pos, int32(i))
		}
	}
	return out, out.kill(pos)
}

// kill marks the live rows at the given positions dead (positions may
// repeat) and returns how many there were. Past the compaction bound it
// repacks r.
func (r *Relation) kill(pos []int32) int {
	slices.Sort(pos)
	pos = slices.Compact(pos)
	r.markDead(pos)
	if r.dead > r.Card()/compactDiv {
		r.compact()
	}
	return len(pos)
}

// markDead sets the dead bit of each position (ascending, distinct, all
// live). The bitmap of each chunk it touches is copied first, once, so a
// bitmap shared with other snapshots is never written.
func (r *Relation) markDead(pos []int32) {
	last := -1
	var d *deadBits
	for _, p := range pos {
		if c := int(p) >> chunkShift; c != last {
			last, d = c, new(deadBits)
			if old := r.chunks[c].dead; old != nil {
				*d = *old
			}
			r.chunks[c].dead = d
		}
		o := int(p) & chunkMask
		d[o>>6] |= 1 << (o & 63)
	}
	r.dead += len(pos)
}

// compact repacks r, in place: the leading full chunks stay as they
// are — shared, ids included, so a checkpoint does not rewrite them —
// for as long as the dead rows they hold between them stay under a
// quarter of the compaction bound (none, for the chunks no delete ever
// reached); the live rows of every later chunk are copied into fresh
// chunks, and the index is rebuilt as one owned table. The next
// compaction is therefore at least three quarters of a bound of deletes
// away. It is the only routine of the write path whose cost grows with
// the relation.
func (r *Relation) compact() {
	keep, kept := 0, 0
	for budget := r.Card() / (4 * compactDiv); keep < len(r.chunks) && r.chunks[keep].id != 0; keep++ {
		d := r.chunks[keep].dead.count()
		if d > budget {
			break
		}
		budget, kept = budget-d, kept+d
	}
	out := New(r.U, r.attrs)
	out.reserved = r.Card() + kept
	out.adoptPrefix(r, keep<<chunkShift)
	for i := r.nextLive(out.n); i < r.n; i = r.nextLive(i + 1) {
		out.appendRow(r.row(i))
	}
	r.chunks, r.n, r.dead, r.reserved = out.chunks, out.n, kept, 0
	r.rebuildOwned()
	r.compactions++
}

// Clone returns an independent copy sharing structure with r wherever
// that is safe. The copy is never frozen, so cloning is the
// copy-on-write escape hatch for modifying a snapshot relation.
//
// Full chunks and dead-row bitmaps are immutable from birth and always
// shared. The tail chunk and the index are shared when they can never
// change under the copy's feet — the tail and the overlay when r is
// frozen (each is copied by the first insert that would write to it),
// the base table when r is frozen or the table was itself inherited
// frozen — and deep-copied otherwise. Cloning a frozen snapshot
// relation therefore costs O(chunk-table), independent of cardinality:
// the engine's per-batch copy-on-write write path. Cloning an index-free
// operator output builds its index first (once), so the copy can share
// it.
func (r *Relation) Clone() *Relation {
	r.ensureIndex()
	out := New(r.U, r.attrs)
	out.chunks = append([]chunk(nil), r.chunks...)
	out.n, out.dead, out.compactions = r.n, r.dead, r.compactions
	frozen := r.frozen.Load()
	if r.n&chunkMask != 0 {
		t := &out.chunks[len(out.chunks)-1]
		if frozen {
			// The frozen parent can never append, but two sibling clones
			// of it could both append into the tail's spare backing
			// capacity and clobber each other — clip the capacity so the
			// first append reallocates privately.
			t.data = t.data[:len(t.data):len(t.data)]
		} else {
			t.data = append([]Value(nil), t.data...)
		}
	}
	if frozen || !r.baseOwned {
		out.base = r.base
		out.baseOwned = false
		out.baseN = r.baseN
		if r.baseOwned {
			out.baseN = r.n
		}
		if frozen {
			out.over, out.overShared = r.over, len(r.over) > 0
		} else {
			out.over = slices.Clone(r.over)
		}
	} else {
		out.base = append([]int32(nil), r.base...)
		out.baseN = r.n
	}
	return out
}

// Freeze marks the relation immutable: subsequent Inserts panic.
// Freezing is idempotent and safe to call concurrently with reads.
func (r *Relation) Freeze() { r.frozen.Store(true) }

// Frozen reports whether the relation has been frozen.
func (r *Relation) Frozen() bool { return r.frozen.Load() }

// Equal reports whether r and s have the same attribute set and the
// same tuple set.
func (r *Relation) Equal(s *Relation) bool {
	if !r.attrs.Equal(s.attrs) || r.Card() != s.Card() {
		return false
	}
	for i := r.nextLive(0); i < r.n; i = r.nextLive(i + 1) {
		if s.find(r.row(i)) < 0 {
			return false
		}
	}
	return true
}

func (r *Relation) colPos(a schema.Attr) int {
	i := sort.Search(len(r.cols), func(i int) bool { return r.cols[i] >= a })
	if i == len(r.cols) || r.cols[i] != a {
		panic(fmt.Sprintf("relation: attribute %d not present", a))
	}
	return i
}

// Project returns π_x(r). x must be a subset of r's attributes.
func (r *Relation) Project(x schema.AttrSet) *Relation {
	return (&Exec{}).Project(r, x)
}

// Join returns the natural join r ⋈ s (hash join on the shared
// attributes; a cross product when none are shared).
func (r *Relation) Join(s *Relation) *Relation {
	return (&Exec{}).Join(r, s)
}

// Semijoin returns r ⋉ s = π_{attrs(r)}(r ⋈ s): the tuples of r that
// join with at least one tuple of s.
func (r *Relation) Semijoin(s *Relation) *Relation {
	return (&Exec{}).Semijoin(r, s)
}

// JoinAll folds the natural join over rels in a greedy
// smallest-cardinality-first order (see Exec.JoinAll). It panics on an
// empty input (the identity of ⋈ is the zero-attribute relation with
// one tuple; callers that need it can construct it explicitly).
func JoinAll(rels []*Relation) *Relation {
	return (&Exec{}).JoinAll(rels)
}

// String renders the relation sorted, for debugging and golden tests.
func (r *Relation) String() string {
	var b strings.Builder
	names := make([]string, len(r.cols))
	for i, c := range r.cols {
		names[i] = r.U.Name(c)
	}
	fmt.Fprintf(&b, "%s[%d]{", strings.Join(names, ","), r.Card())
	rows := make([]string, 0, r.Card())
	for i := r.nextLive(0); i < r.n; i = r.nextLive(i + 1) {
		t := r.row(i)
		parts := make([]string, len(t))
		for j, v := range t {
			parts[j] = fmt.Sprint(v)
		}
		rows = append(rows, "("+strings.Join(parts, ",")+")")
	}
	sort.Strings(rows)
	b.WriteString(strings.Join(rows, " "))
	b.WriteString("}")
	return b.String()
}

// RandomUniversal generates a random universal relation over attrs with
// up to n distinct tuples drawn uniformly from [0, domain) per column.
// Duplicate draws are retried for at most 50n+100 attempts in total, so
// when fewer than n distinct tuples exist (domain^|attrs| < n) — or the
// retry budget runs out on a nearly saturated domain — the relation
// holds fewer than n tuples. The achieved count is returned alongside
// the relation; callers that need exactly n must check it.
func RandomUniversal(u *schema.Universe, attrs schema.AttrSet, n, domain int, rng *rand.Rand) (*Relation, int) {
	r := New(u, attrs)
	t := make(Tuple, r.width)
	for tries := 0; r.n < n && tries < 50*n+100; tries++ {
		for i := range t {
			t[i] = Value(rng.Intn(domain))
		}
		r.Insert(t)
	}
	return r, r.n
}

// Database is a database state for D: one relation state per relation
// schema of D, in the same order (§2).
//
// Databases support snapshot semantics for concurrent serving: Freeze
// marks every relation immutable, Clone takes an O(|D|) shallow
// snapshot sharing the frozen relation states, and the copy-on-write
// mutators (WithRelation, InsertTuple) derive new snapshots without
// touching the original — so any number of readers can evaluate
// against one snapshot while a writer prepares and atomically swaps in
// the next.
type Database struct {
	D    *schema.Schema
	Rels []*Relation
}

// Clone returns a shallow snapshot: a new Database sharing the same
// schema and relation states. O(|D|). Use the copy-on-write mutators to
// derive modified snapshots.
func (db *Database) Clone() *Database {
	return &Database{D: db.D, Rels: append([]*Relation(nil), db.Rels...)}
}

// Freeze marks every relation state immutable. Idempotent.
func (db *Database) Freeze() {
	for _, r := range db.Rels {
		r.Freeze()
	}
}

// WithRelation returns a snapshot of db with relation i replaced by r
// (copy-on-write: db is unchanged). r must have the same attribute set
// as the relation it replaces.
func (db *Database) WithRelation(i int, r *Relation) *Database {
	if !r.Attrs().Equal(db.Rels[i].Attrs()) {
		panic(fmt.Sprintf("relation: WithRelation schema %s ≠ %s",
			r.U.FormatSet(r.attrs), r.U.FormatSet(db.Rels[i].attrs)))
	}
	out := db.Clone()
	out.Rels[i] = r
	return out
}

// InsertTuple returns a snapshot of db in which t has been inserted
// into relation i. Only relation i is copied (structurally sharing its
// chunks when frozen); db and all its relation states are unchanged,
// so it is safe to call on a frozen snapshot while readers evaluate
// against it.
func (db *Database) InsertTuple(i int, t Tuple) *Database {
	r := db.Rels[i].Clone()
	r.Insert(t)
	return db.WithRelation(i, r)
}

// URDatabase builds the UR database D = {π_R(I) | R ∈ D} from the
// universal relation I. I only generates it: the database keeps the
// projections, not I.
func URDatabase(d *schema.Schema, i *Relation) *Database {
	db := &Database{D: d}
	ex := &Exec{}
	for _, r := range d.Rels {
		db.Rels = append(db.Rels, ex.Project(i, r))
	}
	return db
}

// Eval computes Q(D) = π_X(⋈ᵢ Rᵢ) naively over the database state.
func (db *Database) Eval(x schema.AttrSet) *Relation {
	ex := &Exec{}
	return ex.Project(ex.JoinAll(db.Rels), x)
}

// SatisfiesJD reports whether the universal relation i satisfies the
// join dependency ⋈D: π_{U(D)}(I) = ⋈_{R∈D} π_R(I) (§5.1; an embedded
// join dependency when U(D) ⊊ attrs(I)).
func SatisfiesJD(i *Relation, d *schema.Schema) bool {
	ex := &Exec{}
	lhs := ex.Project(i, d.Attrs().Intersect(i.Attrs()))
	var rels []*Relation
	for _, r := range d.Rels {
		rels = append(rels, ex.Project(i, r.Intersect(i.Attrs())))
	}
	if len(rels) == 0 {
		return true
	}
	return ex.JoinAll(rels).Equal(lhs)
}
