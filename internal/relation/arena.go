package relation

// Codec hooks over the chunked arena layout. The durable-storage layer
// (internal/storage) serializes a relation as its attribute list plus
// the raw row-major arena, chunk by chunk — a row is nothing but its
// values — and the set index is never written at all (a relation need
// not even have built one; loading rebuilds it). These hooks expose
// exactly that boundary without leaking mutable internals anywhere else.

import (
	"fmt"
	"math/bits"

	"gyokit/internal/schema"
)

// ValueBytes is the on-disk size of one Value.
const ValueBytes = 4

// RawData returns the live rows flattened into one fresh row-major
// slice: tuple i occupies RawData()[i*width : (i+1)*width] with columns
// in Cols() order. The slice is a copy and the caller's to keep; the
// chunked arena itself is never exposed mutable.
func (r *Relation) RawData() []Value {
	out := make([]Value, 0, r.Card()*r.width)
	r.ForEachChunk(func(block []Value) bool {
		out = append(out, block...)
		return true
	})
	return out
}

// ForEachChunk calls fn with the live rows of each arena chunk as one
// row-major block, in row order, until fn returns false. Concatenated in
// order the blocks equal RawData(), so a serializer can stream a
// relation by value chunk-by-chunk without ever materializing a flat
// copy. A block is a view into the arena unless its chunk holds dead
// rows (then it is a packed copy); callers must not modify or retain
// it.
func (r *Relation) ForEachChunk(fn func(block []Value) bool) {
	for c := range r.chunks {
		if !fn(r.liveBlock(c)) {
			return
		}
	}
}

// liveBlock returns the live rows of chunk c, row-major: the chunk's
// own data when it holds no dead row, a packed copy otherwise.
func (r *Relation) liveBlock(c int) []Value {
	ch := &r.chunks[c]
	if ch.dead == nil {
		return ch.data
	}
	out := make([]Value, 0, len(ch.data))
	for k := range r.chunkRows(c) {
		if !ch.dead.has(k) {
			out = append(out, ch.data[k*r.width:(k+1)*r.width]...)
		}
	}
	return out
}

// ArenaBytes returns the bytes of the live tuples in the arena (the
// dominant share of a relation's memory; the set index's 4 B slots are
// proportional, and dead rows hold at most 1/compactDiv as much again).
func (r *Relation) ArenaBytes() int { return r.Card() * r.width * ValueBytes }

// DeadRows returns the number of deleted rows still occupying arena
// positions — what the next compaction reclaims.
func (r *Relation) DeadRows() int { return r.dead }

// Compactions returns how many times deletes have repacked this
// relation or the snapshots it was cloned from.
func (r *Relation) Compactions() uint64 { return r.compactions }

// FullChunks returns the number of full (immutable, id-bearing) chunks.
// Row positions [0, FullChunks()*ChunkRows) lie in full chunks; any
// remainder lies in the mutable tail.
func (r *Relation) FullChunks() int { return r.n >> chunkShift }

// Tail returns the live rows of the mutable tail chunk as a row-major
// block, or nil when the relation ends exactly on a chunk boundary (or
// is empty). Like a ForEachChunk block, it must not be modified or
// retained across mutations.
func (r *Relation) Tail() []Value {
	if r.n&chunkMask == 0 {
		return nil
	}
	return r.liveBlock(len(r.chunks) - 1)
}

// ChunkDead returns the offsets within full chunk i, ascending, of its
// dead rows (nil when it has none) — what a checkpoint records beside
// the chunk's id, since the chunk's payload never changes.
func (r *Relation) ChunkDead(i int) []int32 {
	d := r.chunks[i].dead
	if d == nil {
		return nil
	}
	out := make([]int32, 0, d.count())
	for w, word := range d {
		for ; word != 0; word &= word - 1 {
			out = append(out, int32(w<<6+bits.TrailingZeros64(word)))
		}
	}
	return out
}

// ForEachFullChunk calls fn with each full chunk's durable id and
// row-major data block — every row position, dead ones included: the
// immutable payload the id names — in row order, until fn returns false.
// Unlike ForEachChunk it skips the mutable tail, so the blocks always
// hold exactly ChunkRows rows and the ids are nonzero and stable for the
// relation's lifetime. Blocks are views into the arena; callers must
// not modify or retain them.
func (r *Relation) ForEachFullChunk(fn func(id uint64, block []Value) bool) {
	for i, full := 0, r.FullChunks(); i < full; i++ {
		if !fn(r.chunks[i].id, r.chunks[i].data) {
			return
		}
	}
}

// SetChunkID overwrites the durable id of full chunk i with a persisted
// id, raising the process-wide counter past it so future chunks cannot
// collide. Recovery uses it to restore the identities a checkpoint
// manifest recorded, preserving chunk-store deduplication across
// restarts; chunk i must be full and id nonzero (programmer errors
// panic).
func (r *Relation) SetChunkID(i int, id uint64) {
	if id == 0 {
		panic("relation: SetChunkID with zero id")
	}
	if i < 0 || i >= r.FullChunks() {
		panic(fmt.Sprintf("relation: SetChunkID(%d) on relation with %d full chunks", i, r.FullChunks()))
	}
	r.chunks[i].id = id
	ChunkIDFloor(id)
}

// ChunkIDFloor raises the process-wide chunk-id counter to at least
// floor. Storage recovery calls it (directly or via SetChunkID) with
// every persisted id it has seen, so ids assigned after a restart never
// collide with ids already on disk.
func ChunkIDFloor(floor uint64) {
	for {
		cur := chunkIDs.Load()
		if cur >= floor || chunkIDs.CompareAndSwap(cur, floor) {
			return
		}
	}
}

// grow presizes an empty relation for inserting rows tuples: the owned
// index table is allocated at its final size (loading never rehashes)
// and the chunks at the capacity the rows need.
func (r *Relation) grow(rows int) {
	if r.n != 0 || !r.baseOwned || rows <= 0 {
		return
	}
	if size := tableSize(rows); size > len(r.base) {
		r.base = make([]int32, size)
	}
	r.reserved = rows
}

// FromArena builds a relation over attrs from a row-major arena of
// rows tuples, building the set-semantics index as it goes (the index
// is presized, so loading never rehashes).
// Duplicate rows are eliminated, so the result may hold fewer than
// rows tuples. data is copied into the relation's chunked arena; the
// caller keeps ownership of the input slice.
func FromArena(u *schema.Universe, attrs schema.AttrSet, rows int, data []Value) (*Relation, error) {
	r := New(u, attrs)
	if rows < 0 {
		return nil, fmt.Errorf("relation: negative row count %d", rows)
	}
	if r.width == 0 {
		// A zero-width relation holds at most the empty tuple; its
		// cardinality cannot be derived from the (empty) arena.
		if len(data) != 0 || rows > 1 {
			return nil, fmt.Errorf("relation: zero-width arena with %d values, %d rows", len(data), rows)
		}
		if rows == 1 {
			r.Insert(Tuple{})
		}
		return r, nil
	}
	if len(data) != rows*r.width {
		return nil, fmt.Errorf("relation: arena length %d ≠ %d rows × width %d", len(data), rows, r.width)
	}
	r.grow(rows)
	r.InsertBlock(data)
	return r, nil
}

// AppendStored appends block — whole rows, row-major — at the next row
// positions exactly as a checkpoint stored them: the rows at the block
// offsets listed in dead (ascending) are appended dead, every other row
// live. Recovery rebuilds a relation with it chunk by chunk, which keeps
// every row at its recorded position, so SetChunkID can restore the
// chunk ids afterwards. It fails, leaving r unfit for use, if a live row
// duplicates one already live in r or dead does not name distinct rows
// of the block in order.
func (r *Relation) AppendStored(block []Value, dead []int32) error {
	if r.frozen.Load() {
		panic("relation: append to frozen relation (clone the snapshot first)")
	}
	if r.width == 0 || len(block)%r.width != 0 {
		return fmt.Errorf("relation: block of %d values over width %d", len(block), r.width)
	}
	r.ensureIndex()
	start, next := r.n, 0
	for o, k := 0, 0; o < len(block); o, k = o+r.width, k+1 {
		row := block[o : o+r.width]
		if next < len(dead) && int(dead[next]) == k {
			r.appendRow(row)
			next++
		} else if !r.insert(row) {
			return fmt.Errorf("relation: stored row %d duplicates a live row", start+k)
		}
	}
	if next != len(dead) {
		return fmt.Errorf("relation: dead-row list of %d entries does not fit a block of %d rows", len(dead), len(block)/r.width)
	}
	pos := make([]int32, len(dead))
	for i, k := range dead {
		pos[i] = int32(start) + k
	}
	r.markDead(pos)
	return nil
}

// adoptPrefix makes the empty relation out hold rows [0, upto) of r
// (same attribute set): every full chunk of r lying wholly below upto
// is shared — struct copy, durable id included, exactly as Clone shares
// it — and only the rows of the chunk upto falls in are copied, as one
// block, into a fresh tail chunk (never full, so it gets no id). A
// shared chunk is full, so later appends to out start a fresh chunk and
// never write into r's arena.
func (out *Relation) adoptPrefix(r *Relation, upto int) {
	keep := upto >> chunkShift
	out.chunks = append(make([]chunk, 0, len(r.chunks)), r.chunks[:keep]...)
	out.n = keep << chunkShift
	if rows := upto - out.n; rows > 0 {
		src, tail := &r.chunks[keep], out.newChunk()
		tail.data = append(tail.data, src.data[:rows*r.width]...)
		out.chunks = append(out.chunks, tail)
		out.n = upto
	}
}
