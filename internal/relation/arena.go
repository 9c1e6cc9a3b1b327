package relation

// Codec hooks over the chunked arena layout. The durable-storage layer
// (internal/storage) serializes a relation as its attribute list plus
// the raw row-major arena, chunk by chunk; the row hashes are rebuilt
// on load rather than written to disk, and the hash index is never
// written at all (a relation need not even have built one). These hooks
// expose exactly that boundary without leaking mutable internals
// anywhere else.

import (
	"fmt"

	"gyokit/internal/schema"
)

// ValueBytes is the on-disk size of one Value.
const ValueBytes = 4

// RawData returns the arena flattened into one fresh row-major slice:
// row i occupies RawData()[i*width : (i+1)*width] with columns in
// Cols() order. The slice is a copy and the caller's to keep; the
// chunked arena itself is never exposed mutable.
func (r *Relation) RawData() []Value {
	out := make([]Value, 0, r.n*r.width)
	for i := range r.chunks {
		out = append(out, r.chunks[i].data...)
	}
	return out
}

// ForEachChunk calls fn with each arena chunk's row-major data block,
// in row order, until fn returns false. Concatenated in order the
// blocks equal RawData(), so a serializer can stream the arena
// chunk-by-chunk without ever materializing a flat copy — and a
// chunk-granular writer can skip blocks it already holds. Blocks are
// views into the arena; callers must not modify or retain them.
func (r *Relation) ForEachChunk(fn func(block []Value) bool) {
	for i := range r.chunks {
		if !fn(r.chunks[i].data) {
			return
		}
	}
}

// ArenaBytes returns the size of the tuple arena in bytes (the
// dominant share of a relation's memory; index and hash overhead are
// proportional).
func (r *Relation) ArenaBytes() int { return r.n * r.width * ValueBytes }

// FullChunks returns the number of full (immutable, id-bearing) chunks.
// Rows [0, FullChunks()*ChunkRows) live in full chunks; any remainder
// lives in the mutable tail.
func (r *Relation) FullChunks() int { return r.n >> chunkShift }

// Tail returns the row-major data block of the mutable tail chunk, or
// nil when the relation ends exactly on a chunk boundary (or is empty).
// The block is a view into the arena; callers must not modify or retain
// it across mutations.
func (r *Relation) Tail() []Value {
	if r.n&chunkMask == 0 {
		return nil
	}
	return r.chunks[len(r.chunks)-1].data
}

// ForEachFullChunk calls fn with each full chunk's durable id and
// row-major data block, in row order, until fn returns false. Unlike
// ForEachChunk it skips the mutable tail, so the blocks always hold
// exactly ChunkRows rows and the ids are nonzero and stable for the
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
// rows tuples, rebuilding the row hashes and the set-semantics index
// in one pass (the index is presized, so loading never rehashes).
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

// adoptPrefix makes the empty relation out hold rows [0, upto) of r
// (same attribute set): every full chunk of r lying wholly below upto
// is shared — struct copy, durable id included, exactly as Clone shares
// it — and only the rows of the chunk upto falls in are copied. A
// shared chunk is full, so later appends to out start a fresh chunk and
// never write into r's arena.
func (out *Relation) adoptPrefix(r *Relation, upto int) {
	keep := upto >> chunkShift
	out.chunks = append(out.chunks, r.chunks[:keep]...)
	out.n = keep << chunkShift
	for i := out.n; i < upto; i++ {
		out.appendRow(r.row(i), r.hash(i))
	}
}

// Without returns a copy of r with the given tuples removed (tuples in
// column order; tuples not present — or of the wrong arity — are
// ignored) and reports how many rows were actually removed. r is
// unchanged, so Without is the copy-on-write delete mirroring Clone +
// Insert on the write path. Every full chunk before the first removed
// row is shared with r, not rewritten — deleting recent rows touches
// only the arena tail — while the rows from the first removal onward
// are repacked into fresh chunks (the arena keeps all chunks but the
// tail exactly full, so holes cannot be left in place).
func (r *Relation) Without(ts []Tuple) (*Relation, int) {
	del := New(r.U, r.attrs)
	for _, t := range ts {
		if len(t) == r.width {
			del.Insert(t)
		}
	}
	first := -1
	if del.n > 0 {
		for i := 0; i < r.n; i++ {
			if del.contains(r.row(i), r.hash(i)) {
				first = i
				break
			}
		}
	}
	if first < 0 {
		return r.Clone(), 0
	}
	out := New(r.U, r.attrs)
	out.adoptPrefix(r, first&^chunkMask)
	// Rebuild the index over the survivors. Rows of r are distinct, so
	// placement by stored hash needs no duplicate checks.
	size := tableSize(r.n)
	out.base = make([]int32, size)
	mask := uint64(size - 1)
	place := func(i int, h uint64) {
		j := h & mask
		for out.base[j] != 0 {
			j = (j + 1) & mask
		}
		out.base[j] = int32(i + 1)
	}
	for i := 0; i < out.n; i++ {
		place(i, r.hash(i))
	}
	removed := 0
	for i := out.n; i < r.n; i++ {
		row, h := r.row(i), r.hash(i)
		if del.contains(row, h) {
			removed++
			continue
		}
		place(out.n, h)
		out.appendRow(row, h)
	}
	return out, removed
}
