package storage

// Incremental checkpoint format: an append-only chunk store plus a
// small per-checkpoint manifest.
//
// The chunk store (chunks-<gen>.gyo) is an 8-byte magic header followed
// by self-describing chunk records, appended and never rewritten:
//
//	[u64 chunkID LE] [u32 payloadLen LE] [u32 crc32c(payload) LE] [payload]
//
// where payload is one full arena chunk — exactly ChunkRows rows of
// raw row-major values, so payloadLen is always ChunkRows·width·4.
// Full chunks are immutable from the moment they fill (see
// internal/relation), so a chunk id written once identifies the same
// bytes forever and later checkpoints simply reference it again.
//
// The manifest (manifest-<seq>.mf) is framed as
// magic (8) | u32 crc32c(rest) | u64 seq | payload, and its payload
// describes the database by reference instead of by value: the
// chunk-store generation, the universe name table (attribute names in
// interning order, so attribute ids — and therefore arena column order
// — survive a round trip), the relation count, per relation
//
//	uvarint width, width × uvarint attribute id
//	uvarint card                      live rows
//	uvarint rows                      row positions the entry describes
//	rows/ChunkRows × full chunk:
//	    uvarint id, offset, length    the chunk record in the store
//	    uvarint dead                  deleted rows of the chunk, then
//	    dead × uvarint                their offsets, ascending, each as
//	                                  the count of rows between it and
//	                                  the previous dead row (or the
//	                                  chunk's start)
//	rows%ChunkRows × width × u32      the live tail rows, inline
//
// with card = rows − Σ dead. A delete therefore never touches the chunk
// store: the chunk payload a delete punched holes in keeps its id and
// its bytes, and only the manifest's dead list grows. A checkpoint
// writes O(dirty chunks + tails + dead rows) bytes: chunks already in
// the store are referenced, not rewritten.
//
// The payload ends in a universal-relation flag byte, always written 0.
// Builds up to f0b2cad wrote 1 there for a UR database, followed by one
// more relation entry: the universal relation it was generated from. A
// reader decodes that entry (its chunks verify like any other) and
// drops it; the next checkpoint references only the relations, so its
// chunks leave the live set.
//
// GYOMAN01 manifests, written before deletes left rows in place, are
// refused with ErrLegacyFormat: commit f0b2cad is the last build that
// reads one, and it rewrites the directory as GYOMAN02 at its next
// checkpoint.
//
// Recovery reads the newest valid manifest, then reads every referenced
// chunk record back out of the chunk store (validating id, length, and
// CRC per record — a referenced chunk is never trusted unverified) and
// restores the persisted chunk ids so deduplication survives restarts.
// Garbage (chunks no manifest references, left by dropped relations,
// deletes, or torn checkpoints) accumulates in the store file until a
// checkpoint rewrites the live chunks into a fresh generation; the
// manifest names its generation, so an old generation is deletable the
// moment a manifest of a newer generation is durable.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"gyokit/internal/relation"
	"gyokit/internal/schema"
)

var (
	manMagic   = []byte("GYOMAN02")
	chunkMagic = []byte("GYOCHNK1")
)

const (
	chunkStoreHeaderLen = 8
	chunkRecHeaderLen   = 16 // u64 id + u32 len + u32 crc
	manFrameLen         = 20 // magic(8) | crc(4) | seq(8)
	// maxManifestRows caps a decoded relation's row count before any
	// chunk reads are attempted (the per-chunk and tail reads then bound
	// actual allocation).
	maxManifestRows = 1 << 40
)

// chunkRef locates one chunk record in the live chunk-store generation:
// the file offset of its 16-byte record header and its payload length.
type chunkRef struct {
	off int64
	ln  int64
}

// appendChunkRecord appends one chunk record (header + payload) to dst.
func appendChunkRecord(dst []byte, id uint64, block []relation.Value) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(block)*relation.ValueBytes))
	crcAt := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	payloadAt := len(dst)
	dst = appendValues(dst, block)
	putU32(dst[crcAt:], crcOf(dst[payloadAt:]))
	return dst
}

// planned is one full chunk a snapshot holds: its id and a view of its
// rows in the (frozen, immutable) arena.
type planned struct {
	id    uint64
	block []relation.Value
}

// recLen is the size of the chunk's record in a chunk store.
func (p planned) recLen() int64 {
	return chunkRecHeaderLen + int64(len(p.block))*relation.ValueBytes
}

// planChunks walks the full chunks of db's relations once, in manifest
// reference order, keeping the first occurrence of each id. Nothing is
// copied.
func planChunks(db *relation.Database) []planned {
	seen := make(map[uint64]bool)
	var all []planned
	for _, r := range db.Rels {
		r.ForEachFullChunk(func(id uint64, block []relation.Value) bool {
			if !seen[id] {
				seen[id] = true
				all = append(all, planned{id, block})
			}
			return true
		})
	}
	return all
}

// chunkRecHeader splits a chunk record's 16-byte header.
func chunkRecHeader(h []byte) (id uint64, ln int64, crc uint32) {
	return readU64(h), int64(readU32(h[8:])), readU32(h[12:])
}

// checkChunkPayload verifies a chunk record's payload against the CRC
// its header carries.
func checkChunkPayload(id uint64, crc uint32, payload []byte) error {
	if crcOf(payload) != crc {
		return corruptf("chunk %d CRC mismatch", id)
	}
	return nil
}

// chunkReader reads and verifies chunk records from an open chunk-store
// file, recycling one record-sized scratch buffer across reads.
type chunkReader struct {
	f       *os.File
	size    int64
	buf     []byte
	scratch []relation.Value
}

// read returns the verified payload of the chunk record for id at ref,
// decoded into a reused scratch slice (valid until the next read).
func (c *chunkReader) read(id uint64, ref chunkRef) ([]relation.Value, error) {
	n := chunkRecHeaderLen + ref.ln
	if ref.off < chunkStoreHeaderLen || ref.off+n > c.size {
		return nil, corruptf("chunk %d ref [%d,+%d) outside store of %d bytes", id, ref.off, n, c.size)
	}
	if int64(cap(c.buf)) < n {
		c.buf = make([]byte, n)
	}
	b := c.buf[:n]
	if _, err := c.f.ReadAt(b, ref.off); err != nil {
		return nil, fmt.Errorf("chunk %d: %w", id, err)
	}
	gotID, gotLn, crc := chunkRecHeader(b)
	if gotID != id {
		return nil, corruptf("chunk record id %d, manifest says %d", gotID, id)
	}
	if gotLn != ref.ln {
		return nil, corruptf("chunk %d record length %d, manifest says %d", id, gotLn, ref.ln)
	}
	payload := b[chunkRecHeaderLen:]
	if err := checkChunkPayload(id, crc, payload); err != nil {
		return nil, err
	}
	nv := len(payload) / relation.ValueBytes
	if cap(c.scratch) < nv {
		c.scratch = make([]relation.Value, nv)
	}
	vals := c.scratch[:nv]
	for i := range vals {
		vals[i] = relation.Value(binary.LittleEndian.Uint32(payload[i*relation.ValueBytes:]))
	}
	return vals, nil
}

// --- manifest encoding ---

// appendManifest encodes the manifest payload for db against chunk
// store generation gen. refs must locate every full chunk of db (a
// missing id is a checkpoint-writer bug, reported as an error so a
// half-planned checkpoint can never be renamed into place).
func appendManifest(dst []byte, db *relation.Database, gen uint64, refs func(id uint64) (chunkRef, bool)) ([]byte, error) {
	dst = appendUvarint(dst, gen)
	u := db.D.U
	n := u.Size()
	dst = appendUvarint(dst, uint64(n))
	for a := 0; a < n; a++ {
		name := u.Name(schema.Attr(a))
		dst = appendUvarint(dst, uint64(len(name)))
		dst = append(dst, name...)
	}
	dst = appendUvarint(dst, uint64(len(db.Rels)))
	var err error
	for _, r := range db.Rels {
		if dst, err = appendManifestRelation(dst, r, refs); err != nil {
			return nil, err
		}
	}
	return append(dst, 0), nil // no universal relation
}

func appendManifestRelation(dst []byte, r *relation.Relation, refs func(id uint64) (chunkRef, bool)) ([]byte, error) {
	cols := r.Cols()
	dst = appendUvarint(dst, uint64(len(cols)))
	for _, a := range cols {
		dst = appendUvarint(dst, uint64(a))
	}
	dst = appendUvarint(dst, uint64(r.Card()))
	tail := r.Tail()
	rows := r.Card() // all there is to a zero-width relation
	if len(cols) > 0 {
		rows = r.FullChunks()*relation.ChunkRows + len(tail)/len(cols)
	}
	dst = appendUvarint(dst, uint64(rows))
	var err error
	i := 0
	r.ForEachFullChunk(func(id uint64, block []relation.Value) bool {
		ref, ok := refs(id)
		if !ok {
			err = fmt.Errorf("storage: chunk %d has no chunk-store offset", id)
			return false
		}
		dst = appendUvarint(dst, id)
		dst = appendUvarint(dst, uint64(ref.off))
		dst = appendUvarint(dst, uint64(ref.ln))
		dead := r.ChunkDead(i)
		dst = appendUvarint(dst, uint64(len(dead)))
		next := int32(0)
		for _, o := range dead {
			dst = appendUvarint(dst, uint64(o-next))
			next = o + 1
		}
		i++
		return true
	})
	if err != nil {
		return nil, err
	}
	return appendValues(dst, tail), nil
}

// --- manifest decoding / recovery ---

// manifestState is everything loadManifest recovers: the database, the
// chunk-store generation with its open file handle and sizes, and the
// id → offset table that lets the next checkpoint deduplicate against
// chunks already on disk.
type manifestState struct {
	db    *relation.Database
	gen   uint64
	f     *os.File // open chunk store, positioned by ReadAt only
	size  int64    // chunk store file size (append resume point)
	live  int64    // bytes the manifest references (headers included)
	table map[uint64]chunkRef
}

// loadManifest loads manifest-<seq>.mf from dir together with the chunk
// store generation it names, verifying every referenced chunk record.
// On success the chunk-store file handle is returned open (the caller
// owns it); on any error nothing is kept open and the caller should
// fall back to an older candidate.
func loadManifest(dir string, seq uint64) (manifestState, error) {
	payload, err := readManifestFile(filepath.Join(dir, manName(seq)), seq)
	if err != nil {
		return manifestState{}, err
	}
	return decodeManifest(dir, payload)
}

// decodeManifest is loadManifest past the file frame: payload is a
// manifest body whose chunk store lives in dir.
func decodeManifest(dir string, payload []byte) (st manifestState, err error) {
	r := &reader{buf: payload}
	gen, err := r.uvarint("chunk-store generation")
	if err != nil {
		return manifestState{}, err
	}
	f, err := os.OpenFile(filepath.Join(dir, chunkStoreName(gen)), os.O_RDWR, 0o644)
	if err != nil {
		return manifestState{}, err
	}
	defer func() {
		if err != nil {
			_ = f.Close()
		}
	}()
	fi, err := f.Stat()
	if err != nil {
		return manifestState{}, err
	}
	cs := &chunkReader{f: f, size: fi.Size()}
	var hdr [chunkStoreHeaderLen]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil || string(hdr[:]) != string(chunkMagic) {
		return manifestState{}, corruptf("chunk store %d header", gen)
	}

	u, nNames, err := decodeUniverse(r)
	if err != nil {
		return manifestState{}, err
	}
	st = manifestState{gen: gen, f: f, size: cs.size, table: map[uint64]chunkRef{}}
	st.db = &relation.Database{D: schema.New(u)}
	nRels, err := r.count("relations", maxRelations)
	if err != nil {
		return manifestState{}, err
	}
	for i := 0; i < nRels; i++ {
		rel, err := decodeManifestRelation(r, u, nNames, cs, &st)
		if err != nil {
			return manifestState{}, fmt.Errorf("relation %d: %w", i, err)
		}
		st.db.D.Add(rel.Attrs())
		st.db.Rels = append(st.db.Rels, rel)
	}
	hasUniv, err := r.bytes(1, "universal-relation flag")
	if err != nil {
		return manifestState{}, err
	}
	switch hasUniv[0] {
	case 0:
	case 1: // written up to f0b2cad: verified, then dropped
		if _, err := decodeManifestRelation(r, u, nNames, cs, &st); err != nil {
			return manifestState{}, fmt.Errorf("universal relation: %w", err)
		}
	default:
		return manifestState{}, corruptf("universal-relation flag %d", hasUniv[0])
	}
	if r.remaining() != 0 {
		return manifestState{}, corruptf("%d trailing bytes after manifest", r.remaining())
	}
	st.live = int64(chunkStoreHeaderLen)
	for _, ref := range st.table {
		st.live += chunkRecHeaderLen + ref.ln
	}
	return st, nil
}

// decodeManifestRelation rebuilds one relation from its manifest entry,
// reading each referenced chunk out of the chunk store at its recorded
// row positions, dead rows included, and restoring its persisted id,
// then appending the inline tail rows.
func decodeManifestRelation(r *reader, u *schema.Universe, nNames int, cs *chunkReader, st *manifestState) (*relation.Relation, error) {
	ids, err := decodeAttrs(r, nNames)
	if err != nil {
		return nil, err
	}
	width := len(ids)
	card, err := r.uvarint("cardinality")
	if err != nil {
		return nil, err
	}
	rows, err := r.uvarint("row count")
	if err != nil {
		return nil, err
	}
	if rows > maxManifestRows || card > rows || (width == 0 && rows > 1) {
		return nil, corruptf("cardinality %d of %d rows (width %d)", card, rows, width)
	}
	full := int(rows) / relation.ChunkRows
	if full > r.remaining()/3 { // each ref is ≥ 3 bytes; cheap pre-allocation bound
		return nil, corruptf("%d chunk refs exceed remaining %d bytes", full, r.remaining())
	}
	wantLn := int64(relation.ChunkRows * width * relation.ValueBytes)
	type idRef struct {
		id   uint64
		ref  chunkRef
		dead []int32
	}
	refs := make([]idRef, full)
	live := rows
	for i := range refs {
		id, err := r.uvarint("chunk id")
		if err != nil {
			return nil, err
		}
		off, err := r.uvarint("chunk offset")
		if err != nil {
			return nil, err
		}
		ln, err := r.uvarint("chunk length")
		if err != nil {
			return nil, err
		}
		if id == 0 || int64(ln) != wantLn {
			return nil, corruptf("chunk ref id=%d len=%d (want len %d)", id, ln, wantLn)
		}
		refs[i] = idRef{id: id, ref: chunkRef{off: int64(off), ln: int64(ln)}}
		// A chunk has ChunkRows rows and every offset costs a byte, so
		// both bound the list before it is allocated.
		nDead, err := r.count("dead rows", min(relation.ChunkRows, r.remaining()))
		if err != nil {
			return nil, err
		}
		dead := make([]int32, nDead)
		next := 0
		for k := range dead {
			gap, err := r.count("dead row gap", relation.ChunkRows)
			if err != nil {
				return nil, err
			}
			if next+gap >= relation.ChunkRows {
				return nil, corruptf("dead row %d past the chunk's end", next+gap)
			}
			dead[k] = int32(next + gap)
			next += gap + 1
		}
		refs[i].dead = dead
		live -= uint64(nDead)
	}
	if live != card {
		return nil, corruptf("%d rows less the listed dead rows leave %d live, manifest says %d", rows, live, card)
	}
	tailRows := int(rows) - full*relation.ChunkRows
	tail, err := r.values(tailRows*width, "tail rows")
	if err != nil {
		return nil, err
	}
	if width == 0 {
		rel, err := relation.FromArena(u, schema.NewAttrSet(ids...), int(card), nil)
		if err != nil {
			return nil, corruptf("%v", err)
		}
		return rel, nil
	}
	// Set semantics allow no two equal live rows, so a duplicate here
	// means the manifest or a chunk is lying about its contents — and
	// without one every row sits exactly where the manifest said, making
	// the id restoration below well-defined.
	rel := relation.NewSized(u, schema.NewAttrSet(ids...), int(rows))
	for _, ir := range refs {
		block, err := cs.read(ir.id, ir.ref)
		if err != nil {
			return nil, err
		}
		if err := rel.AppendStored(block, ir.dead); err != nil {
			return nil, corruptf("chunk %d: %v", ir.id, err)
		}
	}
	if err := rel.AppendStored(tail, nil); err != nil {
		return nil, corruptf("tail: %v", err)
	}
	for i, ir := range refs {
		rel.SetChunkID(i, ir.id)
		st.table[ir.id] = ir.ref
	}
	return rel, nil
}

// --- framed manifest file I/O ---
//
// Layout: magic (8) | u32 crc32c(rest) | u64 seq | payload.

// writeManifestFile atomically publishes payload, a GYOMAN02 manifest
// body, framed at path (see writeFileAtomic for renamed).
func (o Options) writeManifestFile(path string, seq uint64, payload []byte) (renamed bool, err error) {
	// Header and payload stay separate and the CRC is streamed over both
	// parts, so a potentially huge payload is never copied into a second
	// buffer.
	var hdr [manFrameLen]byte
	copy(hdr[:8], manMagic)
	putU64(hdr[12:], seq)
	crc := crc32Update(0, hdr[12:])
	crc = crc32Update(crc, payload)
	putU32(hdr[8:], crc)
	return o.writeFileAtomic(path, hdr[:], payload)
}

// readManifestFile returns the payload of the framed manifest at path.
// A GYOMAN01 manifest is an ErrLegacyFormat error.
func readManifestFile(path string, wantSeq uint64) (payload []byte, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if bytes.HasPrefix(data, []byte("GYOMAN01")) {
		return nil, fmt.Errorf("%w: %s is a GYOMAN01 manifest, which this build does not read; commit f0b2cad is the last that does — open and checkpoint the directory once with that build to upgrade it in place",
			ErrLegacyFormat, path)
	}
	if len(data) < manFrameLen || !bytes.HasPrefix(data, manMagic) {
		return nil, corruptf("manifest header")
	}
	crc := readU32(data[8:])
	rest := data[8+4:]
	if crcOf(rest) != crc {
		return nil, corruptf("manifest CRC mismatch")
	}
	if seq := readU64(rest); seq != wantSeq {
		return nil, corruptf("manifest sequence %d ≠ filename %d", seq, wantSeq)
	}
	return rest[8:], nil
}
