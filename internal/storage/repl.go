package storage

// Replication primitives: everything a log-shipping leader/follower
// pair (internal/repl) needs from the durability layer, kept here so
// the WAL and chunk-store formats stay private to this package.
//
// The leader side is read-only over existing state: ReadWAL serves
// frame-aligned windows of acknowledged WAL bytes addressed by a
// (segment, offset) Cursor, and WriteReplSnapshot streams the current
// snapshot as a manifest + chunk records in the exact on-disk
// checkpoint format. The follower side is InstallReplSnapshot (which
// materializes that stream as a directory a normal Open recovers) plus
// KindCursor marks: no-op mutations the follower appends at the end of
// every re-logged batch, recording which leader cursor that batch
// corresponds to. Because the mark travels in the same atomic WAL
// record as the batch, recovery replays exactly the applied prefix and
// ReplayedCursor tells the tailer where to resume — re-applying a
// batch is not an option, since Create/Drop are not idempotent.

import (
	"bufio"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"gyokit/internal/relation"
)

// Cursor addresses a position in the WAL: a segment sequence number
// and a byte offset within that segment's file. Offsets produced by
// this package always sit on a frame boundary (or at the 8-byte
// segment header, for a fresh segment).
type Cursor struct {
	Seg uint64
	Off int64
}

func (c Cursor) String() string { return fmt.Sprintf("%d/%d", c.Seg, c.Off) }

// Less orders cursors by WAL position.
func (c Cursor) Less(o Cursor) bool {
	if c.Seg != o.Seg {
		return c.Seg < o.Seg
	}
	return c.Off < o.Off
}

// FrameOverhead is the per-record framing cost in WAL bytes (length +
// CRC header); a cursor advances by FrameOverhead + payload length per
// record.
const FrameOverhead = frameHedLen

// Typed ReadWAL failures, so a replication feed can tell a follower
// whether its cursor is permanently unservable.
var (
	// ErrCursorGone means the cursor's segment was truncated away by a
	// checkpoint: the history below it no longer exists on this leader.
	ErrCursorGone = fmt.Errorf("storage: cursor no longer in the WAL")
	// ErrCursorInvalid means the cursor points ahead of the durable tail
	// or into a segment this store never wrote — the follower's history
	// is not a prefix of this store's.
	ErrCursorInvalid = fmt.Errorf("storage: cursor not at a valid WAL position")
)

// WALWindow is one ReadWAL result.
type WALWindow struct {
	// Frames holds zero or more complete framed records starting at the
	// requested cursor (never a partial frame).
	Frames []byte
	// Next is the cursor after consuming Frames. With empty Frames it
	// may still advance — across a rotated segment boundary — or equal
	// the request cursor, meaning the follower is caught up.
	Next Cursor
	// Tip is the durable tail of the WAL at read time.
	Tip Cursor
	// LagBytes is the acknowledged record bytes between Next and Tip
	// (segment headers excluded): 0 means Next is fully caught up.
	LagBytes int64
}

// TailCursor returns the durable tail of the WAL: the cursor a fully
// caught-up follower holds. Everything below it is acknowledged and
// fsynced (under NoSync: written).
func (s *Store) TailCursor() Cursor {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Cursor{Seg: s.segSeq, Off: s.segSizes[s.segSeq]}
}

// lagAfterLocked returns the acknowledged record bytes between c and
// the tail. Caller holds mu; c must be within the live WAL.
func (s *Store) lagAfterLocked(c Cursor) int64 {
	lag := s.segSizes[c.Seg] - c.Off
	for seq, sz := range s.segSizes {
		if seq > c.Seg {
			lag += sz - walHeaderLen
		}
	}
	return lag
}

// ReadWAL returns up to maxBytes of framed records starting at c,
// never splitting a frame and never crossing a segment boundary (a
// response per segment keeps cursor arithmetic trivial for the
// consumer). A cursor at the end of a rotated segment advances to the
// next segment's first record position with empty Frames. Only
// acknowledged bytes are served: the window never includes a record
// whose Append has not returned. maxBytes ≤ 0 means 1 MiB; a single
// frame larger than maxBytes is returned whole.
func (s *Store) ReadWAL(c Cursor, maxBytes int) (WALWindow, error) {
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	if c.Off < walHeaderLen {
		c.Off = walHeaderLen
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return WALWindow{}, fmt.Errorf("storage: read on closed store")
	}
	size, ok := s.segSizes[c.Seg]
	if !ok {
		defer s.mu.Unlock()
		if c.Seg > s.segSeq {
			return WALWindow{}, fmt.Errorf("%w: segment %d is ahead of the tail segment %d", ErrCursorInvalid, c.Seg, s.segSeq)
		}
		if _, live := s.segSizes[c.Seg+1]; c == s.truncTail && live {
			// The cursor is the exact tail of the newest checkpointed-away
			// segment: the follower has everything the segment held, so
			// the truncation lost it nothing — hop over the boundary
			// instead of stranding a fully caught-up replica.
			next := Cursor{Seg: c.Seg + 1, Off: walHeaderLen}
			return WALWindow{Next: next, Tip: Cursor{Seg: s.segSeq, Off: s.segSizes[s.segSeq]}, LagBytes: s.lagAfterLocked(next)}, nil
		}
		return WALWindow{}, fmt.Errorf("%w: segment %d was truncated by a checkpoint", ErrCursorGone, c.Seg)
	}
	if c.Off > size {
		s.mu.Unlock()
		return WALWindow{}, fmt.Errorf("%w: offset %d past segment %d durable end %d", ErrCursorInvalid, c.Off, c.Seg, size)
	}
	if s.feedSeg == 0 || c.Seg < s.feedSeg {
		s.feedSeg = c.Seg // a feed reads here: the next checkpoint keeps it (retireSegmentsBelow)
	}
	tailSeq := s.segSeq
	if c.Off == size {
		defer s.mu.Unlock()
		next := c
		if c.Seg < tailSeq {
			next = Cursor{Seg: c.Seg + 1, Off: walHeaderLen}
		}
		return WALWindow{Next: next, Tip: Cursor{Seg: tailSeq, Off: s.segSizes[tailSeq]}, LagBytes: s.lagAfterLocked(next)}, nil
	}
	s.mu.Unlock()

	// Read outside the lock: the acknowledged prefix of a segment is
	// immutable, so a concurrent Append cannot change the bytes below
	// size. The file can only disappear wholesale (checkpoint
	// truncation), which maps to ErrCursorGone.
	avail := size - c.Off
	want := int64(maxBytes)
	if want > avail {
		want = avail
	}
	buf, err := s.readSegmentAt(c.Seg, c.Off, want)
	if err != nil {
		return WALWindow{}, err
	}
	valid, first := frameAlign(buf)
	if valid == 0 && first > 0 && int64(first) <= avail {
		// The first frame is larger than maxBytes: serve it whole, or the
		// feed would stall forever.
		if buf, err = s.readSegmentAt(c.Seg, c.Off, int64(first)); err != nil {
			return WALWindow{}, err
		}
		valid, _ = frameAlign(buf)
	}
	if valid == 0 {
		// Acknowledged bytes must frame-align; anything else is on-disk
		// corruption of a region replay would also reject.
		return WALWindow{}, corruptf("segment %d misframed at offset %d", c.Seg, c.Off)
	}
	next := Cursor{Seg: c.Seg, Off: c.Off + int64(valid)}
	s.mu.Lock()
	defer s.mu.Unlock()
	win := WALWindow{
		Frames: buf[:valid],
		Next:   next,
		Tip:    Cursor{Seg: s.segSeq, Off: s.segSizes[s.segSeq]},
	}
	if _, live := s.segSizes[next.Seg]; live {
		win.LagBytes = s.lagAfterLocked(next)
	}
	return win, nil
}

// readSegmentAt reads n bytes of segment seq starting at off.
func (s *Store) readSegmentAt(seq uint64, off, n int64) ([]byte, error) {
	f, err := os.Open(s.path(classSegment, seq))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: segment %d was truncated by a checkpoint", ErrCursorGone, seq)
		}
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, n)
	if _, err := f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("storage: segment %d read at %d: %w", seq, off, err)
	}
	return buf, nil
}

// frameAlign returns the length of the longest complete-frame prefix
// of buf, plus the total size of the first frame when it extends past
// buf (0 when even its header is incomplete).
func frameAlign(buf []byte) (valid, firstFrame int) {
	off := 0
	for {
		if len(buf)-off < frameHedLen {
			return off, 0
		}
		ln := int(readU32(buf[off:]))
		if ln < 0 || ln > maxRecordSize {
			return off, 0
		}
		total := frameHedLen + ln
		if len(buf)-off < total {
			if off == 0 {
				return 0, total
			}
			return off, 0
		}
		off += total
	}
}

// SplitFrames splits a replication-feed byte stream into its record
// payloads, stopping at the first frame that is truncated, oversized,
// or fails its CRC — the consumer applies the valid prefix and retries
// from there, so a torn response can never apply a partial record.
// The payloads alias data. consumed is the byte length of the valid
// prefix (always a sum of whole frames).
func SplitFrames(data []byte) (payloads [][]byte, consumed int) {
	for {
		payload, ok := nextFrame(data[consumed:])
		if !ok {
			return payloads, consumed
		}
		payloads = append(payloads, payload)
		consumed += frameHedLen + len(payload)
	}
}

// DecodeBatch decodes one WAL record payload (as served by ReadWAL and
// split by SplitFrames) into its mutation batch.
func DecodeBatch(payload []byte) ([]Mutation, error) { return decodeBatch(payload) }

// AppendNotify returns a channel closed after the next successful
// append or WAL rotation — the long-poll wakeup for a replication
// feed. Obtain the channel before reading, so an append landing
// between the read and the wait is never missed.
func (s *Store) AppendNotify() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.notifyCh == nil {
		s.notifyCh = make(chan struct{})
	}
	return s.notifyCh
}

// signalAppendLocked wakes AppendNotify waiters. Caller holds mu.
func (s *Store) signalAppendLocked() {
	if s.notifyCh != nil {
		close(s.notifyCh)
		s.notifyCh = nil
	}
}

// ID returns the store's stable random identity, created at first Open
// and persisted in the directory. A replication follower records its
// leader's ID and refuses a feed whose identity changed — a cursor is
// only meaningful against the exact WAL history that produced it.
func (s *Store) ID() uint64 { return s.id }

const storeIDFile = "store-id"

func loadOrCreateStoreID(dir string, o Options) (uint64, error) {
	path := filepath.Join(dir, storeIDFile)
	if b, err := os.ReadFile(path); err == nil {
		v, perr := strconv.ParseUint(strings.TrimSpace(string(b)), 16, 64)
		if perr != nil || v == 0 {
			return 0, corruptf("store-id file %q", strings.TrimSpace(string(b)))
		}
		return v, nil
	} else if !os.IsNotExist(err) {
		return 0, err
	}
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(b[:]) | 1 // zero is reserved for "unknown"
	if _, err := o.writeFileAtomic(path, fmt.Appendf(nil, "%016x\n", v)); err != nil {
		return 0, err
	}
	return v, nil
}

// truncTailFile records the exact end position of the newest WAL
// segment a checkpoint removed. A fully caught-up follower's cursor
// sits precisely there, so without this marker every checkpoint (and
// in particular the one every graceful shutdown takes) would strand
// all caught-up replicas behind ErrCursorGone. ReadWAL uses it to
// serve the rotation hop instead. Best-effort: a missing or stale file
// only costs a replica an avoidable re-seed, never correctness — the
// hop is served solely when the successor segment is still live.
const truncTailFile = "wal-trunc"

func saveTruncTail(dir string, c Cursor, o Options) error {
	_, err := o.writeFileAtomic(filepath.Join(dir, truncTailFile), fmt.Appendf(nil, "%d %d\n", c.Seg, c.Off))
	return err
}

func loadTruncTail(dir string) (Cursor, bool) {
	b, err := os.ReadFile(filepath.Join(dir, truncTailFile))
	if err != nil {
		return Cursor{}, false
	}
	var c Cursor
	if _, err := fmt.Sscanf(string(b), "%d %d", &c.Seg, &c.Off); err != nil || c.Seg == 0 || c.Off < walHeaderLen {
		return Cursor{}, false
	}
	return c, true
}

// ReplayedCursor returns the newest KindCursor mark found during
// Open's WAL replay, if any: the exact leader position covered by this
// follower's recovered state. No mark (fresh directory, or every mark
// truncated by a checkpoint) means the caller falls back to its
// sidecar state.
func (s *Store) ReplayedCursor() (Cursor, bool) {
	return s.replCursor, s.hasReplCursor
}

// DirHasStore reports whether dir holds an existing store (WAL
// segments or checkpoint state) — used by a replica bootstrap to
// refuse adopting a directory whose history it knows nothing about.
func DirHasStore(dir string) (bool, error) {
	ls, err := listDir(dir)
	if err != nil && !os.IsNotExist(err) {
		return false, err
	}
	return len(ls[classSegment])+len(ls[classManifest])+len(ls[classLegacy]) > 0, nil
}

// --- initial-sync snapshot stream ---
//
// Layout: [u32 manifestLen][u32 crc32c(manifest)][manifest payload]
// followed by the chunk records the manifest references, in reference
// order, in the exact chunks-<gen>.gyo record format. The manifest is
// encoded against generation 1 with offsets precomputed for the file
// the follower will write, so installing the stream yields a directory
// indistinguishable from one that checkpointed locally: chunk payloads
// travel whole under their ids, a chunk's deleted rows as the manifest's
// dead-row list, tails as live rows only. The manifest payload is in the
// sender's current layout (GYOMAN02), which is also what the installer
// frames it as — leader and follower run the same build.

// WriteReplSnapshot streams db as an initial-sync package: manifest
// first, then every referenced chunk record. db must be frozen (it is
// only read, but the stream may take a while to write).
func WriteReplSnapshot(w io.Writer, db *relation.Database) error {
	order := planChunks(db)
	refs := make(map[uint64]chunkRef, len(order))
	off := int64(chunkStoreHeaderLen)
	for _, p := range order {
		refs[p.id] = chunkRef{off: off, ln: p.recLen() - chunkRecHeaderLen}
		off += p.recLen()
	}
	payload, err := appendManifest(nil, db, 1, func(id uint64) (chunkRef, bool) {
		ref, ok := refs[id]
		return ref, ok
	})
	if err != nil {
		return err
	}
	if len(payload) > maxRecordSize {
		return fmt.Errorf("storage: snapshot manifest of %d bytes exceeds cap %d", len(payload), maxRecordSize)
	}
	var hdr [8]byte
	putU32(hdr[0:], uint32(len(payload)))
	putU32(hdr[4:], crcOf(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var rec []byte
	for _, p := range order {
		rec = appendChunkRecord(rec[:0], p.id, p.block)
		if _, err := w.Write(rec); err != nil {
			return err
		}
	}
	return nil
}

// InstallReplSnapshot materializes a WriteReplSnapshot stream into dir
// as Open-compatible state: chunks-…0001.gyo plus manifest-…0001.mf
// (sequence 1, so the follower's own WAL starts at segment 1). Every
// chunk record's CRC is verified in transit, and a torn or corrupt
// stream removes its partial files and errors — the directory is left
// without store state, safe to re-bootstrap. Open performs the full
// manifest/chunk verification afterwards.
func InstallReplSnapshot(dir string, r io.Reader) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// Always synced: there is no Options here, and a follower seed must
	// survive power loss.
	var opt Options
	chunkPath := filepath.Join(dir, chunkStoreName(1))
	manPath := filepath.Join(dir, manName(1))
	defer func() {
		if err != nil {
			removeFile(chunkPath)
			removeFile(manPath)
		}
	}()
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return fmt.Errorf("storage: snapshot stream header: %w", err)
	}
	mlen := int(readU32(hdr[0:]))
	if mlen < 0 || mlen > maxRecordSize {
		return corruptf("snapshot manifest length %d", mlen)
	}
	payload := make([]byte, mlen)
	if _, err := io.ReadFull(br, payload); err != nil {
		return fmt.Errorf("storage: snapshot manifest body: %w", err)
	}
	if crcOf(payload) != readU32(hdr[4:]) {
		return corruptf("snapshot manifest CRC mismatch")
	}

	f, err := createFile(chunkPath, chunkMagic)
	if err != nil {
		return err
	}
	if err = copyChunkRecords(f, br); err == nil {
		err = opt.syncFile(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	_, err = opt.writeManifestFile(manPath, 1, payload)
	return err
}

// copyChunkRecords copies a stream of chunk records from r to w up to a
// clean end on a record boundary, verifying each record's CRC in
// transit.
func copyChunkRecords(w io.Writer, r io.Reader) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var rh [chunkRecHeaderLen]byte
	var body []byte
	for {
		if _, err := io.ReadFull(r, rh[:]); err == io.EOF {
			return bw.Flush()
		} else if err != nil {
			return fmt.Errorf("storage: snapshot chunk header: %w", err)
		}
		id, ln, crc := chunkRecHeader(rh[:])
		if ln > maxRecordSize {
			return corruptf("snapshot chunk length %d", ln)
		}
		if int64(cap(body)) < ln {
			body = make([]byte, ln)
		}
		body = body[:ln]
		if _, err := io.ReadFull(r, body); err != nil {
			return fmt.Errorf("storage: snapshot chunk body: %w", err)
		}
		if err := checkChunkPayload(id, crc, body); err != nil {
			return err
		}
		if _, err := bw.Write(rh[:]); err != nil {
			return err
		}
		if _, err := bw.Write(body); err != nil {
			return err
		}
	}
}
