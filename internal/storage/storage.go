// Package storage is the durability subsystem: a write-ahead log of
// logical mutation records plus checkpointed snapshots of the columnar
// database representation, giving the serving engine crash recovery
// with an acknowledged-writes-are-durable contract.
//
// A store directory holds numbered WAL segments (wal-<seq>.log), an
// append-only chunk store (chunks-<gen>.gyo), at most one live
// checkpoint manifest (manifest-<seq>.mf) — the only snapshot encoding:
// a directory whose newest snapshot is a pre-manifest full checkpoint
// (checkpoint-<seq>.ckpt) or a GYOMAN01 manifest is refused with
// ErrLegacyFormat — and three
// small files: LOCK, store-id (the store's identity) and wal-trunc
// (where the last checkpoint cut the WAL). A replica adds its sidecar,
// repl-state.json. A segment, manifest or chunk generation the live
// manifest supersedes, and a manifest temp file a crash left behind,
// are garbage the next Open removes.
//
// The manifest with sequence number S describes a database snapshot
// covering exactly the mutations recorded in segments < S: full arena
// chunks by reference into the chunk store, mutable tails by value (see
// manifest.go). A checkpoint appends only chunks not yet in the store
// and publishes a fresh manifest — O(dirty chunks + tails) instead of
// O(cardinality) — in the background off a frozen snapshot, so readers
// and writers never block on it. Recovery is: load the newest valid
// manifest, replay every segment ≥ S in order, tolerate a torn final
// record (the in-flight write of a crash), and resume appending at the
// recovered tail. The write path is Append: one framed, CRC-checked
// record per mutation batch, so a batch is recovered whole or not at all.
//
// The durability protocol, implemented once in disk.go: (1) Append
// returns after its record is written and the segment fsynced, so an
// acknowledged batch is on disk; a failed write or fsync rolls the
// segment back to its last good offset, or poisons the store. (2) A new
// segment is created, fsynced and its directory entry fsynced before
// the old one is fsynced and retired. (3) A checkpoint fsyncs the chunk
// store before writing the manifest that references it, publishes the
// manifest atomically, and only then removes the segments, manifests
// and chunk generations it supersedes. (4) Every small file (manifest,
// store-id, wal-trunc, the replica sidecar) is replaced atomically:
// temp file written and fsynced, renamed over the old name, directory
// fsynced. Options.NoSync waives the fsyncs — all of them, and nothing
// else: every write, rename, truncate and remove still happens in the
// same order, so the store survives a process crash (the page cache
// holds it) but not power loss.
package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"gyokit/internal/obs"
	"gyokit/internal/relation"
	"gyokit/internal/schema"
)

// Default tuning knobs.
const (
	DefaultSegmentBytes = 4 << 20 // WAL segment rotation threshold
	// DefaultCheckpointBytes is the live-WAL size that suggests a
	// checkpoint. Incremental checkpoints cost O(dirty), not O(card),
	// so the default fires 4× more eagerly than the old full-snapshot
	// threshold of 16 MiB — recovery replays less WAL for near-free.
	DefaultCheckpointBytes = 4 << 20
	DefaultCompactBytes    = 4 << 20 // chunk-store size floor before GC compaction
)

// Options configures a Store.
type Options struct {
	// SegmentBytes rotates the WAL to a fresh segment once the current
	// one exceeds this size. Zero means DefaultSegmentBytes.
	SegmentBytes int64
	// CheckpointBytes is the live-WAL size past which ShouldCheckpoint
	// reports true. Zero means DefaultCheckpointBytes; negative
	// disables the suggestion (checkpoints still work when requested).
	CheckpointBytes int64
	// CompactBytes is the chunk-store size past which a checkpoint may
	// garbage-collect by rewriting only the live chunks into a fresh
	// generation (it also requires the file to be more than half
	// garbage). Zero means DefaultCompactBytes; negative disables
	// compaction.
	CompactBytes int64
	// NoSync skips fsync on append and rotation. Crash durability is
	// lost (a power failure may drop acknowledged writes); useful for
	// tests and benchmarks where the page cache is good enough.
	NoSync bool
	// Metrics, when non-nil, receives the store's observability
	// instruments (WAL append latency/bytes histograms, checkpoint
	// duration, chunk and compaction counters, live-size gauges) under
	// the gyo_wal_* / gyo_checkpoint_* / gyo_chunk_store_* families.
	// One store per registry: registering two stores on the same
	// registry panics on the duplicate series. Nil keeps them in a
	// registry private to the store (Stats still reads them).
	Metrics *obs.Registry
}

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes <= 0 {
		return DefaultSegmentBytes
	}
	return o.SegmentBytes
}

func (o Options) checkpointBytes() int64 {
	if o.CheckpointBytes == 0 {
		return DefaultCheckpointBytes
	}
	return o.CheckpointBytes
}

func (o Options) compactBytes() int64 {
	if o.CompactBytes == 0 {
		return DefaultCompactBytes
	}
	return o.CompactBytes
}

// Stats is a point-in-time snapshot of durability counters.
type Stats struct {
	WALBytes          int64     // bytes across the segments a checkpoint has not covered (headers included)
	Segments          int       // segment files, those kept only for a replication feed included
	Appends           uint64    // batches appended since open
	Replayed          uint64    // batches replayed during recovery
	Checkpoints       uint64    // checkpoints written since open
	ChunksWritten     uint64    // chunk records appended to the chunk store since open
	ChunksReused      uint64    // chunk references satisfied without rewriting since open
	CheckpointBytes   uint64    // cumulative bytes written by checkpoints since open
	ChunkStoreBytes   int64     // current chunk-store file size (0 before the first incremental checkpoint)
	Compactions       uint64    // chunk-store GC rewrites since open
	LastCheckpoint    time.Time // zero if never (this process)
	LastCheckpointErr string    // last background checkpoint failure, if any
}

// Store is an open storage directory. It is safe for concurrent use;
// Append calls are serialized internally (the engine's writer lock
// already serializes logical mutations, the store's own lock makes it
// safe regardless).
type Store struct {
	dir string
	opt Options

	mu       sync.Mutex
	seg      *os.File // current segment, positioned at its end
	segSeq   uint64
	segSizes map[uint64]int64 // segment on disk → size in bytes
	walBytes int64            // bytes of the segments from ckptSeq on: what recovery replays
	ckptSeq  uint64           // the newest checkpoint's sequence: the segments below it are covered
	feedSeg  uint64           // the oldest segment ReadWAL has served since that checkpoint; 0 if none
	closed   bool
	failed   error         // set when a write error left the WAL unappendable
	lockf    *os.File      // exclusive directory lock (nil on non-unix)
	notifyCh chan struct{} // closed+replaced on append/rotation; see AppendNotify

	id            uint64 // stable random store identity (store-id file)
	replCursor    Cursor // newest KindCursor mark seen during replay
	hasReplCursor bool
	truncTail     Cursor // end of the newest checkpointed-away segment (wal-trunc file)

	replayed    uint64
	chunkBytes  int64 // mirror of chunkSize for Stats (mu, not ckptFileMu)
	lastCkpt    time.Time
	lastCkptErr string

	// Incremental-checkpoint state, owned by ckptFileMu (not mu):
	// WriteCheckpoint bodies are serialized on it, and it is always
	// acquired before mu when both are needed.
	ckptFileMu sync.Mutex
	chunkf     *os.File // live chunk-store generation; nil until first incremental checkpoint (or after a write error poisoned it)
	chunkGen   uint64
	chunkSize  int64 // current chunk-store size = append offset
	chunkLive  int64 // bytes referenced by the newest manifest
	chunkTable map[uint64]chunkRef

	db    *relation.Database // recovered state; nil after Detach
	empty bool               // no checkpoint and no WAL records found

	// Observability instruments, in Options.Metrics or a private
	// registry. They are the only count of their events: Stats reads
	// them back.
	mAppendSec    *obs.Histogram // WAL append latency (lock to fsynced)
	mAppendBytes  *obs.Histogram // framed record size per append
	mCkptSec      *obs.Histogram // checkpoint write duration
	mChunksOut    *obs.Counter   // chunk records appended by checkpoints
	mChunksReused *obs.Counter   // chunk references reused without rewriting
	mCkptOutBytes *obs.Counter   // cumulative checkpoint I/O bytes
	mCkptFail     *obs.Counter   // failed checkpoint writes
	mCompactions  *obs.Counter   // chunk-store GC rewrites
}

// registerMetrics creates the store's instruments in reg (a private
// registry when nil). Gauges pull from live fields under mu at scrape
// time; histograms and counters are pushed on the write paths.
func (s *Store) registerMetrics(reg *obs.Registry) {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.mAppendSec = reg.Histogram("gyo_wal_append_seconds",
		"WAL append latency per mutation batch, including fsync.", obs.LatencyBuckets())
	s.mAppendBytes = reg.Histogram("gyo_wal_append_bytes",
		"Framed WAL record size per appended batch.", obs.SizeBuckets(64, 4, 12))
	s.mCkptSec = reg.Histogram("gyo_checkpoint_seconds",
		"Checkpoint write duration (chunk appends + manifest rename).", obs.LatencyBuckets())
	s.mChunksOut = reg.Counter("gyo_checkpoint_chunks_total",
		"Chunk records written to or reused from the chunk store by checkpoints.", "result", "written")
	s.mChunksReused = reg.Counter("gyo_checkpoint_chunks_total",
		"Chunk records written to or reused from the chunk store by checkpoints.", "result", "reused")
	s.mCkptOutBytes = reg.Counter("gyo_checkpoint_bytes_total",
		"Cumulative bytes written by checkpoints (chunks + manifests).")
	s.mCkptFail = reg.Counter("gyo_checkpoint_failures_total",
		"Checkpoint writes that failed (see /stats lastCheckpointError).")
	s.mCompactions = reg.Counter("gyo_compactions_total",
		"Chunk-store GC rewrites into a fresh generation.")
	reg.GaugeFunc("gyo_wal_bytes",
		"WAL bytes a checkpoint has not covered (replayed at next recovery).", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.walBytes)
		})
	reg.GaugeFunc("gyo_wal_segments",
		"WAL segment files, those kept only for a replication feed included.", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.segSizes))
		})
	reg.GaugeFunc("gyo_chunk_store_bytes",
		"Current chunk-store file size.", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.chunkBytes)
		})
}

// ErrLegacyFormat is wrapped by Open when the directory's newest
// snapshot is in an encoding this build no longer decodes: a
// pre-manifest full checkpoint (checkpoint-<seq>.ckpt; commit 0152974
// is the last that reads one) or a GYOMAN01 manifest (commit f0b2cad is
// the last). Each of those builds rewrites the directory in the next
// format at its next checkpoint.
var ErrLegacyFormat = errors.New("storage: legacy snapshot format")

// path returns the path of the store file of class c numbered seq.
func (s *Store) path(c fileClass, seq uint64) string {
	return filepath.Join(s.dir, c.name(seq))
}

// Open opens (creating if needed) the store directory and recovers its
// state: newest valid checkpoint, then WAL replay of every later
// segment, tolerating a torn final record. The recovered database is
// available via State until Detach; a fresh directory recovers to an
// empty database over a fresh universe.
func Open(dir string, opt Options) (_ *Store, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// One process per directory: a concurrent Open must fail fast, not
	// truncate the tail segment out from under a live writer.
	lockf, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opt: opt, segSizes: map[uint64]int64{}}
	defer func() {
		if err == nil {
			return
		}
		if s.chunkf != nil {
			_ = s.chunkf.Close()
		}
		if lockf != nil {
			_ = lockf.Close()
		}
	}()
	ls, err := listDir(dir)
	if err != nil {
		return nil, err
	}

	// 1. Newest valid snapshot (manifest + chunk store).
	db, startSeq, ckptLoaded, err := s.loadSnapshot(ls[classManifest])
	if err != nil {
		return nil, err
	}
	// A legacy full checkpoint that the loaded manifest does not
	// supersede holds state this build cannot decode, and the WAL was
	// truncated behind it: skipping it and replaying what is left would
	// silently lose data. Refuse before anything in the directory is
	// touched. (One a manifest does supersede is tidied away in step 4.)
	for _, seq := range ls[classLegacy] {
		if !ckptLoaded || seq > startSeq {
			return nil, fmt.Errorf("%w: %s holds %s, which this build does not read; commit 0152974 is the last that does — open and checkpoint the directory once with that build to upgrade it in place",
				ErrLegacyFormat, dir, classLegacy.name(seq))
		}
	}
	segSeqs := ls[classSegment]
	if !ckptLoaded {
		// Without a checkpoint the WAL must reach back to genesis:
		// segment 1 (or no segments at all). A history that starts later
		// — or corrupt checkpoints with no replayable prefix — means
		// acknowledged data is unrecoverable, which must be an error,
		// never a silently empty store.
		if len(segSeqs) > 0 && segSeqs[0] != 1 {
			return nil, fmt.Errorf("%w: no valid checkpoint and WAL starts at segment %d", ErrCorrupt, segSeqs[0])
		}
		if len(segSeqs) == 0 && len(ls[classManifest]) > 0 {
			return nil, fmt.Errorf("%w: checkpoint files present but none valid and no WAL to replay", ErrCorrupt)
		}
		db = &relation.Database{D: schema.New(schema.NewUniverse())}
	}

	// 2. Replay segments ≥ startSeq in order.
	firstLive, _ := slices.BinarySearch(segSeqs, startSeq)
	replaySeqs := segSeqs[firstLive:]
	if db, err = s.replay(db, startSeq, replaySeqs); err != nil {
		return nil, err
	}

	// 3. Resume the tail segment for appending (discarding any torn
	// final record), or create the first segment.
	if len(replaySeqs) > 0 {
		err = s.resumeTail(replaySeqs[len(replaySeqs)-1])
	} else {
		s.segSeq = startSeq - 1 // rotating from no segment creates wal-<startSeq>
		err = s.rotateLocked()
	}
	if err != nil {
		return nil, err
	}
	s.walBytes, s.ckptSeq = 0, startSeq
	for _, sz := range s.segSizes {
		s.walBytes += sz
	}

	// 4. Tidy up: segments older than the checkpoint, snapshot files
	// other than the loaded manifest, and chunk-store generations it
	// does not reference are dead weight (a crash between checkpointing
	// and cleanup leaves them behind).
	for _, seq := range segSeqs[:firstLive] {
		removeFile(s.path(classSegment, seq))
	}
	for _, seq := range ls[classManifest] {
		if !ckptLoaded || seq != startSeq {
			removeFile(s.path(classManifest, seq))
		}
	}
	// A legacy checkpoint still here is one the manifest superseded.
	for _, seq := range ls[classLegacy] {
		removeFile(s.path(classLegacy, seq))
	}
	for _, gen := range ls[classChunks] {
		if s.chunkf == nil || gen != s.chunkGen {
			removeFile(s.path(classChunks, gen))
		}
	}
	for _, seq := range ls[classManifestTmp] {
		removeFile(s.path(classManifestTmp, seq))
	}

	if s.id, err = loadOrCreateStoreID(dir, opt); err != nil {
		return nil, err
	}
	if c, ok := loadTruncTail(dir); ok {
		s.truncTail = c
	}
	s.db = db
	s.empty = !ckptLoaded && s.replayed == 0
	s.lockf = lockf
	s.registerMetrics(opt.Metrics)
	return s, nil
}

// loadSnapshot loads the newest manifest that verifies, together with
// its chunk store, trying manSeqs newest-first (a corrupt or unreadable
// one falls back to an older one). It reports the manifest's sequence —
// the first segment to replay; 1 when none loaded. A GYOMAN01 manifest
// met before one loads is an ErrLegacyFormat error: it holds state this
// build cannot decode, so neither an older manifest nor the WAL may
// stand in for it.
func (s *Store) loadSnapshot(manSeqs []uint64) (db *relation.Database, startSeq uint64, ok bool, err error) {
	for i := len(manSeqs) - 1; i >= 0; i-- {
		st, err := loadManifest(s.dir, manSeqs[i])
		if errors.Is(err, ErrLegacyFormat) {
			return nil, 1, false, err
		}
		if err != nil {
			continue
		}
		s.chunkf, s.chunkGen = st.f, st.gen
		s.chunkSize, s.chunkLive = st.size, st.live
		s.chunkBytes = st.size
		s.chunkTable = st.table
		return st.db, manSeqs[i], true, nil
	}
	return nil, 1, false, nil
}

// replay applies segments seqs — which must run consecutively from
// startSeq — to db in order, recording each one's valid length in
// segSizes. Only the final segment may end in a torn record.
func (s *Store) replay(db *relation.Database, startSeq uint64, seqs []uint64) (*relation.Database, error) {
	for i, seq := range seqs {
		if want := startSeq + uint64(i); seq != want {
			return nil, fmt.Errorf("%w: WAL segment %d missing (found %d)", ErrCorrupt, want, seq)
		}
	}
	for i, seq := range seqs {
		data, err := os.ReadFile(s.path(classSegment, seq))
		if err != nil {
			return nil, err
		}
		validLen, clean, err := replaySegment(data, func(muts []Mutation) error {
			for _, m := range muts {
				if m.Kind == KindCursor {
					s.replCursor, s.hasReplCursor = m.Cursor, true
				}
				var aerr error
				if db, _, aerr = m.apply(db, true); aerr != nil {
					return aerr
				}
			}
			s.replayed++
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("%w: segment %d: %v", ErrCorrupt, seq, err)
		}
		if !clean && i < len(seqs)-1 {
			return nil, fmt.Errorf("%w: segment %d has an invalid record at offset %d but is not the newest segment", ErrCorrupt, seq, validLen)
		}
		// A bad magic header (validLen 0) on a segment that has a
		// non-empty body is provable corruption, not a torn create: the
		// header always lands before any record does. Truncating would
		// silently drop every acknowledged batch in the body.
		if !clean && validLen == 0 && len(data) > walHeaderLen {
			return nil, fmt.Errorf("%w: segment %d has a corrupt header but %d bytes of records", ErrCorrupt, seq, len(data)-walHeaderLen)
		}
		s.segSizes[seq] = int64(validLen)
	}
	return db, nil
}

// resumeTail reopens the replayed segment seq for appending at the end
// of its last whole record, rewriting the header when even that was
// torn.
func (s *Store) resumeTail(seq uint64) error {
	f, err := os.OpenFile(s.path(classSegment, seq), os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	validLen := s.segSizes[seq]
	if validLen < walHeaderLen {
		validLen = 0
	}
	err = rollbackTail(f, validLen)
	if err == nil && validLen == 0 {
		_, err = f.Write(walMagic)
		validLen = walHeaderLen
	}
	if err == nil {
		err = s.opt.syncFile(f) // persist the tail truncation
	}
	if err != nil {
		_ = f.Close()
		return err
	}
	s.seg, s.segSeq = f, seq
	s.segSizes[seq] = validLen
	return nil
}

// State returns the recovered database (empty schema and universe for
// a fresh store). The caller takes ownership — typically by installing
// it as the engine's first snapshot.
func (s *Store) State() *relation.Database { return s.db }

// Empty reports whether the directory held no durable state at Open
// (no checkpoint, no WAL records): the caller may want to seed an
// initial database through the mutation path.
func (s *Store) Empty() bool { return s.empty }

// Detach drops the store's reference to the recovered database so a
// long-lived process does not pin the boot-time snapshot.
func (s *Store) Detach() { s.db = nil }

// Append durably logs one mutation batch: a single framed record,
// fsynced before return (unless NoSync). The caller is responsible for
// having validated/applied the batch against the current state; the
// store records it verbatim.
func (s *Store) Append(muts []Mutation) error {
	if len(muts) == 0 {
		return nil
	}
	t0 := time.Now()
	// Everything acknowledged must decode on replay: enforce the
	// codec's caps before anything reaches the file, so recovery can
	// treat an undecodable record as corruption/tearing, never as a
	// dropped acknowledged batch.
	if len(muts) > maxBatchMuts {
		return fmt.Errorf("storage: batch of %d mutations exceeds codec cap %d", len(muts), maxBatchMuts)
	}
	for i, m := range muts {
		if err := m.encodable(); err != nil {
			return fmt.Errorf("mutation %d: %w", i, err)
		}
	}
	// Encode the batch directly after a placeholder frame header, then
	// patch length and CRC in place — one buffer, no second copy of a
	// potentially large bulk-load payload.
	frame := appendBatch(make([]byte, frameHedLen, frameHedLen+64), muts)
	payload := frame[frameHedLen:]
	if len(payload) > maxRecordSize {
		return fmt.Errorf("storage: record of %d bytes exceeds cap %d", len(payload), maxRecordSize)
	}
	putU32(frame[0:], uint32(len(payload)))
	putU32(frame[4:], crcOf(payload))
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("storage: append on closed store")
	}
	if s.failed != nil {
		return fmt.Errorf("storage: store failed: %w", s.failed)
	}
	if s.segSizes[s.segSeq] > walHeaderLen && s.segSizes[s.segSeq] >= s.opt.segmentBytes() {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	if _, err := s.seg.Write(frame); err != nil {
		// The segment may now hold a partial frame. Roll the file back
		// to the last good offset so future appends don't land behind
		// garbage that replay would (rightly) stop at — that would make
		// them acknowledged-but-unrecoverable. If the rollback itself
		// fails, poison the store: refusing writes is strictly better
		// than acknowledging writes recovery will drop.
		if rerr := rollbackTail(s.seg, s.segSizes[s.segSeq]); rerr != nil {
			s.failed = fmt.Errorf("write failed (%v) and rollback failed: %w", err, rerr)
		}
		return err
	}
	if err := s.opt.syncFile(s.seg); err != nil {
		// After a failed fsync the page cache is untrustworthy
		// (dirty pages may have been dropped), and the unack'd
		// frame sits at the tail where it would replay — a retried
		// batch would then apply twice, which is not idempotent for
		// creates. Roll the tail back and poison the store either
		// way: refusing writes until a restart re-establishes a
		// consistent tail is strictly safer than writing on.
		_ = rollbackTail(s.seg, s.segSizes[s.segSeq])
		s.failed = fmt.Errorf("fsync failed: %w", err)
		return err
	}
	s.segSizes[s.segSeq] += int64(len(frame))
	s.walBytes += int64(len(frame))
	s.signalAppendLocked()
	s.mAppendSec.Observe(time.Since(t0).Seconds())
	s.mAppendBytes.Observe(float64(len(frame)))
	return nil
}

// openSegment creates wal-<seq>.log with its header, synced. It does
// not touch store state, so a failure leaves the store untouched.
func (s *Store) openSegment(seq uint64) (*os.File, error) {
	path := s.path(classSegment, seq)
	f, err := createFile(path, walMagic)
	if err != nil {
		return nil, err
	}
	if err = s.opt.syncFile(f); err == nil {
		err = s.opt.syncDir(s.dir)
	}
	if err != nil {
		_ = f.Close()
		removeFile(path)
		return nil, err
	}
	return f, nil
}

// rotateLocked makes a fresh segment the tail (the first one when
// there is none yet). Caller holds mu, or is Open.
func (s *Store) rotateLocked() error {
	// Bring up the replacement before tearing down the current tail: a
	// transient failure (disk briefly full) must leave the store fully
	// appendable on the old segment, not stuck behind a nil file.
	f, err := s.openSegment(s.segSeq + 1)
	if err != nil {
		return err
	}
	if s.seg != nil {
		if err := s.opt.syncFile(s.seg); err != nil {
			_ = f.Close()
			removeFile(s.path(classSegment, s.segSeq+1))
			return err
		}
		_ = s.seg.Close()
	}
	s.segSeq++
	s.seg = f
	s.segSizes[s.segSeq] = walHeaderLen
	s.walBytes += walHeaderLen
	return nil
}

// Dirty reports whether the live WAL holds any records not yet covered
// by a checkpoint — i.e. whether a checkpoint now would actually
// shorten recovery.
func (s *Store) Dirty() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	live := int64(0)
	for seq := range s.segSizes {
		if seq >= s.ckptSeq {
			live++
		}
	}
	return s.walBytes > live*walHeaderLen
}

// ShouldCheckpoint reports whether the live WAL has grown past the
// configured threshold, suggesting a checkpoint. Segments kept past a
// checkpoint for a replication feed do not count.
func (s *Store) ShouldCheckpoint() bool {
	if s.opt.checkpointBytes() < 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walBytes > s.opt.checkpointBytes()
}

// BeginCheckpoint rotates the WAL and returns the new segment's
// sequence number. Call it while no logical mutation can interleave
// (the engine holds its writer lock), with the snapshot that reflects
// every record appended so far: that snapshot then covers exactly the
// segments below the returned sequence, and WriteCheckpoint may run in
// the background while later appends land in the new segment.
func (s *Store) BeginCheckpoint() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("storage: checkpoint on closed store")
	}
	if err := s.rotateLocked(); err != nil {
		// Surface the failure in Stats too: callers fire-and-forget
		// background checkpoints, and a silently never-checkpointing
		// store must be visible to operators.
		s.lastCkptErr = err.Error()
		return 0, err
	}
	// Wake replication long-pollers: a caught-up follower parked at the
	// end of the old segment must learn the tail moved to a new one.
	s.signalAppendLocked()
	return s.segSeq, nil
}

// WriteCheckpoint atomically writes db as the checkpoint covering all
// segments below seq — appending chunks not yet in the chunk store,
// then publishing a fresh manifest — and finally truncates the obsolete
// segments and older snapshot files. db must be the snapshot passed
// alongside BeginCheckpoint's sequence, descended from this store's
// recovered state (chunk ids key the deduplication table, and only that
// lineage guarantees id ⇒ identical bytes); it is only read. Failures
// are additionally recorded in Stats.
func (s *Store) WriteCheckpoint(seq uint64, db *relation.Database) (err error) {
	t0 := time.Now()
	var c *chunkAppend
	var bytesOut int64
	defer func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if err != nil {
			s.lastCkptErr = err.Error()
			s.mCkptFail.Inc()
			return
		}
		s.lastCkptErr = ""
		s.chunkBytes = s.chunkSize
		s.lastCkpt = time.Now()
		s.mCkptSec.Observe(time.Since(t0).Seconds())
		s.mChunksOut.Add(uint64(len(c.write)))
		s.mChunksReused.Add(uint64(len(c.all) - len(c.write)))
		s.mCkptOutBytes.Add(uint64(bytesOut))
		if c.compacted {
			s.mCompactions.Inc()
		}
	}()

	s.ckptFileMu.Lock()
	defer s.ckptFileMu.Unlock()

	// 1. Plan which chunks to append, and to which generation.
	c = s.planChunkAppend(db)

	// 2. Append them. The chunk file is synced before the manifest
	// referencing it is written: a manifest must never point at unsynced
	// data. (Under NoSync all checkpoint fsyncs are skipped — the store
	// has already waived power-loss durability, and the page cache keeps
	// process-crash recovery intact.)
	if err = s.appendChunks(c); err != nil {
		return err
	}

	// 3. Encode and atomically publish the manifest.
	refs := func(id uint64) (chunkRef, bool) {
		if ref, ok := c.refs[id]; ok || c.fresh {
			return ref, ok
		}
		ref, ok := s.chunkTable[id]
		return ref, ok
	}
	payload, err := appendManifest(nil, db, c.gen, refs)
	if err != nil {
		s.abortChunks(c, true)
		return err
	}
	if renamed, err := s.opt.writeManifestFile(s.path(classManifest, seq), seq, payload); err != nil {
		if !renamed {
			s.abortChunks(c, true)
		}
		return err
	}
	bytesOut = c.off - c.base + int64(len(payload)) + manFrameLen
	if c.fresh {
		bytesOut += chunkStoreHeaderLen
	}

	// 4. Commit the chunk-store state. The table tracks exactly the chunks
	// the live manifest references — ids are never reassigned, so a
	// chunk dropped from the snapshot can never be referenced again and
	// pruning it here matches what a reload from this manifest rebuilds.
	table := make(map[uint64]chunkRef, len(c.all))
	live := int64(chunkStoreHeaderLen)
	for _, p := range c.all {
		ref, _ := refs(p.id)
		table[p.id] = ref
		live += chunkRecHeaderLen + ref.ln
	}
	if c.fresh && s.chunkf != nil {
		_ = s.chunkf.Close()
	}
	s.chunkf, s.chunkGen, s.chunkTable = c.f, c.gen, table
	s.chunkSize, s.chunkLive = c.off, live

	// 5. The new manifest supersedes all older segments (bar those a
	// replication feed still reads), snapshot files, and chunk-store
	// generations.
	if tail := s.retireSegmentsBelow(seq); tail.Seg != 0 {
		// Persist the truncated tail so a caught-up follower survives a
		// leader restart right after this checkpoint (the graceful
		// shutdown path). Best-effort: failure costs a replica re-seed,
		// not data.
		_ = saveTruncTail(s.dir, tail, s.opt)
	}
	if ls, derr := listDir(s.dir); derr == nil {
		for _, cgen := range ls[classChunks] {
			if cgen < c.gen {
				removeFile(s.path(classChunks, cgen))
			}
		}
		for _, mseq := range ls[classManifest] {
			if mseq < seq {
				removeFile(s.path(classManifest, mseq))
			}
		}
	}
	return nil
}

// chunkAppend is one checkpoint's append to the chunk store.
type chunkAppend struct {
	all       []planned // every full chunk of the snapshot
	write     []planned // the ones to append: all when fresh, else those not yet stored
	fresh     bool      // into a brand-new generation, not the live one
	compacted bool      // fresh because the live generation was mostly garbage
	gen       uint64    // the generation written to
	f         *os.File
	base, off int64               // f's size before and after
	refs      map[uint64]chunkRef // where each record of write landed
}

// planChunkAppend splits db's full chunks into already-durable
// references and chunks that must be appended. Caller holds ckptFileMu.
func (s *Store) planChunkAppend(db *relation.Database) *chunkAppend {
	c := &chunkAppend{all: planChunks(db), gen: s.chunkGen, f: s.chunkf, base: s.chunkSize}
	var allBytes, newBytes int64
	for _, p := range c.all {
		allBytes += p.recLen()
		if _, ok := s.chunkTable[p.id]; !ok {
			c.write = append(c.write, p)
			newBytes += p.recLen()
		}
	}
	// A fresh generation starts from scratch (first checkpoint ever, or
	// a write error poisoned the current file) or compacts: when the
	// store has outgrown the floor and would be more than half garbage,
	// rewriting just the live chunks is cheaper than carrying the dead
	// ones forever.
	c.fresh = s.chunkf == nil
	if cb := s.opt.compactBytes(); !c.fresh && cb >= 0 {
		projected := s.chunkSize + newBytes
		c.compacted = projected > cb && projected > 2*(chunkStoreHeaderLen+allBytes)
		c.fresh = c.compacted
	}
	if c.fresh {
		c.write, c.gen, c.f, c.base = c.all, s.chunkGen+1, nil, chunkStoreHeaderLen
	}
	return c
}

// appendChunks writes c's chunk records — to a brand-new generation
// when c.fresh, else behind the live one — and syncs the file. On error
// the append is already aborted. Caller holds ckptFileMu.
func (s *Store) appendChunks(c *chunkAppend) (err error) {
	if c.fresh {
		if c.f, err = createFile(s.path(classChunks, c.gen), chunkMagic); err != nil {
			return err
		}
	}
	c.off, c.refs = c.base, make(map[uint64]chunkRef, len(c.write))
	var rec []byte
	for _, p := range c.write {
		rec = appendChunkRecord(rec[:0], p.id, p.block)
		if _, err := c.f.WriteAt(rec, c.off); err != nil {
			s.abortChunks(c, true)
			return err
		}
		c.refs[p.id] = chunkRef{off: c.off, ln: int64(len(rec) - chunkRecHeaderLen)}
		c.off += int64(len(rec))
	}
	if err := s.opt.syncFile(c.f); err != nil {
		s.abortChunks(c, false)
		return err
	}
	return nil
}

// abortChunks undoes a failed append. On a fresh generation the old
// state is untouched — drop the new file. On the live generation, roll
// the file back to its pre-checkpoint size; if that fails (or rollback
// is false: a failed fsync) the file's tail state is unknown, so poison
// it — the next checkpoint starts a fresh generation rather than
// appending behind garbage.
func (s *Store) abortChunks(c *chunkAppend, rollback bool) {
	if c.fresh {
		_ = c.f.Close()
		removeFile(s.path(classChunks, c.gen))
		return
	}
	if rollback && rollbackTail(c.f, c.base) == nil {
		return
	}
	_ = s.chunkf.Close()
	s.chunkf, s.chunkTable = nil, nil
	s.chunkSize, s.chunkLive = 0, 0
}

// retireSegmentsBelow takes the segments below seq, which the checkpoint
// at seq covers, out of the live WAL (walBytes), and removes those no
// replication feed needs. A segment ReadWAL has served since the previous
// checkpoint (feedSeg), and every one after it, stays on disk — no
// further back than that checkpoint — so a follower whose cursor is
// mid-segment reads on instead of finding its segment gone; the next
// checkpoint removes it unless a feed reads there again. It returns the
// end of the newest segment removed (zero if none was).
func (s *Store) retireSegmentsBelow(seq uint64) (tail Cursor) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq <= s.ckptSeq {
		return tail // a newer checkpoint already retired them
	}
	keep := seq
	if s.feedSeg != 0 {
		keep = max(min(s.feedSeg, seq), s.ckptSeq)
	}
	var drop []uint64
	for sseq, size := range s.segSizes {
		if sseq >= seq {
			continue
		}
		if sseq >= s.ckptSeq {
			s.walBytes -= size
		}
		if sseq < keep {
			drop = append(drop, sseq)
			if sseq > tail.Seg {
				tail = Cursor{Seg: sseq, Off: size}
			}
		}
	}
	slices.Sort(drop)
	for _, sseq := range drop {
		removeFile(s.path(classSegment, sseq))
		delete(s.segSizes, sseq)
	}
	if tail.Seg != 0 {
		s.truncTail = tail
	}
	s.ckptSeq, s.feedSeg = seq, 0
	return tail
}

// Checkpoint is BeginCheckpoint + WriteCheckpoint in one synchronous
// call, for shutdown and tests. See BeginCheckpoint for the snapshot
// consistency requirement.
func (s *Store) Checkpoint(db *relation.Database) error {
	seq, err := s.BeginCheckpoint()
	if err != nil {
		return err
	}
	return s.WriteCheckpoint(seq, db)
}

// Stats returns a snapshot of the durability counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		WALBytes:          s.walBytes,
		Segments:          len(s.segSizes),
		Appends:           s.mAppendSec.Count(),
		Replayed:          s.replayed,
		Checkpoints:       s.mCkptSec.Count(),
		ChunksWritten:     s.mChunksOut.Value(),
		ChunksReused:      s.mChunksReused.Value(),
		CheckpointBytes:   s.mCkptOutBytes.Value(),
		ChunkStoreBytes:   s.chunkBytes,
		Compactions:       s.mCompactions.Value(),
		LastCheckpoint:    s.lastCkpt,
		LastCheckpointErr: s.lastCkptErr,
	}
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Healthy returns nil while the store can accept appends; a closed or
// write-poisoned store returns why it cannot. Feeds /v1/healthz.
func (s *Store) Healthy() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store closed")
	}
	if s.failed != nil {
		return fmt.Errorf("store failed: %w", s.failed)
	}
	return nil
}

// Synced reports whether appends are fsynced before acknowledgment.
// With Options.NoSync the log still survives a process crash (the page
// cache holds it) but not a power failure or kernel panic.
func (s *Store) Synced() bool { return !s.opt.NoSync }

// Close flushes and closes the WAL and the chunk store. Appends after
// Close fail.
func (s *Store) Close() error {
	s.ckptFileMu.Lock()
	if s.chunkf != nil {
		_ = s.chunkf.Close()
		s.chunkf = nil
	}
	s.ckptFileMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.lockf != nil {
		defer func() { _ = s.lockf.Close(); s.lockf = nil }() // releases the dir lock
	}
	if s.seg == nil {
		return nil
	}
	if err := s.opt.syncFile(s.seg); err != nil {
		_ = s.seg.Close()
		return err
	}
	err := s.seg.Close()
	s.seg = nil
	return err
}
