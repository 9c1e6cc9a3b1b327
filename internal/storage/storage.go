// Package storage is the durability subsystem: a write-ahead log of
// logical mutation records plus checkpointed snapshots of the columnar
// database representation, giving the serving engine crash recovery
// with an acknowledged-writes-are-durable contract.
//
// A store directory holds numbered WAL segments (wal-<seq>.log), an
// append-only chunk store (chunks-<gen>.gyo), and at most one live
// checkpoint manifest (manifest-<seq>.mf) — the only snapshot encoding:
// a directory whose newest snapshot is a pre-manifest full checkpoint
// (checkpoint-<seq>.ckpt) is refused with ErrLegacyFormat. The manifest
// with sequence number S describes a database snapshot covering exactly
// the mutations recorded in segments < S: full arena chunks by reference
// into the chunk store, mutable tails by value (see manifest.go).
// Writing a checkpoint appends only chunks not yet durable and then
// renames a fresh manifest into place — O(dirty chunks + tails)
// instead of O(cardinality) — so recovery is: load the newest valid
// manifest, replay every segment ≥ S in order, tolerate a torn final
// record (the in-flight write of a crash), and resume appending at the
// recovered tail. Checkpoints are written atomically in the background
// off a frozen snapshot, then obsolete segments are truncated away —
// readers and writers never block on checkpointing.
//
// The write path is Append: one framed, CRC-checked record per
// mutation batch, fsynced before it returns (unless Options.NoSync),
// so a batch acknowledged to a client is on disk, and a batch is
// recovered either whole or not at all.
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
	// registry panics on the duplicate series. Nil disables
	// instrumentation at zero cost.
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
	WALBytes          int64     // bytes across live segments (headers included)
	Segments          int       // live segment files
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
	segSizes map[uint64]int64 // live segment → size in bytes
	walBytes int64
	closed   bool
	failed   error         // set when a write error left the WAL unappendable
	lockf    *os.File      // exclusive directory lock (nil on non-unix)
	notifyCh chan struct{} // closed+replaced on append/rotation; see AppendNotify

	id            uint64 // stable random store identity (store-id file)
	replCursor    Cursor // newest KindCursor mark seen during replay
	hasReplCursor bool
	truncTail     Cursor // end of the newest checkpointed-away segment (wal-trunc file)

	appends       uint64
	replayed      uint64
	checkpoints   uint64
	chunksWritten uint64
	chunksReused  uint64
	ckptBytes     uint64
	chunkBytes    int64 // mirror of chunkSize for Stats (mu, not ckptFileMu)
	compactions   uint64
	lastCkpt      time.Time
	lastCkptErr   string

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

	// Observability instruments (nil — hence no-op — without
	// Options.Metrics). Unlike the snapshot-style Stats counters these
	// are event-shaped: histograms observed at append/checkpoint time.
	mAppendSec    *obs.Histogram // WAL append latency (lock to fsynced)
	mAppendBytes  *obs.Histogram // framed record size per append
	mCkptSec      *obs.Histogram // checkpoint write duration
	mChunksOut    *obs.Counter   // chunk records appended by checkpoints
	mChunksReused *obs.Counter   // chunk references reused without rewriting
	mCkptOutBytes *obs.Counter   // cumulative checkpoint I/O bytes
	mCkptFail     *obs.Counter   // failed checkpoint writes
	mCompactions  *obs.Counter   // chunk-store GC rewrites
}

// registerMetrics creates the store's instruments in reg. Gauges pull
// from live fields under mu at scrape time; histograms and counters
// are pushed on the write paths.
func (s *Store) registerMetrics(reg *obs.Registry) {
	if reg == nil {
		return
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
		"Live WAL bytes across segments (replayed at next recovery).", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.walBytes)
		})
	reg.GaugeFunc("gyo_wal_segments",
		"Live WAL segment files.", func() float64 {
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
// snapshot is a pre-manifest full checkpoint (checkpoint-<seq>.ckpt),
// which this build no longer decodes. Commit 0152974 is the last that
// reads one, and rewrites the directory as manifest + chunk store at
// its next checkpoint.
var ErrLegacyFormat = errors.New("storage: pre-manifest checkpoint format")

func segName(seq uint64) string { return fmt.Sprintf("wal-%016d.log", seq) }

func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if len(name) != len(prefix)+16+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return 0, false
	}
	var seq uint64
	for _, c := range name[len(prefix) : len(prefix)+16] {
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + uint64(c-'0')
	}
	return seq, true
}

// Open opens (creating if needed) the store directory and recovers its
// state: newest valid checkpoint, then WAL replay of every later
// segment, tolerating a torn final record. The recovered database is
// available via State until Detach; a fresh directory recovers to an
// empty database over a fresh universe.
func Open(dir string, opt Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// One process per directory: a concurrent Open must fail fast, not
	// truncate the tail segment out from under a live writer.
	lockf, err := lockDir(dir)
	if err != nil {
		return nil, err
	}
	opened := false
	defer func() {
		if !opened && lockf != nil {
			_ = lockf.Close()
		}
	}()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	// Snapshot candidates are the manifests, tried newest-first.
	var segSeqs, manSeqs []uint64
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), "wal-", ".log"); ok {
			segSeqs = append(segSeqs, seq)
		}
		if seq, ok := parseSeq(e.Name(), "manifest-", ".mf"); ok {
			manSeqs = append(manSeqs, seq)
		}
	}
	slices.Sort(segSeqs)
	slices.Sort(manSeqs)

	s := &Store{dir: dir, opt: opt, segSizes: map[uint64]int64{}}
	defer func() {
		if !opened && s.chunkf != nil {
			_ = s.chunkf.Close()
		}
	}()

	// 1. Newest valid snapshot (manifest + chunk store).
	var db *relation.Database
	startSeq := uint64(1)
	ckptLoaded := false
	for i := len(manSeqs) - 1; i >= 0; i-- {
		st, err := loadManifest(dir, manSeqs[i])
		if err != nil {
			continue // corrupt or unreadable: try an older one
		}
		db = st.db
		s.chunkf, s.chunkGen = st.f, st.gen
		s.chunkSize, s.chunkLive = st.size, st.live
		s.chunkBytes = st.size
		s.chunkTable = st.table
		startSeq, ckptLoaded = manSeqs[i], true
		break
	}
	// A legacy full checkpoint that the loaded manifest does not
	// supersede holds state this build cannot decode, and the WAL was
	// truncated behind it: skipping it and replaying what is left would
	// silently lose data. Refuse before anything in the directory is
	// touched. (One a manifest does supersede is tidied away in step 4.)
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), "checkpoint-", ".ckpt"); ok && (!ckptLoaded || seq > startSeq) {
			return nil, fmt.Errorf("%w: %s holds %s, which this build does not read; commit 0152974 is the last that does — open and checkpoint the directory once with that build to upgrade it in place",
				ErrLegacyFormat, dir, e.Name())
		}
	}
	if !ckptLoaded {
		// Without a checkpoint the WAL must reach back to genesis:
		// segment 1 (or no segments at all). A history that starts later
		// — or corrupt checkpoints with no replayable prefix — means
		// acknowledged data is unrecoverable, which must be an error,
		// never a silently empty store.
		if len(segSeqs) > 0 && segSeqs[0] != 1 {
			return nil, fmt.Errorf("%w: no valid checkpoint and WAL starts at segment %d", ErrCorrupt, segSeqs[0])
		}
		if len(segSeqs) == 0 && len(manSeqs) > 0 {
			return nil, fmt.Errorf("%w: checkpoint files present but none valid and no WAL to replay", ErrCorrupt)
		}
		db = &relation.Database{D: schema.New(schema.NewUniverse())}
	}

	// 2. Replay segments ≥ startSeq in order.
	var replaySeqs []uint64
	for _, seq := range segSeqs {
		if seq >= startSeq {
			replaySeqs = append(replaySeqs, seq)
		}
	}
	for i, seq := range replaySeqs {
		if want := startSeq + uint64(i); seq != want {
			return nil, fmt.Errorf("%w: WAL segment %d missing (found %d)", ErrCorrupt, want, seq)
		}
	}
	lastValidLen := int64(0)
	for i, seq := range replaySeqs {
		data, err := os.ReadFile(filepath.Join(dir, segName(seq)))
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
		last := i == len(replaySeqs)-1
		if !clean && !last {
			return nil, fmt.Errorf("%w: segment %d has an invalid record at offset %d but is not the newest segment", ErrCorrupt, seq, validLen)
		}
		// A bad magic header (validLen 0) on a segment that has a
		// non-empty body is provable corruption, not a torn create: the
		// header always lands before any record does. Truncating would
		// silently drop every acknowledged batch in the body.
		if !clean && validLen == 0 && len(data) > walHeaderLen {
			return nil, fmt.Errorf("%w: segment %d has a corrupt header but %d bytes of records", ErrCorrupt, seq, len(data)-walHeaderLen)
		}
		if last {
			lastValidLen = int64(validLen)
		}
	}

	// 3. Resume the tail segment for appending (discarding any torn
	// final record), or create the first segment.
	if len(replaySeqs) > 0 {
		s.segSeq = replaySeqs[len(replaySeqs)-1]
		path := filepath.Join(dir, segName(s.segSeq))
		f, err := os.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			return nil, err
		}
		if lastValidLen < walHeaderLen {
			lastValidLen = 0
		}
		if err := f.Truncate(lastValidLen); err != nil {
			_ = f.Close()
			return nil, err
		}
		if lastValidLen == 0 {
			if _, err := f.Write(walMagic); err != nil {
				_ = f.Close()
				return nil, err
			}
			lastValidLen = walHeaderLen
		}
		if _, err := f.Seek(lastValidLen, 0); err != nil {
			_ = f.Close()
			return nil, err
		}
		if !opt.NoSync {
			if err := f.Sync(); err != nil { // persist the tail truncation
				_ = f.Close()
				return nil, err
			}
		}
		s.seg = f
		s.segSizes[s.segSeq] = lastValidLen
		for _, seq := range replaySeqs[:len(replaySeqs)-1] {
			fi, err := os.Stat(filepath.Join(dir, segName(seq)))
			if err != nil {
				return nil, err
			}
			s.segSizes[seq] = fi.Size()
		}
	} else {
		s.segSeq = startSeq
		if err := s.createSegment(); err != nil {
			return nil, err
		}
	}
	s.walBytes = 0
	for _, sz := range s.segSizes {
		s.walBytes += sz
	}

	// 4. Tidy up: segments older than the checkpoint, snapshot files
	// other than the loaded manifest, and chunk-store generations it
	// does not reference are dead weight (a crash between checkpointing
	// and cleanup leaves them behind).
	for _, seq := range segSeqs {
		if seq < startSeq {
			os.Remove(filepath.Join(dir, segName(seq)))
		}
	}
	for _, seq := range manSeqs {
		if !ckptLoaded || seq != startSeq {
			os.Remove(filepath.Join(dir, manName(seq)))
		}
	}
	for _, e := range entries {
		gen, isChunks := parseSeq(e.Name(), "chunks-", ".gyo")
		// A legacy checkpoint still here is one the manifest superseded.
		_, isLegacy := parseSeq(e.Name(), "checkpoint-", ".ckpt")
		// An orphaned manifest temp file: a crash between write and rename.
		_, isTmp := parseSeq(e.Name(), "manifest-", ".mf.tmp")
		if isLegacy || isTmp || (isChunks && (s.chunkf == nil || gen != s.chunkGen)) {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}

	if s.id, err = loadOrCreateStoreID(dir, !opt.NoSync); err != nil {
		return nil, err
	}
	if c, ok := loadTruncTail(dir); ok {
		s.truncTail = c
	}
	s.db = db
	s.empty = !ckptLoaded && s.replayed == 0
	s.lockf = lockf
	s.registerMetrics(opt.Metrics)
	opened = true
	return s, nil
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
		good := s.segSizes[s.segSeq]
		if terr := s.seg.Truncate(good); terr != nil {
			s.failed = fmt.Errorf("write failed (%v) and rollback truncate failed: %w", err, terr)
		} else if _, serr := s.seg.Seek(good, 0); serr != nil {
			s.failed = fmt.Errorf("write failed (%v) and rollback seek failed: %w", err, serr)
		}
		return err
	}
	if !s.opt.NoSync {
		if err := s.seg.Sync(); err != nil {
			// After a failed fsync the page cache is untrustworthy
			// (dirty pages may have been dropped), and the unack'd
			// frame sits at the tail where it would replay — a retried
			// batch would then apply twice, which is not idempotent for
			// creates. Roll the tail back and poison the store either
			// way: refusing writes until a restart re-establishes a
			// consistent tail is strictly safer than writing on.
			good := s.segSizes[s.segSeq]
			if terr := s.seg.Truncate(good); terr == nil {
				s.seg.Seek(good, 0)
			}
			s.failed = fmt.Errorf("fsync failed: %w", err)
			return err
		}
	}
	s.segSizes[s.segSeq] += int64(len(frame))
	s.walBytes += int64(len(frame))
	s.appends++
	s.signalAppendLocked()
	s.mAppendSec.Observe(time.Since(t0).Seconds())
	s.mAppendBytes.Observe(float64(len(frame)))
	return nil
}

// openSegment creates wal-<seq>.log with its header, synced. It does
// not touch store state, so a failure leaves the store untouched.
func (s *Store) openSegment(seq uint64) (*os.File, error) {
	path := filepath.Join(s.dir, segName(seq))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(walMagic); err != nil {
		_ = f.Close()
		os.Remove(path)
		return nil, err
	}
	if !s.opt.NoSync {
		if err := f.Sync(); err != nil {
			_ = f.Close()
			os.Remove(path)
			return nil, err
		}
		if err := syncDir(s.dir); err != nil {
			_ = f.Close()
			os.Remove(path)
			return nil, err
		}
	}
	return f, nil
}

// createSegment creates wal-<segSeq>.log and makes it the current
// segment. Caller holds mu (or is Open, single-threaded).
func (s *Store) createSegment() error {
	f, err := s.openSegment(s.segSeq)
	if err != nil {
		return err
	}
	s.seg = f
	s.segSizes[s.segSeq] = walHeaderLen
	s.walBytes += walHeaderLen
	return nil
}

func (s *Store) rotateLocked() error {
	// Bring up the replacement before tearing down the current tail: a
	// transient failure (disk briefly full) must leave the store fully
	// appendable on the old segment, not stuck behind a nil file.
	f, err := s.openSegment(s.segSeq + 1)
	if err != nil {
		return err
	}
	if s.seg != nil {
		if !s.opt.NoSync {
			if err := s.seg.Sync(); err != nil {
				_ = f.Close()
				os.Remove(filepath.Join(s.dir, segName(s.segSeq+1)))
				return err
			}
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
	return s.walBytes > int64(len(s.segSizes))*walHeaderLen
}

// ShouldCheckpoint reports whether the live WAL has grown past the
// configured threshold, suggesting a checkpoint.
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
// then renaming a fresh manifest into place (temp file + rename +
// directory sync) — and finally truncates the obsolete segments and
// older snapshot files. db must be the snapshot passed alongside
// BeginCheckpoint's sequence, descended from this store's recovered
// state (chunk ids key the deduplication table, and only that lineage
// guarantees id ⇒ identical bytes); it is only read. Failures are
// additionally recorded in Stats.
func (s *Store) WriteCheckpoint(seq uint64, db *relation.Database) (err error) {
	t0 := time.Now()
	var written, reused uint64
	var bytesOut int64
	compacted := false
	defer func() {
		s.mu.Lock()
		if err != nil {
			s.lastCkptErr = err.Error()
		} else {
			s.lastCkptErr = ""
			s.checkpoints++
			s.chunksWritten += written
			s.chunksReused += reused
			s.ckptBytes += uint64(bytesOut)
			s.chunkBytes = s.chunkSize
			if compacted {
				s.compactions++
			}
			s.lastCkpt = time.Now()
		}
		s.mu.Unlock()
		if err != nil {
			s.mCkptFail.Inc()
			return
		}
		s.mCkptSec.Observe(time.Since(t0).Seconds())
		s.mChunksOut.Add(written)
		s.mChunksReused.Add(reused)
		s.mCkptOutBytes.Add(uint64(bytesOut))
		if compacted {
			s.mCompactions.Inc()
		}
	}()

	s.ckptFileMu.Lock()
	defer s.ckptFileMu.Unlock()

	// Plan: walk the snapshot's full chunks once, deduplicating by id,
	// splitting them into already-durable references and chunks that
	// must be appended. Blocks are views into the (frozen, immutable)
	// arena — nothing is copied here.
	type planned struct {
		id    uint64
		block []relation.Value
	}
	rels := db.Rels
	if db.Univ != nil {
		rels = append(append([]*relation.Relation(nil), db.Rels...), db.Univ)
	}
	seen := make(map[uint64]bool)
	var all, missing []planned
	var reusedBytes int64
	for _, r := range rels {
		r.ForEachFullChunk(func(id uint64, block []relation.Value) bool {
			if seen[id] {
				return true
			}
			seen[id] = true
			all = append(all, planned{id, block})
			if ref, ok := s.chunkTable[id]; ok {
				reusedBytes += chunkRecHeaderLen + ref.ln
			} else {
				missing = append(missing, planned{id, block})
			}
			return true
		})
	}
	recBytes := func(ps []planned) int64 {
		var n int64
		for _, p := range ps {
			n += chunkRecHeaderLen + int64(len(p.block))*relation.ValueBytes
		}
		return n
	}
	newBytes := recBytes(missing)
	liveAfter := int64(chunkStoreHeaderLen) + reusedBytes + newBytes

	// A fresh generation starts from scratch (first checkpoint ever, or
	// a write error poisoned the current file) or compacts: when the
	// store has outgrown the floor and would be more than half garbage,
	// rewriting just the live chunks is cheaper than carrying the dead
	// ones forever.
	fresh := s.chunkf == nil
	if cb := s.opt.compactBytes(); !fresh && cb >= 0 {
		if projected := s.chunkSize + newBytes; projected > cb && projected > 2*liveAfter {
			fresh, compacted = true, true
		}
	}
	writeList := missing
	if fresh {
		writeList, reusedBytes = all, 0
		newBytes = recBytes(all)
		liveAfter = int64(chunkStoreHeaderLen) + newBytes
	}
	written, reused = uint64(len(writeList)), uint64(len(all)-len(writeList))

	// Append the planned chunk records (to a brand-new generation when
	// fresh). The chunk file is synced before the manifest referencing
	// it is written: a manifest must never point at unsynced data.
	// (Under NoSync all checkpoint fsyncs are skipped — the store has
	// already waived power-loss durability, and the page cache keeps
	// process-crash recovery intact.)
	gen, f, base := s.chunkGen, s.chunkf, s.chunkSize
	if fresh {
		gen = s.chunkGen + 1
		path := filepath.Join(s.dir, chunkStoreName(gen))
		f, err = os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return err
		}
		if _, err = f.Write(chunkMagic); err != nil {
			_ = f.Close()
			os.Remove(path)
			return err
		}
		base = chunkStoreHeaderLen
	}
	// abortChunks undoes a failed append. On a fresh generation the old
	// state is untouched — drop the new file. On the live generation,
	// roll the file back to its pre-checkpoint size; if that (or the
	// fsync above it) fails the file's tail state is unknown, so poison
	// it — the next checkpoint starts a fresh generation rather than
	// appending behind garbage.
	abortChunks := func(rollback bool) {
		if fresh {
			_ = f.Close()
			os.Remove(filepath.Join(s.dir, chunkStoreName(gen)))
			return
		}
		if rollback {
			if terr := f.Truncate(base); terr == nil {
				return
			}
		}
		_ = s.chunkf.Close()
		s.chunkf, s.chunkTable = nil, nil
		s.chunkSize, s.chunkLive = 0, 0
	}
	newRefs := make(map[uint64]chunkRef, len(writeList))
	off := base
	var rec []byte
	for _, p := range writeList {
		rec = appendChunkRecord(rec[:0], p.id, p.block)
		if _, err = f.WriteAt(rec, off); err != nil {
			abortChunks(true)
			return err
		}
		newRefs[p.id] = chunkRef{off: off, ln: int64(len(rec) - chunkRecHeaderLen)}
		off += int64(len(rec))
	}
	if !s.opt.NoSync {
		if err = f.Sync(); err != nil {
			abortChunks(false)
			return err
		}
	}

	// Encode and atomically publish the manifest.
	refs := func(id uint64) (chunkRef, bool) {
		if ref, ok := newRefs[id]; ok {
			return ref, true
		}
		if fresh {
			return chunkRef{}, false
		}
		ref, ok := s.chunkTable[id]
		return ref, ok
	}
	payload, err := appendManifest(nil, db, gen, refs)
	if err != nil {
		abortChunks(true)
		return err
	}
	final := filepath.Join(s.dir, manName(seq))
	tmp := final + ".tmp"
	if err = writeManifestFile(tmp, seq, payload, !s.opt.NoSync); err != nil {
		os.Remove(tmp)
		abortChunks(true)
		return err
	}
	if err = os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		abortChunks(true)
		return err
	}
	if !s.opt.NoSync {
		if err = syncDir(s.dir); err != nil {
			return err
		}
	}
	bytesOut = newBytes + int64(len(payload)) + 20
	if fresh {
		bytesOut += chunkStoreHeaderLen
	}

	// Commit the chunk-store state. The table tracks exactly the chunks
	// the live manifest references — ids are never reassigned, so a
	// chunk dropped from the snapshot can never be referenced again and
	// pruning it here matches what a reload from this manifest rebuilds.
	if fresh {
		if s.chunkf != nil {
			_ = s.chunkf.Close()
		}
		s.chunkf, s.chunkGen, s.chunkTable = f, gen, newRefs
	} else {
		for id := range s.chunkTable {
			if !seen[id] {
				delete(s.chunkTable, id)
			}
		}
		for id, ref := range newRefs {
			s.chunkTable[id] = ref
		}
	}
	s.chunkSize, s.chunkLive = off, liveAfter

	// The new manifest supersedes all older segments, snapshot files,
	// and chunk-store generations.
	s.mu.Lock()
	var drop []uint64
	var tail Cursor
	for sseq := range s.segSizes {
		if sseq < seq {
			drop = append(drop, sseq)
			if sseq > tail.Seg {
				tail = Cursor{Seg: sseq, Off: s.segSizes[sseq]}
			}
		}
	}
	for _, sseq := range drop {
		os.Remove(filepath.Join(s.dir, segName(sseq)))
		s.walBytes -= s.segSizes[sseq]
		delete(s.segSizes, sseq)
	}
	if tail.Seg != 0 {
		s.truncTail = tail
	}
	s.mu.Unlock()
	if tail.Seg != 0 {
		// Persist the truncated tail so a caught-up follower survives a
		// leader restart right after this checkpoint (the graceful
		// shutdown path). Best-effort: failure costs a replica re-seed,
		// not data.
		_ = saveTruncTail(s.dir, tail, !s.opt.NoSync)
	}
	if ents, derr := os.ReadDir(s.dir); derr == nil {
		for _, e := range ents {
			if mseq, ok := parseSeq(e.Name(), "manifest-", ".mf"); ok && mseq < seq {
				os.Remove(filepath.Join(s.dir, e.Name()))
			}
			if cgen, ok := parseSeq(e.Name(), "chunks-", ".gyo"); ok && cgen < gen {
				os.Remove(filepath.Join(s.dir, e.Name()))
			}
		}
	}
	return nil
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
		Appends:           s.appends,
		Replayed:          s.replayed,
		Checkpoints:       s.checkpoints,
		ChunksWritten:     s.chunksWritten,
		ChunksReused:      s.chunksReused,
		CheckpointBytes:   s.ckptBytes,
		ChunkStoreBytes:   s.chunkBytes,
		Compactions:       s.compactions,
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
	if !s.opt.NoSync {
		if err := s.seg.Sync(); err != nil {
			_ = s.seg.Close()
			return err
		}
	}
	err := s.seg.Close()
	s.seg = nil
	return err
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
