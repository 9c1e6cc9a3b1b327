package storage

// Tests for the incremental checkpoint format: chunk dedup across
// checkpoints and restarts, compaction, crash recovery with torn
// manifests and torn chunk stores (mirroring TestWALTornTail), the
// refusal of pre-manifest full checkpoints and GYOMAN01 manifests, the
// universal relation older manifests carry, checkpoint-error hygiene,
// and the O(batch)-vs-O(card) I/O bound the format exists for.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"gyokit/internal/relation"
)

// raceEnabled is set by race_test.go under `go test -race`; the torn
// chunk-store sweep strides its (byte-granular) offsets then, since
// every iteration is a full recovery.
var raceEnabled bool

// insertN returns one insert batch of n distinct width-2 rows starting
// at value base.
func insertN(rel, base, n int) []Mutation {
	vals := make([]relation.Value, 0, 2*n)
	for i := 0; i < n; i++ {
		v := relation.Value(base + i)
		vals = append(vals, v, v+1<<24)
	}
	return []Mutation{{Kind: KindInsert, Rel: rel, Width: 2, Values: vals}}
}

// deleteN deletes the rows insertN(rel, base, n) inserted.
func deleteN(rel, base, n int) []Mutation {
	vals := make([]relation.Value, 0, 2*n)
	for i := 0; i < n; i++ {
		v := relation.Value(base + i)
		vals = append(vals, v, v+1<<24)
	}
	return []Mutation{{Kind: KindDelete, Rel: rel, Width: 2, Values: vals}}
}

// insertN1 is insertN for a width-1 relation (smallest chunk records,
// which keeps byte-granular torn-file sweeps affordable).
func insertN1(rel, base, n int) []Mutation {
	vals := make([]relation.Value, 0, n)
	for i := 0; i < n; i++ {
		vals = append(vals, relation.Value(base+i))
	}
	return []Mutation{{Kind: KindInsert, Rel: rel, Width: 1, Values: vals}}
}

// stepper returns a helper that applies a batch copy-on-write to the
// store's lineage database and appends it to the WAL — the same
// discipline as the engine, which is what makes chunk ids stable
// across checkpoints.
func stepper(t testing.TB, s *Store, db **relation.Database) func(muts ...Mutation) {
	return func(muts ...Mutation) {
		t.Helper()
		nd, _, err := ApplyAll(*db, muts)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Append(muts); err != nil {
			t.Fatal(err)
		}
		*db = nd
	}
}

// dirFiles reads every regular file in dir into memory.
func dirFiles(t testing.TB, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

// writeDir materializes files into a fresh temp directory.
func writeDir(t testing.TB, files map[string][]byte) string {
	t.Helper()
	dir := t.TempDir()
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func cloneFiles(files map[string][]byte) map[string][]byte {
	out := make(map[string][]byte, len(files))
	for k, v := range files {
		out[k] = v
	}
	return out
}

// TestIncrementalCheckpointRoundTrip is the core dedup property: a
// second checkpoint rewrites only chunks that filled since the first,
// recovery restores persisted chunk ids, and a post-restart checkpoint
// therefore writes no chunk at all when only the tail changed.
func TestIncrementalCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	db := s.State()
	step := stepper(t, s, &db)
	step(Create("a", "b"))
	step(insertN(0, 0, relation.ChunkRows+1000)...) // 1 full chunk + 1000-row tail
	if err := s.Checkpoint(db); err != nil {
		t.Fatal(err)
	}
	st1 := s.Stats()
	if st1.ChunksWritten != 1 || st1.ChunksReused != 0 {
		t.Fatalf("first checkpoint wrote %d / reused %d chunks, want 1 / 0", st1.ChunksWritten, st1.ChunksReused)
	}

	step(insertN(0, 10*relation.ChunkRows, relation.ChunkRows)...) // fills chunk 2
	if err := s.Checkpoint(db); err != nil {
		t.Fatal(err)
	}
	st2 := s.Stats()
	if st2.ChunksWritten != 2 || st2.ChunksReused != 1 {
		t.Errorf("second checkpoint totals: wrote %d / reused %d, want 2 / 1", st2.ChunksWritten, st2.ChunksReused)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Stats().Replayed; got != 0 {
		t.Errorf("replayed %d batches after checkpoint, want 0", got)
	}
	if !dbEqual(db, s2.State()) {
		t.Fatal("recovered state differs from checkpointed lineage")
	}

	// Chunk ids survived the restart: a tail-only change checkpoints
	// with zero chunk writes and full reuse.
	db2 := s2.State()
	step2 := stepper(t, s2, &db2)
	step2(insertN(0, 20*relation.ChunkRows, 10)...)
	if err := s2.Checkpoint(db2); err != nil {
		t.Fatal(err)
	}
	st3 := s2.Stats()
	if st3.ChunksWritten != 0 || st3.ChunksReused != 2 {
		t.Errorf("post-restart checkpoint wrote %d / reused %d chunks, want 0 / 2", st3.ChunksWritten, st3.ChunksReused)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if !dbEqual(db2, s3.State()) {
		t.Error("state after restart + incremental checkpoint differs")
	}
}

// TestCheckpointIndexFreeDatabase checkpoints a database published
// straight from URDatabase — its relations are projection outputs that
// have never built a set index — and reopens it: identical rows in
// identical order, identical durable chunk ids, and a recovered state
// that answers membership in both directions.
func TestCheckpointIndexFreeDatabase(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	db := testDB(t, "ab, bc", 3*relation.ChunkRows, 1000, 11)
	for i, r := range db.Rels {
		if r.FullChunks() < 2 {
			t.Fatalf("relation %d has %d full chunks; too small to exercise chunk refs", i, r.FullChunks())
		}
	}
	if err := s.Checkpoint(db); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := s2.State()
	chunkIDs := func(r *relation.Relation) []uint64 {
		var ids []uint64
		r.ForEachFullChunk(func(id uint64, _ []relation.Value) bool {
			ids = append(ids, id)
			return true
		})
		return ids
	}
	for i, r := range db.Rels {
		if !slices.Equal(r.RawData(), got.Rels[i].RawData()) {
			t.Errorf("relation %d: recovered arena differs", i)
		}
		if !slices.Equal(chunkIDs(r), chunkIDs(got.Rels[i])) {
			t.Errorf("relation %d: chunk ids %v recovered as %v", i, chunkIDs(r), chunkIDs(got.Rels[i]))
		}
	}
	if !dbEqual(db, got) || !dbEqual(got, db) {
		t.Error("recovered state differs from the checkpointed database")
	}
}

// TestChunkStoreCompaction: once deletes have orphaned most of the
// chunk store, a checkpoint rewrites just the live chunks into a fresh
// generation and deletes the old file.
func TestChunkStoreCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true, CompactBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	db := s.State()
	step := stepper(t, s, &db)
	step(Create("a", "b"))
	step(insertN(0, 0, 3*relation.ChunkRows)...)
	if err := s.Checkpoint(db); err != nil {
		t.Fatal(err)
	}
	st1 := s.Stats()
	if st1.ChunksWritten != 3 || st1.Compactions != 0 {
		t.Fatalf("seed checkpoint: wrote %d chunks, %d compactions", st1.ChunksWritten, st1.Compactions)
	}

	// Delete two chunks' worth from the front: the arena repacks into
	// one fresh-id chunk and every on-disk chunk becomes garbage.
	step(deleteN(0, 0, 2*relation.ChunkRows)...)
	if err := s.Checkpoint(db); err != nil {
		t.Fatal(err)
	}
	st2 := s.Stats()
	if st2.Compactions != 1 {
		t.Errorf("compactions = %d, want 1", st2.Compactions)
	}
	wantSize := int64(chunkStoreHeaderLen + chunkRecHeaderLen + relation.ChunkRows*2*relation.ValueBytes)
	if st2.ChunkStoreBytes != wantSize {
		t.Errorf("chunk store = %d bytes after compaction, want %d", st2.ChunkStoreBytes, wantSize)
	}
	_, _, chunks := listStoreFiles(t, dir)
	if len(chunks) != 1 || chunks[0] != chunkStoreName(2) {
		t.Errorf("chunk files after compaction = %v, want only generation 2", chunks)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !dbEqual(db, s2.State()) {
		t.Error("recovered state differs after compaction")
	}
	// The compacted generation's chunk is reusable after restart.
	db2 := s2.State()
	step2 := stepper(t, s2, &db2)
	step2(insertN(0, 100*relation.ChunkRows, 5)...)
	if err := s2.Checkpoint(db2); err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.ChunksWritten != 0 || st.ChunksReused != 1 {
		t.Errorf("post-compaction checkpoint wrote %d / reused %d, want 0 / 1", st.ChunksWritten, st.ChunksReused)
	}
}

// TestTornManifest truncates the newest manifest at every byte offset,
// composing the directory a crash mid-checkpoint-publish would leave:
// the previous manifest, the WAL tail covering the delta, and the
// (unchanged) chunk store. Recovery must always land on the exact
// acknowledged state — via the new manifest when it is whole, via
// previous-manifest + WAL replay otherwise — and never an error or an
// empty store.
func TestTornManifest(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	db := s.State()
	step := stepper(t, s, &db)
	step(Create("a", "b"))
	step(insertN(0, 0, relation.ChunkRows+8)...)
	if err := s.Checkpoint(db); err != nil { // C1: manifest-2 + chunk store
		t.Fatal(err)
	}
	chunkPath := filepath.Join(dir, chunkStoreName(1))
	preChunk, err := os.Stat(chunkPath)
	if err != nil {
		t.Fatal(err)
	}

	// The delta, one WAL batch: tail inserts, and deletes from the full
	// chunk and from the tail — so manifest-3 carries a dead-row list and
	// the sweep cuts through it.
	delta := append(insertN(0, relation.ChunkRows+8, 16), deleteN(0, 5, 10)...)
	step(append(delta, deleteN(0, relation.ChunkRows+2, 3)...)...)
	if got := db.Rels[0].DeadRows(); got != 13 {
		t.Fatalf("delta left %d dead rows, want 13 (no compaction)", got)
	}
	preFiles := dirFiles(t, dir)             // crash-state parts: manifest-2, wal-2, chunks-1
	if err := s.Checkpoint(db); err != nil { // C2: manifest-3, no new chunks
		t.Fatal(err)
	}
	postChunk, err := os.Stat(chunkPath)
	if err != nil {
		t.Fatal(err)
	}
	if postChunk.Size() != preChunk.Size() {
		t.Fatalf("a checkpoint of tail inserts and deletes grew the chunk store %d → %d bytes", preChunk.Size(), postChunk.Size())
	}
	man3Name := manName(3)
	man3, err := os.ReadFile(filepath.Join(dir, man3Name))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(man3, []byte("GYOMAN02")) {
		t.Fatalf("manifest opens with %q", man3[:8])
	}

	for m := 0; m <= len(man3); m++ {
		files := cloneFiles(preFiles)
		files[man3Name] = man3[:m]
		cut := writeDir(t, files)
		rec, err := Open(cut, Options{NoSync: true})
		if err != nil {
			t.Fatalf("manifest cut at %d: recovery failed: %v", m, err)
		}
		wantReplay := uint64(1) // fallback: previous manifest + the delta batch
		if m == len(man3) {
			wantReplay = 0 // whole manifest wins
		}
		if got := rec.Stats().Replayed; got != wantReplay {
			t.Fatalf("manifest cut at %d: replayed %d, want %d", m, got, wantReplay)
		}
		if !dbEqual(db, rec.State()) {
			t.Fatalf("manifest cut at %d: recovered state differs", m)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		if m == len(man3) {
			// The whole-manifest case must also have tidied the leftovers
			// of the interrupted cleanup: old manifest and covered WAL.
			segs, snaps, chunks := listStoreFiles(t, cut)
			if len(segs) != 1 || len(snaps) != 1 || snaps[0] != man3Name || len(chunks) != 1 {
				t.Fatalf("post-recovery files = %v %v %v", segs, snaps, chunks)
			}
		}
	}
}

// TestTornChunkStore truncates the chunk store at every byte offset of
// the region a checkpoint appended (and, coarsely, flips bytes in it),
// with and without the manifest that references it. Whenever the new
// manifest cannot be fully verified against the store, recovery must
// fall back to the previous manifest + WAL replay and reproduce the
// acknowledged state exactly.
func TestTornChunkStore(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	// Width-1 relation: the smallest possible chunk record (16 KiB
	// payload) keeps the byte-granular sweep affordable. C1's manifest
	// references no chunks at all (card < ChunkRows), so the fallback
	// path per iteration is cheap.
	db := s.State()
	step := stepper(t, s, &db)
	step(Create("a"))
	step(insertN1(0, 0, 10)...)
	if err := s.Checkpoint(db); err != nil { // C1: manifest-2, empty chunk store
		t.Fatal(err)
	}
	step(insertN1(0, 10, relation.ChunkRows)...) // fills chunk 1; one WAL batch
	preFiles := dirFiles(t, dir)
	if err := s.Checkpoint(db); err != nil { // C2: appends one chunk record + manifest-3
		t.Fatal(err)
	}
	chunkName := chunkStoreName(1)
	postChunk, err := os.ReadFile(filepath.Join(dir, chunkName))
	if err != nil {
		t.Fatal(err)
	}
	man3Name := manName(3)
	man3, err := os.ReadFile(filepath.Join(dir, man3Name))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	pre := len(preFiles[chunkName])
	post := len(postChunk)
	if pre != chunkStoreHeaderLen || post != pre+chunkRecHeaderLen+relation.ChunkRows*relation.ValueBytes {
		t.Fatalf("unexpected chunk store sizes: pre %d, post %d", pre, post)
	}

	check := func(files map[string][]byte, wantReplay uint64, desc string) {
		t.Helper()
		cut := writeDir(t, files)
		rec, err := Open(cut, Options{NoSync: true})
		if err != nil {
			t.Fatalf("%s: recovery failed: %v", desc, err)
		}
		if got := rec.Stats().Replayed; got != wantReplay {
			t.Fatalf("%s: replayed %d, want %d", desc, got, wantReplay)
		}
		if !dbEqual(db, rec.State()) {
			t.Fatalf("%s: recovered state differs", desc)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Manifest present and whole, chunk record torn at every byte: the
	// manifest's reference can't be verified, so the previous manifest +
	// WAL replay must win — at every single offset. The sweep reuses one
	// directory, rewriting only the two files it varies: fallback
	// recovery leaves the other files exactly as they were (it deletes
	// the invalid manifest, which the next iteration rewrites anyway).
	stride := 1
	if raceEnabled {
		stride = 7 // every recovery is far slower under the race detector
	}
	sweep := writeDir(t, preFiles)
	for n := pre; n < post; n += stride {
		if err := os.WriteFile(filepath.Join(sweep, chunkName), postChunk[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sweep, man3Name), man3, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Open(sweep, Options{NoSync: true})
		if err != nil {
			t.Fatalf("chunk cut at %d: recovery failed: %v", n, err)
		}
		if got := rec.Stats().Replayed; got != 1 {
			t.Fatalf("chunk cut at %d: replayed %d, want 1", n, got)
		}
		if !dbEqual(db, rec.State()) {
			t.Fatalf("chunk cut at %d: recovered state differs", n)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// Complete chunk record + complete manifest: the incremental
	// checkpoint is live, nothing replays.
	{
		files := cloneFiles(preFiles)
		files[chunkName] = postChunk
		files[man3Name] = man3
		check(files, 0, "complete checkpoint")
	}
	// Crash before the manifest rename: torn chunk tail with no
	// manifest referencing it is simply ignored (sampled offsets — the
	// torn region is never read).
	for _, n := range []int{pre, pre + 1, pre + chunkRecHeaderLen, (pre + post) / 2, post - 1, post} {
		files := cloneFiles(preFiles)
		files[chunkName] = postChunk[:n]
		check(files, 1, "unreferenced chunk tail at "+strconv.Itoa(n))
	}
	// Bit rot instead of tearing: flip one byte in the record header
	// (id, length, CRC fields) and payload — the per-record validation
	// must reject it and recovery must fall back.
	for _, p := range []int{pre, pre + 7, pre + 8, pre + 12, pre + chunkRecHeaderLen, (pre + post) / 2, post - 1} {
		flipped := append([]byte(nil), postChunk...)
		flipped[p] ^= 0x40
		files := cloneFiles(preFiles)
		files[chunkName] = flipped
		files[man3Name] = man3
		check(files, 1, "chunk byte flipped at "+strconv.Itoa(p))
	}
}

// TestLegacyCheckpointFixture: a pre-manifest full checkpoint (the
// GYOCKPT1 file committed under testdata/) is an encoding Open no
// longer reads. A directory whose newest snapshot is one is refused
// with ErrLegacyFormat — also when a genesis WAL segment sits beside
// it, since replaying that instead would drop the checkpointed state —
// and the refusal is inert: the directory is left byte-identical and
// its lock released. Only a legacy file that a loaded manifest
// supersedes is tidied away, as before.
func TestLegacyCheckpointFixture(t *testing.T) {
	const legacy1 = "checkpoint-0000000000000001.ckpt"
	raw, err := os.ReadFile(filepath.Join("testdata", legacy1))
	if err != nil {
		t.Fatal(err)
	}
	manDir, _ := manifestWithDeadRows(t) // holds manifest-…02
	for name, files := range map[string]map[string][]byte{
		"checkpoint only":          {legacy1: raw},
		"beside a genesis segment": {legacy1: raw, segName(1): walMagic},
		"newer than the manifest":  dirFilesWith(t, manDir, "checkpoint-0000000000000003.ckpt", raw),
	} {
		files["LOCK"] = []byte{} // every opened store directory has one
		dir := writeDir(t, files)
		// Twice: a refusal that kept the directory lock would make the
		// second attempt fail with a lock error instead.
		for attempt := 1; attempt <= 2; attempt++ {
			s, err := Open(dir, Options{NoSync: true})
			if !errors.Is(err, ErrLegacyFormat) {
				if s != nil {
					s.Close()
				}
				t.Fatalf("%s, attempt %d: Open returned %v, want ErrLegacyFormat", name, attempt, err)
			}
		}
		if !reflect.DeepEqual(dirFiles(t, dir), files) {
			t.Errorf("%s: the refused Open changed the directory", name)
		}
		// A follower bootstrap must still see a store here and refuse
		// to adopt it.
		if has, err := DirHasStore(dir); err != nil || !has {
			t.Errorf("%s: DirHasStore = %v, %v", name, has, err)
		}
	}

	dir := writeDir(t, dirFilesWith(t, manDir, legacy1, raw))
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("legacy checkpoint older than the manifest: %v", err)
	}
	defer s.Close()
	if _, snaps, _ := listStoreFiles(t, dir); len(snaps) != 1 || snaps[0] != manName(2) {
		t.Errorf("snapshot files after opening past a superseded legacy checkpoint: %v", snaps)
	}
}

// dirFilesWith is dirFiles(dir) plus one more file.
func dirFilesWith(t testing.TB, dir, name string, data []byte) map[string][]byte {
	files := dirFiles(t, dir)
	files[name] = data
	return files
}

// TestManifestV1Fixture: a GYOMAN01 manifest (testdata/man01: the
// manifest, its chunk store and a WAL segment, written before deletes
// left rows in place) is an encoding Open no longer reads. A directory
// whose newest manifest is one is refused with ErrLegacyFormat — alone,
// beside a genesis WAL segment, and newer than a GYOMAN02 manifest, since
// replaying the WAL or loading the older manifest instead would drop its
// state — and the refusal is inert: the directory is left byte-identical
// and its lock released. A GYOMAN01 file that a newer GYOMAN02 manifest
// supersedes is tidied away.
func TestManifestV1Fixture(t *testing.T) {
	v1 := dirFiles(t, filepath.Join("testdata", "man01"))
	man1 := v1[manName(2)]
	if !bytes.HasPrefix(man1, []byte("GYOMAN01")) {
		t.Fatalf("fixture manifest opens with %q", man1[:8])
	}
	// The fixture manifest re-framed as sequence 3, newer than manDir's.
	man1At3 := append([]byte(nil), man1...)
	putU64(man1At3[12:], 3)
	putU32(man1At3[8:], crcOf(man1At3[12:]))
	manDir, _ := manifestWithDeadRows(t) // holds manifest-…02
	for name, files := range map[string]map[string][]byte{
		"manifest only":            cloneFiles(v1),
		"beside a genesis segment": dirFilesWith(t, filepath.Join("testdata", "man01"), segName(1), walMagic),
		"newer than a GYOMAN02":    dirFilesWith(t, manDir, manName(3), man1At3),
	} {
		files["LOCK"] = []byte{}
		dir := writeDir(t, files)
		for attempt := 1; attempt <= 2; attempt++ {
			s, err := Open(dir, Options{NoSync: true})
			if !errors.Is(err, ErrLegacyFormat) || !strings.Contains(err.Error(), "f0b2cad") {
				if s != nil {
					s.Close()
				}
				t.Fatalf("%s, attempt %d: Open returned %v, want ErrLegacyFormat naming f0b2cad", name, attempt, err)
			}
		}
		if !reflect.DeepEqual(dirFiles(t, dir), files) {
			t.Errorf("%s: the refused Open changed the directory", name)
		}
	}

	// manDir checkpointed once more publishes manifest-…03; the GYOMAN01
	// manifest-…02 beside it is then superseded.
	dir := writeDir(t, dirFiles(t, manDir))
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	want := s.State()
	if err := s.Checkpoint(want); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manName(2)), man1, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("GYOMAN01 manifest older than a GYOMAN02: %v", err)
	}
	defer s.Close()
	if !dbEqual(want, s.State()) {
		t.Error("state differs from the GYOMAN02 manifest's")
	}
	if _, snaps, _ := listStoreFiles(t, dir); len(snaps) != 1 || snaps[0] != manName(3) {
		t.Errorf("snapshot files after opening past a superseded GYOMAN01 manifest: %v", snaps)
	}
}

// TestManifestUnivFixture: a GYOMAN02 directory written by f0b2cad for
// testDB(t, "a", ChunkRows+50, 1<<20, 41) — a UR database whose manifest
// also carries the universal relation I (flag 1), one full chunk each
// (testdata/man02univ) — opens to the same relations. I's entry is
// verified and dropped: the first checkpoint writes no chunk, writes
// the fixture's manifest up to the flag and then 0, and leaves I's chunk
// out of the chunk table and the live bytes.
func TestManifestUnivFixture(t *testing.T) {
	files := dirFiles(t, filepath.Join("testdata", "man02univ"))
	dir := writeDir(t, files)
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	want := testDB(t, "a", relation.ChunkRows+50, 1<<20, 41)
	db := s.State()
	if !dbEqual(want, db) || db.Rels[0].FullChunks() != 1 {
		t.Fatalf("fixture opened to %d relations, not testDB's", len(db.Rels))
	}
	chunk := int64(chunkRecHeaderLen + relation.ChunkRows*relation.ValueBytes)
	if len(s.chunkTable) != 2 || s.chunkLive != chunkStoreHeaderLen+2*chunk {
		t.Fatalf("opened with %d chunks / %d live bytes; want the relation's and I's", len(s.chunkTable), s.chunkLive)
	}

	if err := s.Checkpoint(db); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.ChunksWritten != 0 || st.ChunksReused != 1 {
		t.Errorf("checkpoint wrote %d / reused %d chunks, want 0 / 1", st.ChunksWritten, st.ChunksReused)
	}
	var relChunk uint64
	db.Rels[0].ForEachFullChunk(func(id uint64, _ []relation.Value) bool { relChunk = id; return true })
	if _, ok := s.chunkTable[relChunk]; !ok || len(s.chunkTable) != 1 || s.chunkLive != chunkStoreHeaderLen+chunk {
		t.Errorf("after the checkpoint: %d chunks / %d live bytes; want only the relation's", len(s.chunkTable), s.chunkLive)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	old := files[manName(2)][manFrameLen:]
	man, err := os.ReadFile(filepath.Join(dir, manName(3)))
	if err != nil {
		t.Fatal(err)
	}
	body := man[manFrameLen:]
	k := len(body) - 1
	if k >= len(old) || !bytes.Equal(body[:k], old[:k]) || old[k] != 1 || body[k] != 0 {
		t.Errorf("new manifest is not the fixture's up to the universal-relation flag, then 0")
	}

	s, err = Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !dbEqual(want, s.State()) || s.Stats().Replayed != 0 {
		t.Error("state differs after the checkpoint and a reopen")
	}
}

// TestDeleteOnlyCheckpoint: deletes leave chunk payloads alone, so a
// checkpoint taken after an interval of nothing but deletes appends no
// chunk record — the dead rows travel in the manifest — and recovery
// rebuilds the acknowledged state with every row at its old position:
// the chunk ids still match, so the checkpoint after the restart
// writes no chunk either.
func TestDeleteOnlyCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	db := s.State()
	step := stepper(t, s, &db)
	step(Create("a", "b"))
	step(insertN(0, 0, 3*relation.ChunkRows+100)...)
	if err := s.Checkpoint(db); err != nil {
		t.Fatal(err)
	}
	seeded := s.Stats()
	if seeded.ChunksWritten != 3 {
		t.Fatalf("seed checkpoint wrote %d chunks, want 3", seeded.ChunksWritten)
	}

	// Rows of every chunk and of the tail; a tuple deleted and put back
	// (dead in chunk 0, live again in the tail); well under the
	// compaction bound.
	step(deleteN(0, 10, 200)...)
	step(deleteN(0, relation.ChunkRows+10, 200)...)
	step(deleteN(0, 3*relation.ChunkRows-50, 100)...) // across the chunk 2 / tail boundary
	step(insertN(0, 10, 1)...)
	if got := db.Rels[0].DeadRows(); got != 500 {
		t.Fatalf("%d dead rows, want 500 (no compaction)", got)
	}
	if err := s.Checkpoint(db); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.ChunksWritten != seeded.ChunksWritten || st.ChunksReused != seeded.ChunksReused+3 || st.ChunkStoreBytes != seeded.ChunkStoreBytes {
		t.Errorf("delete-only checkpoint: chunks written %d → %d, reused %d → %d, store %d → %d bytes",
			seeded.ChunksWritten, st.ChunksWritten, seeded.ChunksReused, st.ChunksReused, seeded.ChunkStoreBytes, st.ChunkStoreBytes)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	db2 := s2.State()
	if s2.Stats().Replayed != 0 || !dbEqual(db, db2) {
		t.Fatal("recovered state differs from the acknowledged one")
	}
	if got, want := db2.Rels[0].DeadRows(), 450; got != want { // the 50 dead tail rows are not stored
		t.Errorf("recovered relation carries %d dead rows, want %d", got, want)
	}
	if db2.Rels[0].Has(relation.Tuple{11, 11 + 1<<24}) || !db2.Rels[0].Has(relation.Tuple{10, 10 + 1<<24}) {
		t.Error("recovered relation resurrected a deleted tuple or lost a re-inserted one")
	}
	step2 := stepper(t, s2, &db2)
	step2(deleteN(0, 2*relation.ChunkRows+10, 5)...)
	if err := s2.Checkpoint(db2); err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.ChunksWritten != 0 || st.ChunksReused != 3 {
		t.Errorf("post-restart checkpoint wrote %d / reused %d chunks, want 0 / 3", st.ChunksWritten, st.ChunksReused)
	}
}

// TestManifestRejectsBadDeadLists: the dead-row lists are decoded from
// untrusted bytes. A list that resurrects a duplicate, names a row
// twice or out of range, miscounts against the declared cardinality or
// claims more entries than bytes remain is corruption — never a panic,
// an oversized allocation or a silently different relation — and
// recovery falls back to the previous manifest plus the WAL.
func TestManifestRejectsBadDeadLists(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	db := s.State()
	step := stepper(t, s, &db)
	step(Create("a"))
	step(insertN1(0, 0, relation.ChunkRows+4)...)
	if err := s.Checkpoint(db); err != nil { // manifest-2
		t.Fatal(err)
	}
	// Delete 7 and insert it again: chunk 0 holds it dead, the tail live.
	step(Mutation{Kind: KindDelete, Rel: 0, Width: 1, Values: []relation.Value{7, 9}},
		Mutation{Kind: KindInsert, Rel: 0, Width: 1, Values: []relation.Value{7}})
	preFiles := dirFiles(t, dir)
	if err := s.Checkpoint(db); err != nil { // manifest-3: dead list {7, 9}
		t.Fatal(err)
	}
	man3, err := os.ReadFile(filepath.Join(dir, manName(3)))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// The list is "2, 7, 1" (count, then the live rows skipped before
	// each dead one); find it behind the chunk ref.
	payload := man3[20:]
	at := bytes.Index(payload, []byte{2, 7, 1})
	if at < 0 || bytes.Count(payload, []byte{2, 7, 1}) != 1 {
		t.Fatalf("dead list not found in manifest payload % x", payload)
	}
	for name, patch := range map[string][]byte{
		"resurrects a duplicate of a live row": {2, 8, 0},          // 8 and 9 dead: 7 live in the chunk and in the tail
		"row past the chunk":                   {2, 7, 0xff, 0x3f}, // 7, then 7+1+8191
		"more entries than bytes":              {0xff, 0x1f, 1},    // 4095 entries, 1 byte left of them
		"miscounts the cardinality":            {3, 7, 1, 0},       // three dead rows, card says two
	} {
		bad := append(append(append([]byte(nil), payload[:at]...), patch...), payload[at+3:]...)
		frame := append([]byte(nil), man3[:20]...)
		putU32(frame[8:], crc32Update(crc32Update(0, frame[12:]), bad))
		files := cloneFiles(preFiles)
		files[manName(3)] = append(frame, bad...)
		if _, err := loadManifest(writeDir(t, files), 3); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: loadManifest error %v, want ErrCorrupt", name, err)
		}
		rec, err := Open(writeDir(t, files), Options{NoSync: true})
		if err != nil {
			t.Fatalf("%s: recovery failed: %v", name, err)
		}
		if rec.Stats().Replayed != 1 || !dbEqual(db, rec.State()) {
			t.Errorf("%s: recovery did not fall back to manifest-2 + WAL", name)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointFailureRecordedAndCleared: a failed checkpoint lands in
// Stats.LastCheckpointErr, leaves the store fully recoverable, and the
// next successful checkpoint clears the field.
func TestCheckpointFailureRecordedAndCleared(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	db := s.State()
	step := stepper(t, s, &db)
	step(Create("a", "b"))
	step(insertN(0, 0, 100)...)

	// A directory squatting on the chunk-store path makes the first
	// checkpoint fail deterministically.
	obstacle := filepath.Join(dir, chunkStoreName(1))
	if err := os.Mkdir(obstacle, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(db); err == nil {
		t.Fatal("checkpoint succeeded despite blocked chunk store")
	}
	st := s.Stats()
	if st.LastCheckpointErr == "" {
		t.Error("failed checkpoint not recorded in LastCheckpointErr")
	}
	if st.Checkpoints != 0 {
		t.Errorf("failed checkpoint counted: %d", st.Checkpoints)
	}

	if err := os.Remove(obstacle); err != nil {
		t.Fatal(err)
	}
	step(insertN(0, 1000, 10)...)
	if err := s.Checkpoint(db); err != nil {
		t.Fatalf("checkpoint after clearing obstacle: %v", err)
	}
	st = s.Stats()
	if st.LastCheckpointErr != "" {
		t.Errorf("successful checkpoint did not clear LastCheckpointErr: %q", st.LastCheckpointErr)
	}
	if st.Checkpoints != 1 {
		t.Errorf("checkpoints = %d, want 1", st.Checkpoints)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !dbEqual(db, s2.State()) {
		t.Error("recovered state differs after failed-then-successful checkpoint")
	}
}

// millionRowSeed appends a 2^20-row width-2 relation through the store
// and returns the lineage database, un-checkpointed.
func millionRowSeed(t testing.TB, s *Store) *relation.Database {
	t.Helper()
	db := s.State()
	step := stepper(t, s, &db)
	step(Create("a", "b"))
	step(insertN(0, 0, 1<<20)...)
	return db
}

// TestCheckpointIORatio pins the acceptance bound: checkpointing a
// 128-tuple batch into a 2^20-row relation must write at least 50×
// fewer bytes than a full snapshot rewrite (in practice ~2000×: a
// manifest of chunk references plus the 128-row tail).
func TestCheckpointIORatio(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 2^20-row relation")
	}
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	db := millionRowSeed(t, s)
	if err := s.Checkpoint(db); err != nil {
		t.Fatal(err)
	}
	// The first checkpoint wrote every chunk: it is the full snapshot.
	st1 := s.Stats()
	fullBytes := int64(st1.CheckpointBytes)

	step := stepper(t, s, &db)
	step(insertN(0, 1<<20, 128)...)
	if err := s.Checkpoint(db); err != nil {
		t.Fatal(err)
	}
	st2 := s.Stats()
	incBytes := int64(st2.CheckpointBytes - st1.CheckpointBytes)
	if incBytes <= 0 || incBytes*50 > fullBytes {
		t.Errorf("incremental checkpoint wrote %d bytes; full snapshot is %d (ratio %.0f×, want ≥ 50×)",
			incBytes, fullBytes, float64(fullBytes)/float64(incBytes))
	}
	// 2^20 is chunk-aligned and the 128 new rows are all tail: the
	// incremental checkpoint rewrites no chunk at all.
	if w := st2.ChunksWritten - st1.ChunksWritten; w != 0 {
		t.Errorf("tail-only checkpoint wrote %d chunks", w)
	}
	if r := st2.ChunksReused - st1.ChunksReused; r != 1<<20/relation.ChunkRows {
		t.Errorf("reused %d chunks, want %d", r, 1<<20/relation.ChunkRows)
	}
}

// BenchmarkCheckpointIncremental: steady-state incremental checkpoint
// of a 128-tuple batch landing in a 2^20-row relation. The ckptB/op
// metric is the actual checkpoint I/O per operation.
func BenchmarkCheckpointIncremental(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	db := millionRowSeed(b, s)
	if err := s.Checkpoint(db); err != nil {
		b.Fatal(err)
	}
	base := s.Stats().CheckpointBytes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := insertN(0, 1<<20+i*128, 128)
		nd, _, err := ApplyAll(db, batch)
		if err != nil {
			b.Fatal(err)
		}
		db = nd
		if err := s.Append(batch); err != nil {
			b.Fatal(err)
		}
		if err := s.Checkpoint(db); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Stats().CheckpointBytes-base)/float64(b.N), "ckptB/op")
}
