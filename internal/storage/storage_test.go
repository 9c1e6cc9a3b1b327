package storage

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gyokit/internal/relation"
)

// listStoreFiles partitions the directory's contents: WAL segments,
// snapshot files (manifests, and legacy .ckpt checkpoints awaiting
// removal), and chunk-store generations.
func listStoreFiles(t testing.TB, dir string) (segs, snaps, chunks []string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		switch {
		case strings.HasSuffix(e.Name(), ".log"):
			segs = append(segs, e.Name())
		case strings.HasSuffix(e.Name(), ".ckpt"), strings.HasSuffix(e.Name(), ".mf"):
			snaps = append(snaps, e.Name())
		case strings.HasSuffix(e.Name(), ".gyo"):
			chunks = append(chunks, e.Name())
		}
	}
	return segs, snaps, chunks
}

// manyBatches returns a create batch plus n single-tuple insert batches.
func manyBatches(n int) [][]Mutation {
	out := [][]Mutation{{Create("a", "b")}}
	for i := 0; i < n; i++ {
		out = append(out, []Mutation{Insert(0, 2, []relation.Tuple{{relation.Value(i), relation.Value(i * 3)}})})
	}
	return out
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	batches := manyBatches(50)
	for _, b := range batches {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Segments < 3 {
		t.Fatalf("expected rotation to produce ≥ 3 segments, got %d", st.Segments)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !dbEqual(applyBatches(t, batches), s2.State()) {
		t.Error("multi-segment recovery differs from ground truth")
	}
}

func TestCheckpointTruncatesWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	batches := manyBatches(40)
	for _, b := range batches {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	db := applyBatches(t, batches)
	before := s.Stats()
	if err := s.Checkpoint(db); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.Segments != 1 {
		t.Errorf("segments after checkpoint = %d, want 1 (fresh tail)", after.Segments)
	}
	if after.WALBytes >= before.WALBytes {
		t.Errorf("WAL bytes did not shrink: %d → %d", before.WALBytes, after.WALBytes)
	}
	if after.Checkpoints != 1 || after.LastCheckpoint.IsZero() {
		t.Errorf("checkpoint counters = %+v", after)
	}
	segs, snaps, chunks := listStoreFiles(t, dir)
	if len(segs) != 1 || len(snaps) != 1 || len(chunks) != 1 {
		t.Errorf("files after checkpoint: segs %v, snaps %v, chunks %v", segs, snaps, chunks)
	}

	// More writes after the checkpoint land in the new tail.
	extra := []Mutation{Insert(0, 2, []relation.Tuple{{999, 999}})}
	if err := s.Append(extra); err != nil {
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
	want, _, err := ApplyAll(db, extra)
	if err != nil {
		t.Fatal(err)
	}
	if !dbEqual(want, s2.State()) {
		t.Error("checkpoint + tail replay differs from ground truth")
	}
	if got := s2.Stats().Replayed; got != 1 {
		t.Errorf("replayed %d batches after checkpoint, want 1", got)
	}
}

func TestCorruptCheckpointFallsBackToWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	batches := manyBatches(10)
	for _, b := range batches {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate a crash between the checkpoint rename and the segment
	// cleanup: keep a copy of the full WAL, checkpoint (which truncates
	// it), restore the copy, then corrupt the checkpoint. Recovery must
	// fall back to replaying the complete WAL from segment 1.
	seg1 := filepath.Join(dir, segName(1))
	seg1Bytes, err := os.ReadFile(seg1)
	if err != nil {
		t.Fatal(err)
	}
	db := applyBatches(t, batches)
	if err := s.Checkpoint(db); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg1, seg1Bytes, 0o644); err != nil {
		t.Fatal(err)
	}
	_, snaps, _ := listStoreFiles(t, dir)
	if len(snaps) != 1 {
		t.Fatalf("expected one snapshot file, got %v", snaps)
	}
	path := filepath.Join(dir, snaps[0])
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if !dbEqual(db, s2.State()) {
		t.Error("fallback recovery from full WAL differs from ground truth")
	}
	// The corrupt manifest — and the chunk store nothing references any
	// more — must have been discarded.
	if _, snaps, chunks := listStoreFiles(t, dir); len(snaps) != 0 || len(chunks) != 0 {
		t.Errorf("corrupt snapshot not removed: snaps %v, chunks %v", snaps, chunks)
	}
}

func TestUnrecoverableWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	batches := manyBatches(5)
	for _, b := range batches {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(applyBatches(t, batches)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Destroy the only checkpoint manifest: segment 1 is gone (truncated
	// by the checkpoint), so acknowledged data is unrecoverable and Open
	// must say so rather than serve an empty database.
	_, snaps, _ := listStoreFiles(t, dir)
	if len(snaps) != 1 {
		t.Fatalf("expected one snapshot file, got %v", snaps)
	}
	if err := os.Remove(filepath.Join(dir, snaps[0])); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{NoSync: true}); err == nil {
		t.Fatal("Open succeeded with missing checkpoint and truncated WAL")
	}
}

// TestCorruptHeaderWithBodyIsAnError: a bad segment magic with a
// non-empty record body is provable corruption (the header lands
// before any record), never a torn create — recovery must refuse
// rather than silently truncate the acknowledged batches away.
func TestCorruptHeaderWithBodyIsAnError(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range manyBatches(3) {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segName(1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{NoSync: true}); err == nil {
		t.Fatal("Open accepted a corrupt segment header over a non-empty body")
	}
	// A header-only (or shorter) file with a bad magic is the torn
	// create case and recovers to the empty prefix.
	if err := os.WriteFile(path, raw[:walHeaderLen], 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("torn header-only segment did not recover: %v", err)
	}
	s2.Close()
}

// TestSecondOpenFails: one process per directory — a concurrent Open
// must fail fast instead of truncating the live writer's tail.
func TestSecondOpenFails(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{NoSync: true}); err == nil {
		t.Fatal("second Open of a live store succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	s2.Close()
}

func TestAppendAfterCloseFails(t *testing.T) {
	s, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]Mutation{Create("a")}); err == nil {
		t.Fatal("append after Close succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatal("second Close not idempotent:", err)
	}
}

// TestZeroWidthRelation: the paper's empty relation schema ∅ round-trips
// through create, empty-tuple insert/delete, the WAL, and a checkpoint.
func TestZeroWidthRelation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	batches := [][]Mutation{
		{Create("a", "b"), Create()}, // ∅ relation at index 1
		{{Kind: KindInsert, Rel: 1, Width: 0}},
		{Insert(0, 2, []relation.Tuple{{1, 2}})},
	}
	for _, b := range batches {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	want := applyBatches(t, batches)
	if got := want.Rels[1].Card(); got != 1 {
		t.Fatalf("empty-tuple insert: card %d, want 1", got)
	}
	if err := s.Checkpoint(want); err != nil {
		t.Fatal(err)
	}
	del := []Mutation{{Kind: KindDelete, Rel: 1, Width: 0}}
	if err := s.Append(del); err != nil {
		t.Fatal(err)
	}
	if want, _, err = ApplyAll(want, del); err != nil {
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
	if !dbEqual(want, s2.State()) || s2.State().Rels[1].Card() != 0 {
		t.Error("zero-width relation did not survive checkpoint + replay")
	}
}

// TestAppendRejectsUnencodable: what Append acknowledges must decode on
// replay, so codec caps are enforced up front.
func TestAppendRejectsUnencodable(t *testing.T) {
	s, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	long := strings.Repeat("x", maxNameLen+1)
	if err := s.Append([]Mutation{Create("a", long)}); err == nil {
		t.Error("over-long attribute name accepted")
	}
	if err := s.Append([]Mutation{Insert(maxRelations+1, 1, []relation.Tuple{{1}})}); err == nil {
		t.Error("over-cap relation index accepted")
	}
	if err := s.Append([]Mutation{{Kind: KindInsert, Rel: 0, Width: 3, Values: make([]relation.Value, 7)}}); err == nil {
		t.Error("ragged batch (values not a multiple of width) accepted")
	}
	if err := s.Append([]Mutation{{Kind: KindInsert, Rel: 0, Width: 0, Values: make([]relation.Value, 2)}}); err == nil {
		t.Error("zero-width batch with values accepted")
	}
	if st := s.Stats(); st.Appends != 0 {
		t.Errorf("rejected batches counted as appends: %d", st.Appends)
	}
	// The store must still be usable after rejections.
	if err := s.Append([]Mutation{Create("a")}); err != nil {
		t.Fatal(err)
	}
}

func TestShouldCheckpoint(t *testing.T) {
	s, err := Open(t.TempDir(), Options{NoSync: true, CheckpointBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.ShouldCheckpoint() {
		t.Error("fresh store wants a checkpoint")
	}
	for _, b := range manyBatches(10) {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if !s.ShouldCheckpoint() {
		t.Error("store past the threshold does not want a checkpoint")
	}
	disabled, err := Open(t.TempDir(), Options{NoSync: true, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer disabled.Close()
	for _, b := range manyBatches(10) {
		if err := disabled.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if disabled.ShouldCheckpoint() {
		t.Error("disabled threshold still suggests checkpoints")
	}
}
