package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"gyokit/internal/relation"
)

// genesis is the cursor a follower starts from with no snapshot: the
// first record position of the first segment.
var genesis = Cursor{Seg: 1, Off: walHeaderLen}

// drainWAL reads every acknowledged record from c to the tip,
// returning the decoded batches and the final cursor.
func drainWAL(t *testing.T, s *Store, c Cursor) ([][]Mutation, Cursor) {
	t.Helper()
	var out [][]Mutation
	for {
		win, err := s.ReadWAL(c, 1<<20)
		if err != nil {
			t.Fatalf("ReadWAL(%v): %v", c, err)
		}
		payloads, consumed := SplitFrames(win.Frames)
		if consumed != len(win.Frames) {
			t.Fatalf("ReadWAL served a torn window: %d of %d bytes frame-aligned", consumed, len(win.Frames))
		}
		for _, p := range payloads {
			muts, err := DecodeBatch(p)
			if err != nil {
				t.Fatalf("DecodeBatch: %v", err)
			}
			out = append(out, muts)
		}
		if win.Next == c { // caught up
			if win.LagBytes != 0 {
				t.Fatalf("caught up at %v but LagBytes = %d", c, win.LagBytes)
			}
			return out, c
		}
		c = win.Next
	}
}

func TestReadWALRoundTripAcrossRotation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	batches := manyBatches(50)
	for _, b := range batches {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().Segments < 3 {
		t.Fatalf("want ≥ 3 segments for a rotation-crossing read, got %d", s.Stats().Segments)
	}

	got, end := drainWAL(t, s, genesis)
	if len(got) != len(batches) {
		t.Fatalf("drained %d batches, appended %d", len(got), len(batches))
	}
	if !dbEqual(applyBatches(t, got), applyBatches(t, batches)) {
		t.Error("state from streamed records differs from ground truth")
	}
	if tip := s.TailCursor(); end != tip {
		t.Errorf("drain ended at %v, tail is %v", end, tip)
	}

	// New appends are visible from the drained cursor.
	extra := []Mutation{Insert(0, 2, []relation.Tuple{{900, 901}})}
	if err := s.Append(extra); err != nil {
		t.Fatal(err)
	}
	more, _ := drainWAL(t, s, end)
	if len(more) != 1 || len(more[0]) != 1 || more[0][0].Kind != KindInsert {
		t.Fatalf("post-drain append not served: %v", more)
	}
}

func TestReadWALNeverSplitsFramesOrSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, b := range manyBatches(60) {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	// A tiny maxBytes still yields whole frames, one or more per window.
	c := genesis
	windows := 0
	for {
		win, err := s.ReadWAL(c, 10) // smaller than any frame
		if err != nil {
			t.Fatalf("ReadWAL(%v): %v", c, err)
		}
		if win.Next == c {
			break
		}
		if len(win.Frames) > 0 {
			if _, consumed := SplitFrames(win.Frames); consumed != len(win.Frames) {
				t.Fatalf("window at %v not frame-aligned", c)
			}
			if win.Next.Seg != c.Seg {
				t.Fatalf("window crossed a segment boundary: %v → %v", c, win.Next)
			}
		}
		c = win.Next
		windows++
	}
	if windows < 3 {
		t.Fatalf("expected many small windows, got %d", windows)
	}
}

func TestReadWALCursorGoneAndInvalid(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, b := range manyBatches(40) {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(s.State()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadWAL(genesis, 0); !errors.Is(err, ErrCursorGone) {
		t.Errorf("pre-checkpoint cursor: got %v, want ErrCursorGone", err)
	}
	tip := s.TailCursor()
	if _, err := s.ReadWAL(Cursor{Seg: tip.Seg, Off: tip.Off + 8}, 0); !errors.Is(err, ErrCursorInvalid) {
		t.Errorf("cursor past tail: got %v, want ErrCursorInvalid", err)
	}
	if _, err := s.ReadWAL(Cursor{Seg: tip.Seg + 5, Off: walHeaderLen}, 0); !errors.Is(err, ErrCursorInvalid) {
		t.Errorf("cursor in future segment: got %v, want ErrCursorInvalid", err)
	}
	// The tail cursor itself stays valid and caught-up.
	if win, err := s.ReadWAL(tip, 0); err != nil || win.Next != tip || len(win.Frames) != 0 {
		t.Errorf("tail cursor: win=%+v err=%v", win, err)
	}
}

func TestReadWALCaughtUpCursorSurvivesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, b := range manyBatches(10) {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	tip := s.TailCursor()

	// The checkpoint rotates and truncates the segment tip points into —
	// but a follower sitting exactly at the tail lost nothing, so its
	// cursor must hop across, not die with ErrCursorGone.
	if err := s.Checkpoint(s.State()); err != nil {
		t.Fatal(err)
	}
	win, err := s.ReadWAL(tip, 0)
	if err != nil {
		t.Fatalf("caught-up cursor after checkpoint: %v", err)
	}
	hop := Cursor{Seg: tip.Seg + 1, Off: walHeaderLen}
	if len(win.Frames) != 0 || win.Next != hop {
		t.Fatalf("expected rotation hop to %v, got %+v", hop, win)
	}
	// A cursor strictly inside the truncated segment is still gone.
	if _, err := s.ReadWAL(Cursor{Seg: tip.Seg, Off: tip.Off - 8}, 0); !errors.Is(err, ErrCursorGone) {
		t.Errorf("mid-segment cursor: got %v, want ErrCursorGone", err)
	}

	// The hop survives a restart (wal-trunc file): the graceful
	// shutdown sequence is checkpoint-then-exit, and replicas must
	// still resume against the reopened store.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	win, err = s.ReadWAL(tip, 0)
	if err != nil || win.Next != hop {
		t.Fatalf("hop after reopen: win=%+v err=%v", win, err)
	}
	// And the hopped-to cursor serves subsequent appends.
	if err := s.Append([]Mutation{Create("zz")}); err != nil {
		t.Fatal(err)
	}
	if batches, _ := drainWAL(t, s, hop); len(batches) != 1 || len(batches[0]) != 1 || batches[0][0].Kind != KindCreate {
		t.Fatalf("drain from hop = %+v", batches)
	}
}

// TestFollowerMidSegmentSurvivesCheckpoint: a feed has read part of a
// segment when the leader checkpoints past it. The checkpoint keeps the
// segment — its bytes leave the live WAL, so neither Dirty nor
// ShouldCheckpoint counts them — and the follower's next poll reads on
// from its cursor across the rotation, every batch once. The checkpoint
// after that removes it, read since or not: a segment is kept for one
// checkpoint interval at most.
func TestFollowerMidSegmentSurvivesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true, CheckpointBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	batches := manyBatches(40)
	for _, b := range batches {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if !s.ShouldCheckpoint() {
		t.Fatalf("%d WAL bytes suggest no checkpoint", s.Stats().WALBytes)
	}
	// The follower has read a few frames: its cursor is mid-segment.
	win, err := s.ReadWAL(genesis, 64)
	if err != nil {
		t.Fatal(err)
	}
	payloads, _ := SplitFrames(win.Frames)
	cur := win.Next
	if tip := s.TailCursor(); cur.Seg != tip.Seg || cur.Off >= tip.Off || len(payloads) == 0 {
		t.Fatalf("cursor %v after %d frames, tail %v: not mid-segment", cur, len(payloads), tip)
	}
	if err := s.Checkpoint(s.State()); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); s.Dirty() || s.ShouldCheckpoint() || st.WALBytes != walHeaderLen || st.Segments != 2 {
		t.Fatalf("after the checkpoint: dirty %v, should checkpoint %v, %d WAL bytes over %d segments; want clean, %d bytes, the kept segment and the tail",
			s.Dirty(), s.ShouldCheckpoint(), st.WALBytes, st.Segments, walHeaderLen)
	}
	extra := []Mutation{Insert(0, 2, []relation.Tuple{{999, 999}})}
	if err := s.Append(extra); err != nil {
		t.Fatal(err)
	}
	rest, _ := drainWAL(t, s, cur)
	if got, want := len(payloads)+len(rest), len(batches)+1; got != want {
		t.Fatalf("the follower read %d batches across the checkpoint, want %d", got, want)
	}
	if last := rest[len(rest)-1]; len(last) != 1 || last[0].Kind != KindInsert {
		t.Fatalf("last batch read %+v, want the insert after the checkpoint", last)
	}

	// The kept segment is older than the last checkpoint now: the next
	// one removes it, though the drain read it since.
	if err := s.Checkpoint(s.State()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadWAL(cur, 0); !errors.Is(err, ErrCursorGone) {
		t.Fatalf("a cursor in a segment two checkpoints back: got %v, want ErrCursorGone", err)
	}
	if segs, _, _ := listStoreFiles(t, dir); len(segs) != 2 {
		t.Fatalf("segment files after the second checkpoint: %v, want the one the drain read and the tail", segs)
	}
}

func TestAppendNotifyWakesWaiters(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ch := s.AppendNotify()
	select {
	case <-ch:
		t.Fatal("notify channel closed before any append")
	default:
	}
	if err := s.Append([]Mutation{Create("a")}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	default:
		t.Fatal("append did not signal AppendNotify")
	}
	// Rotation (BeginCheckpoint) signals too: a parked caught-up
	// follower must learn the tail moved to a fresh segment.
	ch = s.AppendNotify()
	if _, err := s.BeginCheckpoint(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	default:
		t.Fatal("rotation did not signal AppendNotify")
	}
}

func TestCursorMarkRoundTripAndReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.ReplayedCursor(); ok {
		t.Fatal("fresh store reports a replayed cursor")
	}
	want := Cursor{Seg: 7, Off: 4242}
	batches := [][]Mutation{
		{Create("a", "b"), CursorMark(Cursor{Seg: 7, Off: 100})},
		{Insert(0, 2, []relation.Tuple{{1, 2}, {3, 4}}), CursorMark(want)},
	}
	for _, b := range batches {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, ok := s2.ReplayedCursor()
	if !ok || got != want {
		t.Fatalf("ReplayedCursor = %v, %v; want %v, true", got, ok, want)
	}
	// Marks are invisible to state: replay equals the mark-free history.
	clean := [][]Mutation{
		{Create("a", "b")},
		{Insert(0, 2, []relation.Tuple{{1, 2}, {3, 4}})},
	}
	if !dbEqual(applyBatches(t, clean), s2.State()) {
		t.Error("cursor marks changed replayed state")
	}
	// A checkpoint truncates the marks out of the WAL: the next open has
	// no replayed cursor (callers fall back to their sidecar state).
	if err := s2.Checkpoint(s2.State()); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if c, ok := s3.ReplayedCursor(); ok {
		t.Fatalf("post-checkpoint open still reports cursor %v", c)
	}
}

func TestStoreIDStableAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	id := s.ID()
	if id == 0 {
		t.Fatal("store ID is zero")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.ID() != id {
		t.Fatalf("store ID changed across opens: %016x → %016x", id, s2.ID())
	}
	other, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if other.ID() == id {
		t.Fatal("two fresh stores share an ID")
	}
}

func TestDirHasStore(t *testing.T) {
	dir := t.TempDir()
	if has, err := DirHasStore(dir); err != nil || has {
		t.Fatalf("empty dir: has=%v err=%v", has, err)
	}
	if has, err := DirHasStore(filepath.Join(dir, "missing")); err != nil || has {
		t.Fatalf("missing dir: has=%v err=%v", has, err)
	}
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if has, err := DirHasStore(dir); err != nil || !has {
		t.Fatalf("opened dir: has=%v err=%v", has, err)
	}
}

// bigStoreState builds a store whose database spans several full arena
// chunks (so the snapshot stream carries real chunk records) plus a
// mutable tail and a second small relation, with rows deleted from a
// full chunk and from the tail (so it carries dead-row lists too).
func bigStoreState(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]Mutation{Create("a", "b"), Create("c")}); err != nil {
		t.Fatal(err)
	}
	rows := relation.ChunkRows*2 + 137
	vals := make([]relation.Value, 0, rows*2)
	for i := 0; i < rows; i++ {
		vals = append(vals, relation.Value(i), relation.Value(i*7))
	}
	if err := s.Append([]Mutation{{Kind: KindInsert, Rel: 0, Width: 2, Values: vals}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]Mutation{Insert(1, 1, []relation.Tuple{{11}, {22}})}); err != nil {
		t.Fatal(err)
	}
	last := relation.Value(rows - 1)
	if err := s.Append([]Mutation{Delete(0, 2, []relation.Tuple{{5, 35}, {6, 42}, {relation.ChunkRows, relation.ChunkRows * 7}, {last, last * 7}})}); err != nil {
		t.Fatal(err)
	}
	// Append only logs; reopen so replay materializes State().
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestReplSnapshotRoundTrip(t *testing.T) {
	src := t.TempDir()
	s := bigStoreState(t, src)
	defer s.Close()
	db := s.State()
	db.Freeze()

	var buf bytes.Buffer
	if err := WriteReplSnapshot(&buf, db); err != nil {
		t.Fatal(err)
	}

	dst := t.TempDir()
	if err := InstallReplSnapshot(dst, bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	got, err := Open(dst, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open after install: %v", err)
	}
	defer got.Close()
	if !dbEqual(db, got.State()) {
		t.Error("installed snapshot state differs from source")
	}
	if sent, installed := db.Rels[0].DeadRows(), got.State().Rels[0].DeadRows(); sent != 4 || installed != 3 {
		t.Errorf("dead rows: source %d, installed %d; want 4 and 3 (the tail ships live rows only)", sent, installed)
	}
	// The follower's WAL starts at segment 1 — its first appends land
	// where a manifest at sequence 1 expects them.
	if tip := got.TailCursor(); tip.Seg != 1 {
		t.Errorf("installed store tail at segment %d, want 1", tip.Seg)
	}
	if err := got.Append([]Mutation{Insert(1, 1, []relation.Tuple{{33}})}); err != nil {
		t.Errorf("append on installed store: %v", err)
	}
}

func TestInstallReplSnapshotRejectsTornOrCorrupt(t *testing.T) {
	src := t.TempDir()
	s := bigStoreState(t, src)
	defer s.Close()
	db := s.State()
	db.Freeze()
	var buf bytes.Buffer
	if err := WriteReplSnapshot(&buf, db); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()

	cases := map[string][]byte{
		"torn manifest":  stream[:5],
		"torn mid-chunk": stream[:len(stream)-100],
	}
	flipped := append([]byte(nil), stream...)
	flipped[len(flipped)/2] ^= 0x40
	cases["bit flip"] = flipped

	for name, data := range cases {
		dir := t.TempDir()
		if err := InstallReplSnapshot(dir, bytes.NewReader(data)); err == nil {
			t.Errorf("%s: install succeeded", name)
			continue
		}
		// A failed install leaves the directory store-free: safe to
		// re-bootstrap without operator intervention.
		if has, err := DirHasStore(dir); err != nil || has {
			t.Errorf("%s: after failed install has=%v err=%v, want store-free", name, has, err)
		}
		ents, _ := os.ReadDir(dir)
		for _, e := range ents {
			t.Errorf("%s: leftover file %s", name, e.Name())
		}
	}
}
