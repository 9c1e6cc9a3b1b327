package storage

import (
	"os"
	"path/filepath"
	"testing"

	"gyokit/internal/relation"
	"gyokit/internal/schema"
)

// applyBatches is the in-memory ground truth: the batches applied
// copy-on-write from the empty database.
func applyBatches(t testing.TB, batches [][]Mutation) *relation.Database {
	t.Helper()
	db := &relation.Database{D: schema.New(schema.NewUniverse())}
	for i, b := range batches {
		var err error
		if db, _, err = ApplyAll(db, b); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	return db
}

// copyDir copies a store directory, truncating the named file to n bytes.
func copyDirTruncated(t testing.TB, src, truncName string, n int64) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() == truncName && int64(len(data)) > n {
			data = data[:n]
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func TestWALAppendReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Empty() {
		t.Fatal("fresh store not Empty")
	}
	batches := [][]Mutation{
		{Create("a", "b"), Create("b", "c")},
		{Insert(0, 2, []relation.Tuple{{1, 2}, {3, 4}, {1, 2}})},
		{Insert(1, 2, []relation.Tuple{{2, 9}}), Delete(0, 2, []relation.Tuple{{3, 4}})},
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
	if s2.Empty() {
		t.Error("recovered store reports Empty")
	}
	if got := s2.Stats().Replayed; got != uint64(len(batches)) {
		t.Errorf("replayed %d batches, want %d", got, len(batches))
	}
	want := applyBatches(t, batches)
	if !dbEqual(want, s2.State()) {
		t.Errorf("recovered state differs:\n got %v\nwant %v", s2.State().D, want.D)
	}
}

// TestWALTornTail is the crash-recovery harness: it truncates the WAL
// at every byte offset (covering in particular every offset of the
// final record) and asserts recovery yields exactly the acknowledged
// prefix — every batch whose append completed before the cut, none
// after, and never an error or a half-applied batch.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	batches := [][]Mutation{
		{Create("a", "b")},
		{Insert(0, 2, []relation.Tuple{{1, 10}, {2, 20}})},
		{Create("b", "c"), Insert(1, 2, []relation.Tuple{{7, 70}})},
		{Delete(0, 2, []relation.Tuple{{1, 10}}), Insert(0, 2, []relation.Tuple{{3, 30}})},
	}
	segFile := segName(1)
	// ends[i] = WAL size once batch i is acknowledged.
	ends := make([]int64, len(batches))
	for i, b := range batches {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(filepath.Join(dir, segFile))
		if err != nil {
			t.Fatal(err)
		}
		ends[i] = fi.Size()
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	total := ends[len(ends)-1]
	// Precompute the expected database for every acknowledged prefix.
	states := make([]*relation.Database, len(batches)+1)
	for k := 0; k <= len(batches); k++ {
		states[k] = applyBatches(t, batches[:k])
	}
	for off := int64(0); off <= total; off++ {
		cut := copyDirTruncated(t, dir, segFile, off)
		rec, err := Open(cut, Options{NoSync: true})
		if err != nil {
			t.Fatalf("offset %d: recovery failed: %v", off, err)
		}
		wantK := 0
		for k, end := range ends {
			if off >= end {
				wantK = k + 1
			}
		}
		if got := rec.Stats().Replayed; got != uint64(wantK) {
			t.Fatalf("offset %d: replayed %d batches, want %d", off, got, wantK)
		}
		if !dbEqual(states[wantK], rec.State()) {
			t.Fatalf("offset %d: recovered state ≠ %d-batch prefix", off, wantK)
		}
		// The torn tail must be gone: the store accepts new appends and
		// they survive a further reopen.
		probe := []Mutation{Create("z", "w")}
		if err := rec.Append(probe); err != nil {
			t.Fatalf("offset %d: append after recovery: %v", off, err)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		rec2, err := Open(cut, Options{NoSync: true})
		if err != nil {
			t.Fatalf("offset %d: second recovery: %v", off, err)
		}
		if got := rec2.Stats().Replayed; got != uint64(wantK)+1 {
			t.Fatalf("offset %d: second recovery replayed %d, want %d", off, got, wantK+1)
		}
		rec2.Close()
	}
}

// FuzzWALReplay feeds arbitrary bytes as a WAL segment. Recovery must
// never panic, must yield a database consistent with some record
// prefix, and must leave the store appendable.
func FuzzWALReplay(f *testing.F) {
	// Seeds: a valid two-batch segment, a torn version of it, junk.
	valid := append([]byte(nil), walMagic...)
	valid = appendFrame(valid, appendBatch(nil, []Mutation{Create("a", "b")}))
	valid = appendFrame(valid, appendBatch(nil, []Mutation{Insert(0, 2, []relation.Tuple{{1, 2}})}))
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte("GYOWAL01"))
	f.Add([]byte("not a wal file"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{NoSync: true})
		if err != nil {
			return // corruption detected is a valid outcome; panics are not
		}
		if err := s.Append([]Mutation{Create("fuzz", "probe")}); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("reopen after append: %v", err)
		}
		defer s2.Close()
		if _, ok := s2.State().D.U.Lookup("probe"); !ok {
			t.Fatal("appended batch lost across reopen")
		}
	})
}
