package storage

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"gyokit/internal/relation"
	"gyokit/internal/schema"
)

// testDB builds a deterministic universal-relation database.
func testDB(t testing.TB, schemaText string, tuples, domain int, seed int64) *relation.Database {
	t.Helper()
	u := schema.NewUniverse()
	d := schema.MustParse(u, schemaText)
	univ, _ := relation.RandomUniversal(u, d.Attrs(), tuples, domain, rand.New(rand.NewSource(seed)))
	return relation.URDatabase(d, univ)
}

// dbEqual compares schema text and every relation state.
func dbEqual(a, b *relation.Database) bool {
	if a.D.String() != b.D.String() || len(a.Rels) != len(b.Rels) {
		return false
	}
	for i := range a.Rels {
		if !sameTuples(a.Rels[i], b.Rels[i]) {
			return false
		}
	}
	return true
}

func sameTuples(a, b *relation.Relation) bool {
	if a.Card() != b.Card() {
		return false
	}
	for i := 0; i < a.Card(); i++ {
		if !b.Has(a.TupleAt(i)) {
			return false
		}
	}
	return true
}

func TestBatchRoundTrip(t *testing.T) {
	muts := []Mutation{
		Create("a", "b"),
		Create("b", "c"),
		Insert(0, 2, []relation.Tuple{{1, 2}, {3, 4}}),
		Delete(0, 2, []relation.Tuple{{1, 2}}),
		Insert(1, 2, []relation.Tuple{{5, 6}}),
		Drop(1),
	}
	enc := appendBatch(nil, muts)
	got, err := decodeBatch(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(muts) {
		t.Fatalf("decoded %d mutations, want %d", len(got), len(muts))
	}
	if !bytes.Equal(enc, appendBatch(nil, got)) {
		t.Error("batch re-encode differs")
	}
	for off := 0; off < len(enc); off++ {
		if _, err := decodeBatch(enc[:off]); err == nil {
			t.Fatalf("batch truncation at %d accepted", off)
		}
	}
}

// snapshotRoundTrip writes db as the first checkpoint of a fresh store
// directory and returns what reopening that directory recovers.
func snapshotRoundTrip(t testing.TB, db *relation.Database) *relation.Database {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(db); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("reopening the snapshot: %v", err)
	}
	defer s.Close()
	return s.State()
}

// FuzzCodec drives the manifest decoder with arbitrary bytes, read as a
// manifest body against two real chunk stores. A decode that fails must
// fail cleanly, never panic or over-allocate; whatever decodes is a
// well-formed database, so it survives being checkpointed into a fresh
// directory and recovered.
func FuzzCodec(f *testing.F) {
	// Bodies: a relation with dead rows in both chunks and the tail, a
	// UR database, multi-character attribute names, the empty database;
	// and the body of the committed fixture whose universal-relation
	// flag is 1.
	manDir, man2 := manifestWithDeadRows(f)
	f.Add(man2)
	f.Add(manifestBody(f, testDB(f, "ab, bc, cd", 20, 8, 1)))
	f.Add(manifestBody(f, testDB(f, "user id, id name", 5, 4, 2)))
	f.Add(manifestBody(f, &relation.Database{D: schema.New(schema.NewUniverse())}))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	univDir := writeDir(f, dirFiles(f, filepath.Join("testdata", "man02univ")))
	manUniv := dirFiles(f, univDir)[manName(2)][manFrameLen:]
	f.Add(manUniv)
	for dir, body := range map[string][]byte{manDir: man2, univDir: manUniv} {
		st, err := decodeManifest(dir, body)
		if err != nil {
			f.Fatalf("seed manifest does not decode: %v", err)
		}
		_ = st.f.Close()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, dir := range []string{manDir, univDir} {
			st, err := decodeManifest(dir, data)
			if err != nil {
				continue
			}
			_ = st.f.Close()
			if !dbEqual(st.db, snapshotRoundTrip(t, st.db)) {
				t.Fatal("manifest decoded to a database that does not survive a checkpoint and recovery")
			}
		}
	})
}

// manifestBody returns the body of the manifest a fresh store writes
// for db.
func manifestBody(t testing.TB, db *relation.Database) []byte {
	t.Helper()
	body, err := appendManifest(nil, db, 1, func(uint64) (chunkRef, bool) { return chunkRef{}, false })
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// manifestWithDeadRows checkpoints a two-chunk relation after deletes
// from both chunks and the tail, and returns the store directory (closed)
// with the body of its manifest.
func manifestWithDeadRows(t testing.TB) (dir string, body []byte) {
	dir = t.TempDir()
	s, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	db := s.State()
	step := stepper(t, s, &db)
	step(Create("a"))
	step(insertN1(0, 0, 2*relation.ChunkRows+9)...)
	step(Mutation{Kind: KindDelete, Rel: 0, Width: 1, Values: []relation.Value{0, 5, 6, relation.ChunkRows + 1, 2*relation.ChunkRows + 3}})
	if err := s.Checkpoint(db); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, snaps, _ := listStoreFiles(t, dir)
	man, err := os.ReadFile(filepath.Join(dir, snaps[0]))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("manifests %v: %v", snaps, err)
	}
	return dir, man[20:]
}
