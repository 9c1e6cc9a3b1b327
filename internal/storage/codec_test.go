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
		if a.Rels[i].Card() != b.Rels[i].Card() {
			return false
		}
		for j := 0; j < a.Rels[i].Card(); j++ {
			if !b.Rels[i].Has(a.Rels[i].TupleAt(j)) {
				return false
			}
		}
	}
	if (a.Univ == nil) != (b.Univ == nil) {
		return false
	}
	if a.Univ != nil && !sameTuples(a.Univ, b.Univ) {
		return false
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

func TestCodecDatabaseRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		schema string
		tuples int
	}{
		{"ab, bc, cd", 200},
		{"abg, bcg, acf, ad, de, ea", 100},
		{"user id, id name", 50},
		{"ab", 0},
	} {
		db := testDB(t, tc.schema, tc.tuples, 16, 1)
		enc := appendDatabase(nil, db)
		got, err := decodeDatabase(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.schema, err)
		}
		if !dbEqual(db, got) {
			t.Errorf("%s: round trip changed the database", tc.schema)
		}
		// Ids must survive: re-encoding the decoded database is
		// byte-identical.
		if !bytes.Equal(enc, appendDatabase(nil, got)) {
			t.Errorf("%s: re-encode differs", tc.schema)
		}
	}
}

func TestCodecNoUniv(t *testing.T) {
	db := testDB(t, "ab, bc", 50, 8, 2)
	db.Univ = nil
	got, err := decodeDatabase(appendDatabase(nil, db))
	if err != nil {
		t.Fatal(err)
	}
	if got.Univ != nil || !dbEqual(db, got) {
		t.Error("univ-less round trip failed")
	}
}

func TestCodecRejectsCorruption(t *testing.T) {
	db := testDB(t, "ab, bc, cd", 100, 8, 3)
	enc := appendDatabase(nil, db)
	// Truncation at any offset must error, never panic.
	for off := 0; off < len(enc); off++ {
		if _, err := decodeDatabase(enc[:off]); err == nil {
			t.Fatalf("truncation at %d accepted", off)
		}
	}
	// Trailing junk must be rejected too.
	if _, err := decodeDatabase(append(append([]byte(nil), enc...), 0xFF)); err == nil {
		t.Error("trailing bytes accepted")
	}
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

// FuzzCodec drives the database decoder with arbitrary bytes. A decode
// that succeeds must round-trip byte-identically (the encoding is
// canonical); a decode that fails must fail cleanly, never panic or
// over-allocate.
func FuzzCodec(f *testing.F) {
	f.Add(appendDatabase(nil, testDB(f, "ab, bc, cd", 20, 8, 1)))
	f.Add(appendDatabase(nil, testDB(f, "user id, id name", 5, 4, 2)))
	empty := &relation.Database{D: schema.New(schema.NewUniverse())}
	f.Add(appendDatabase(nil, empty))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	// The same bytes are also read as a manifest body against a real
	// chunk store: seed a GYOMAN02 body whose chunk carries a dead-row
	// list, and the GYOMAN01 body of the committed fixture.
	manDir, man2 := manifestWithDeadRows(f)
	f.Add(man2)
	v1Dir := writeDir(f, dirFiles(f, filepath.Join("testdata", "man01")))
	man1 := dirFiles(f, v1Dir)[manName(2)][20:]
	f.Add(man1)
	for dir, body := range map[string][]byte{manDir: man2, v1Dir: man1} {
		st, err := decodeManifest(dir, body, dir == v1Dir)
		if err != nil {
			f.Fatalf("seed manifest does not decode: %v", err)
		}
		_ = st.f.Close()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, dir := range []string{manDir, v1Dir} {
			st, err := decodeManifest(dir, data, dir == v1Dir)
			if err != nil {
				continue
			}
			// Whatever decodes is a well-formed database: it encodes by
			// value and decodes back to itself.
			_ = st.f.Close()
			if db2, err := decodeDatabase(appendDatabase(nil, st.db)); err != nil || !dbEqual(st.db, db2) {
				t.Fatalf("manifest decoded to a database the codec cannot round-trip: %v", err)
			}
		}
		db, err := decodeDatabase(data)
		if err != nil {
			return
		}
		enc := appendDatabase(nil, db)
		db2, err := decodeDatabase(enc)
		if err != nil {
			t.Fatalf("re-decode of valid database failed: %v", err)
		}
		if !bytes.Equal(enc, appendDatabase(nil, db2)) {
			t.Fatal("decode→encode is not a fixed point")
		}
	})
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

func BenchmarkCodecDatabase(b *testing.B) {
	db := testDB(b, "ab, bc, cd, de", 10000, 64, 1)
	enc := appendDatabase(nil, db)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			appendDatabase(enc[:0], db)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := decodeDatabase(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}
