package relation

import (
	"math/rand"
	"testing"

	"gyokit/internal/schema"
)

func snapshotDB(t *testing.T) (*schema.Schema, *Database) {
	t.Helper()
	u := schema.NewUniverse()
	d := schema.MustParse(u, "ab, bc")
	i, _ := RandomUniversal(u, d.Attrs(), 20, 4, rand.New(rand.NewSource(1)))
	return d, URDatabase(d, i)
}

func TestFreezePanicsOnInsert(t *testing.T) {
	d, db := snapshotDB(t)
	_ = d
	db.Freeze()
	if !db.Rels[0].Frozen() || !db.Rels[1].Frozen() {
		t.Fatal("Freeze did not freeze all relations")
	}
	defer func() {
		if recover() == nil {
			t.Error("Insert into frozen relation did not panic")
		}
	}()
	db.Rels[0].Insert(Tuple{9, 9})
}

func TestCloneIsUnfrozen(t *testing.T) {
	_, db := snapshotDB(t)
	db.Freeze()
	c := db.Rels[0].Clone()
	if c.Frozen() {
		t.Fatal("Clone of frozen relation is frozen")
	}
	before := db.Rels[0].Card()
	c.Insert(Tuple{101, 102})
	if db.Rels[0].Card() != before {
		t.Error("mutating a clone changed the original")
	}
	if !c.Has(Tuple{101, 102}) {
		t.Error("clone insert lost")
	}
}

func TestDatabaseCloneIsShallowSnapshot(t *testing.T) {
	_, db := snapshotDB(t)
	snap := db.Clone()
	if snap == db {
		t.Fatal("Clone returned the receiver")
	}
	for i := range db.Rels {
		if snap.Rels[i] != db.Rels[i] {
			t.Errorf("Clone copied relation %d instead of sharing it", i)
		}
	}
	snap.Rels[0] = New(db.D.U, db.D.Rels[0])
	if db.Rels[0] == snap.Rels[0] {
		t.Error("replacing a clone slot aliased the original slice")
	}
}

func TestInsertTupleCopyOnWrite(t *testing.T) {
	_, db := snapshotDB(t)
	db.Freeze()
	before := db.Rels[1].Card()
	tup := Tuple{77, 78}
	if db.Rels[1].Has(tup) {
		t.Fatal("test tuple already present")
	}
	db2 := db.InsertTuple(1, tup)
	if db.Rels[1].Card() != before || db.Rels[1].Has(tup) {
		t.Error("InsertTuple mutated the original snapshot")
	}
	if !db2.Rels[1].Has(tup) || db2.Rels[1].Card() != before+1 {
		t.Error("InsertTuple result missing the tuple")
	}
	if db2.Rels[0] != db.Rels[0] {
		t.Error("InsertTuple copied an untouched relation")
	}
	// The derived snapshot can be frozen and published in turn.
	db2.Freeze()
	if !db2.Rels[1].Frozen() {
		t.Error("derived snapshot did not freeze")
	}
}

func TestWithRelationSchemaMismatchPanics(t *testing.T) {
	_, db := snapshotDB(t)
	defer func() {
		if recover() == nil {
			t.Error("WithRelation with wrong schema did not panic")
		}
	}()
	db.WithRelation(0, New(db.D.U, db.D.Rels[1]))
}
