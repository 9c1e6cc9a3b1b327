// Fixture: the no-false-positive corpus, mirroring the real engine's
// copy-on-write idioms (Database.InsertTuple, Engine.Apply).
package frozenmut

import (
	"gyokit/internal/engine"
	"gyokit/internal/relation"
)

func cloneThenMutate(e *engine.Engine) {
	db := e.Snapshot()
	r := db.Rels[0].Clone() // Clone yields a fresh mutable copy
	r.Insert(relation.Tuple{1})
	next := db.WithRelation(0, r) // copy-on-write derivation is legal
	next.Freeze()
	e.Swap(next)
}

func copyOnWriteMutators(e *engine.Engine) {
	db := e.Snapshot()
	_ = db.InsertTuple(0, relation.Tuple{1}) // derives a snapshot, mutates nothing
	_ = db.WithRelation(0, relation.New())
	_ = db.Rels[0].Card() // reads on frozen values are fine
}

func deleteCopyOnWrite(e *engine.Engine) {
	db := e.Snapshot()
	r := db.Rels[0].Clone()
	r.DeleteBlock([]int{1, 2}) // the clone is private
	less, _ := db.Rels[0].Without([]relation.Tuple{{1}})
	less.DeleteBlock([]int{3}) // Without derives a fresh relation, like Clone
	_ = db.WithRelation(0, r)
}

func replayInPlace() {
	r := relation.New()
	r.InsertBlock([]int{1, 2})
	r.DeleteBlock([]int{1}) // recovery's private database: never frozen
	_ = r.AppendStored([]int{3}, nil)
}

func freshRelations() {
	r := relation.New()
	r.Insert(relation.Tuple{1})
	r.InsertBlock([]int{1})
	s := r.Clone()
	s.Insert(relation.Tuple{2})
}

func reassignedToFresh(e *engine.Engine) {
	db := e.Snapshot()
	db = &relation.Database{} // rebound to a fresh value: mutable again
	db.Univ = relation.New()
	db.Univ.Insert(relation.Tuple{1})
}
