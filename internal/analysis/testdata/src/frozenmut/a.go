// Fixture: frozenmut positive findings.
package frozenmut

import (
	"gyokit/internal/engine"
	"gyokit/internal/relation"
)

func mutateAfterFreeze() {
	r := relation.New()
	r.Insert(relation.Tuple{1}) // legal: not frozen yet
	r.Freeze()
	r.Insert(relation.Tuple{2})         // want `Insert called on a frozen snapshot value`
	r.InsertBlock([]int{1, 2})          // want `InsertBlock called on a frozen snapshot value`
	r.InsertMap(map[string]int{"a": 1}) // want `InsertMap called on a frozen snapshot value`
	r.SetChunkID(0, 7)                  // want `SetChunkID called on a frozen snapshot value`
}

func deleteFromSnapshot(e *engine.Engine) {
	db := e.Snapshot()
	db.Rels[0].DeleteBlock([]int{1, 2})        // want `DeleteBlock called on a frozen snapshot value`
	_ = db.Rels[0].AppendStored([]int{1}, nil) // want `AppendStored called on a frozen snapshot value`
}

func mutateSnapshot(e *engine.Engine) {
	db := e.Snapshot()
	db.Rels[0].Insert(relation.Tuple{1}) // want `Insert called on a frozen snapshot value`
	db.Univ.Insert(relation.Tuple{1})    // want `Insert called on a frozen snapshot value`
}

func mutateRenamedView(r *relation.Relation) {
	v := r.Renamed()
	v.Insert(relation.Tuple{1})           // want `Insert called on a frozen snapshot value`
	r.Renamed().Insert(relation.Tuple{2}) // want `Insert called on a frozen snapshot value`
}

func mutateAlias(e *engine.Engine) {
	db := e.Snapshot()
	alias := db
	alias.Rels[0].Insert(relation.Tuple{1}) // want `Insert called on a frozen snapshot value`
}
