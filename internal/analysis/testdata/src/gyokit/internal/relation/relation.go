// Package relation is the analysistest stand-in for the real columnar
// engine: same method names and freezing contract, no implementation.
// The analyzers match by package name + method name, so fixtures
// exercise exactly the code paths the real tree does.
package relation

// Tuple mirrors the real row type.
type Tuple []int

// Relation mirrors the real arena-backed relation state.
type Relation struct {
	frozen bool
}

// New returns a fresh mutable relation.
func New() *Relation { return &Relation{} }

// Freeze marks the relation immutable.
func (r *Relation) Freeze() { r.frozen = true }

// Insert adds one tuple in place.
func (r *Relation) Insert(t Tuple) {}

// InsertBlock bulk-adds rows in place.
func (r *Relation) InsertBlock(data []int) int { return 0 }

// InsertMap adds one named-column tuple in place.
func (r *Relation) InsertMap(m map[string]int) {}

// DeleteBlock bulk-removes rows in place.
func (r *Relation) DeleteBlock(data []int) int { return 0 }

// AppendStored appends checkpointed rows in place.
func (r *Relation) AppendStored(block []int, dead []int32) error { return nil }

// Without derives a copy with the tuples removed.
func (r *Relation) Without(ts []Tuple) (*Relation, int) { return &Relation{}, 0 }

// SetChunkID restamps a chunk id in place.
func (r *Relation) SetChunkID(i int, id uint64) {}

// Renamed returns a frozen identity view.
func (r *Relation) Renamed() *Relation { return r }

// Clone returns a fresh mutable copy.
func (r *Relation) Clone() *Relation { return &Relation{} }

// Card is a read-only accessor.
func (r *Relation) Card() int { return 0 }

// Database mirrors the snapshot container.
type Database struct {
	Rels []*Relation
	Univ *Relation
}

// Freeze marks every relation state immutable.
func (db *Database) Freeze() {}

// Clone returns a shallow snapshot.
func (db *Database) Clone() *Database { return &Database{Rels: db.Rels, Univ: db.Univ} }

// WithRelation derives a copy-on-write snapshot.
func (db *Database) WithRelation(i int, r *Relation) *Database { return db.Clone() }

// InsertTuple derives a copy-on-write snapshot with t inserted.
func (db *Database) InsertTuple(i int, t Tuple) *Database { return db.Clone() }
