package storage

import (
	"fmt"

	"gyokit/internal/relation"
	"gyokit/internal/schema"
)

// Kind discriminates logical mutation records.
type Kind uint8

// The mutation kinds written to the WAL. Values are part of the on-disk
// format and must never be renumbered.
const (
	KindInsert Kind = 1 // insert a tuple batch into relation Rel
	KindDelete Kind = 2 // delete a tuple batch from relation Rel
	KindCreate Kind = 3 // append a new (empty) relation with Attrs
	KindDrop   Kind = 4 // remove relation Rel from the schema
	KindCursor Kind = 5 // no-op replication cursor mark (see CursorMark)
)

func (k Kind) String() string {
	switch k {
	case KindInsert:
		return "insert"
	case KindDelete:
		return "delete"
	case KindCreate:
		return "create"
	case KindDrop:
		return "drop"
	case KindCursor:
		return "cursor"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Mutation is one logical mutation of a Database: the unit the WAL
// records and replays, and the argument of the engine's durable write
// path. A slice of Mutations applied together forms one atomic batch —
// the WAL writes the whole batch as a single record, so recovery never
// observes half a batch.
type Mutation struct {
	Kind Kind
	// Rel is the target relation index (Insert/Delete/Drop).
	Rel int
	// Width is the tuple arity of Values (Insert/Delete); it must match
	// the target relation's width when applied.
	Width int
	// Values is the row-major tuple batch (Insert/Delete):
	// len(Values)/Width tuples in the relation's column order.
	Values []relation.Value
	// Attrs names the attribute set of the new relation (Create).
	Attrs []string
	// Cursor is the leader WAL position this record covers (Cursor
	// marks only).
	Cursor Cursor
}

// Insert returns an insert-batch mutation for relation rel from tuples
// in column order. All tuples must have arity width. Width 0 is the
// degenerate zero-attribute relation: the batch means "the empty
// tuple" (set semantics make any count equivalent to one).
func Insert(rel, width int, tuples []relation.Tuple) Mutation {
	return Mutation{Kind: KindInsert, Rel: rel, Width: width, Values: flatten(width, tuples)}
}

// Delete returns a delete-batch mutation for relation rel.
func Delete(rel, width int, tuples []relation.Tuple) Mutation {
	return Mutation{Kind: KindDelete, Rel: rel, Width: width, Values: flatten(width, tuples)}
}

// Create returns a mutation appending a new empty relation over the
// given attribute names to the schema.
func Create(attrs ...string) Mutation {
	return Mutation{Kind: KindCreate, Attrs: attrs}
}

// Drop returns a mutation removing relation rel from the schema.
func Drop(rel int) Mutation {
	return Mutation{Kind: KindDrop, Rel: rel}
}

// CursorMark returns a no-op mutation recording a replication cursor.
// A follower appends one as the last mutation of every batch it
// re-logs from its leader: the mark rides in the same atomic WAL
// record as the batch, so recovery replays data and cursor together
// and ReplayedCursor reports exactly how far the recovered state
// reaches — without it a batch could be re-fetched and re-applied,
// which Create/Drop do not tolerate.
func CursorMark(c Cursor) Mutation {
	return Mutation{Kind: KindCursor, Cursor: c}
}

// CreatesFor returns one Create mutation per relation schema of d,
// naming attributes through d's universe — the standard way to seed an
// empty store from a parsed schema.
func CreatesFor(d *schema.Schema) []Mutation {
	out := make([]Mutation, len(d.Rels))
	for i, r := range d.Rels {
		names := make([]string, 0, r.Card())
		for _, a := range r.Attrs() {
			names = append(names, d.U.Name(a))
		}
		out[i] = Create(names...)
	}
	return out
}

func flatten(width int, tuples []relation.Tuple) []relation.Value {
	out := make([]relation.Value, 0, width*len(tuples))
	for _, t := range tuples {
		out = append(out, t...)
	}
	return out
}

// Rows returns the number of tuples in an Insert/Delete batch. A
// zero-width batch always denotes the single empty tuple.
func (m Mutation) Rows() int {
	if m.Width <= 0 {
		return 1
	}
	return len(m.Values) / m.Width
}

// validate checks m against db without applying it.
func (m Mutation) validate(db *relation.Database) error {
	switch m.Kind {
	case KindInsert, KindDelete:
		if m.Rel < 0 || m.Rel >= len(db.Rels) {
			return fmt.Errorf("storage: %s: relation %d out of range (schema has %d)", m.Kind, m.Rel, len(db.Rels))
		}
		if m.Width < 0 {
			return fmt.Errorf("storage: %s: negative width %d", m.Kind, m.Width)
		}
		if w := len(db.Rels[m.Rel].Cols()); m.Width != w {
			return fmt.Errorf("storage: %s: width %d ≠ relation width %d", m.Kind, m.Width, w)
		}
		if m.Width == 0 {
			if len(m.Values) != 0 {
				return fmt.Errorf("storage: %s: zero-width batch with %d values", m.Kind, len(m.Values))
			}
		} else if len(m.Values)%m.Width != 0 {
			return fmt.Errorf("storage: %s: %d values not a multiple of width %d", m.Kind, len(m.Values), m.Width)
		}
	case KindCreate:
		// Zero attributes is allowed: the paper's schemas may contain
		// the empty relation schema ∅.
		seen := make(map[string]bool, len(m.Attrs))
		for _, a := range m.Attrs {
			if a == "" {
				return fmt.Errorf("storage: create with empty attribute name")
			}
			if seen[a] {
				return fmt.Errorf("storage: create with duplicate attribute %q", a)
			}
			seen[a] = true
		}
	case KindDrop:
		if m.Rel < 0 || m.Rel >= len(db.Rels) {
			return fmt.Errorf("storage: drop: relation %d out of range (schema has %d)", m.Rel, len(db.Rels))
		}
	case KindCursor:
		// No state to check: the mark is a pure annotation.
	default:
		return fmt.Errorf("storage: unknown mutation kind %d", m.Kind)
	}
	return nil
}

// encodable checks m against the codec's decode caps: anything Append
// accepts must decode on replay, otherwise an acknowledged batch would
// read as a torn tail and be silently dropped by recovery.
func (m Mutation) encodable() error {
	switch m.Kind {
	case KindInsert, KindDelete:
		if m.Rel < 0 || m.Rel > maxRelations {
			return fmt.Errorf("storage: %s: relation index %d exceeds codec cap %d", m.Kind, m.Rel, maxRelations)
		}
		if m.Width < 0 || m.Width > maxNames {
			return fmt.Errorf("storage: %s: width %d exceeds codec cap %d", m.Kind, m.Width, maxNames)
		}
		// The encoder writes rows = len(Values)/Width then all Values;
		// a ragged batch would produce trailing bytes the decoder
		// rejects, so it must never reach the file.
		if m.Width == 0 && len(m.Values) != 0 {
			return fmt.Errorf("storage: %s: zero-width batch with %d values", m.Kind, len(m.Values))
		}
		if m.Width > 0 && len(m.Values)%m.Width != 0 {
			return fmt.Errorf("storage: %s: %d values not a multiple of width %d", m.Kind, len(m.Values), m.Width)
		}
	case KindCreate:
		if len(m.Attrs) > maxNames {
			return fmt.Errorf("storage: create with %d attributes exceeds codec cap %d", len(m.Attrs), maxNames)
		}
		for _, a := range m.Attrs {
			if len(a) > maxNameLen {
				return fmt.Errorf("storage: attribute name of %d bytes exceeds codec cap %d", len(a), maxNameLen)
			}
		}
	case KindDrop:
		if m.Rel < 0 || m.Rel > maxRelations {
			return fmt.Errorf("storage: drop: relation index %d exceeds codec cap %d", m.Rel, maxRelations)
		}
	case KindCursor:
		if m.Cursor.Off < 0 {
			return fmt.Errorf("storage: cursor mark with negative offset %d", m.Cursor.Off)
		}
	default:
		return fmt.Errorf("storage: unknown mutation kind %d", m.Kind)
	}
	return nil
}

// Apply applies m to db copy-on-write: db (typically a frozen snapshot)
// is unchanged, and the returned database shares every untouched
// relation state. n reports the tuples actually inserted or deleted
// (set semantics make both idempotent), or 0 for schema mutations.
func (m Mutation) Apply(db *relation.Database) (out *relation.Database, n int, err error) {
	return m.apply(db, false)
}

// apply is Apply with an in-place mode for recovery replay, where db is
// private and unfrozen and per-record copy-on-write would make replay
// cost a relation copy per record.
func (m Mutation) apply(db *relation.Database, inPlace bool) (*relation.Database, int, error) {
	if err := m.validate(db); err != nil {
		return nil, 0, err
	}
	switch m.Kind {
	case KindInsert, KindDelete:
		r := db.Rels[m.Rel]
		if !inPlace {
			r = r.Clone()
		}
		n := 0
		switch {
		case m.Width > 0 && m.Kind == KindInsert:
			// Bulk paths: the batch is already row-major, so it feeds the
			// arena (or, for a delete, probes the relation's own index)
			// without materializing per-row Tuple headers.
			n = r.InsertBlock(m.Values)
		case m.Width > 0:
			n = r.DeleteBlock(m.Values)
		case m.Kind == KindInsert:
			before := r.Card()
			r.Insert(relation.Tuple{})
			n = r.Card() - before
		default:
			// Removing the empty tuple leaves the empty relation.
			n = r.Card()
			r = relation.New(r.U, r.Attrs())
		}
		if inPlace {
			db.Rels[m.Rel] = r
			return db, n, nil
		}
		return db.WithRelation(m.Rel, r), n, nil
	case KindCreate:
		u := db.D.U
		ids := make([]schema.Attr, len(m.Attrs))
		for i, name := range m.Attrs {
			ids[i] = u.Attr(name)
		}
		set := schema.NewAttrSet(ids...)
		if !inPlace {
			db = db.Clone()
		}
		db.D = db.D.WithRel(set)
		db.Rels = append(db.Rels, relation.New(u, set))
		return db, 0, nil
	case KindDrop:
		if !inPlace {
			db = db.Clone()
		}
		db.D = db.D.RemoveAt(m.Rel)
		db.Rels = append(db.Rels[:m.Rel:m.Rel], db.Rels[m.Rel+1:]...)
		return db, 0, nil
	case KindCursor:
		return db, 0, nil
	}
	panic("unreachable")
}

// ApplyAll applies the batch in order, copy-on-write, returning the
// resulting database and per-mutation affected-tuple counts. On error
// nothing is returned: a batch is all-or-nothing for the caller (the
// intermediate databases are garbage-collected).
func ApplyAll(db *relation.Database, muts []Mutation) (*relation.Database, []int, error) {
	counts := make([]int, len(muts))
	for i, m := range muts {
		var err error
		db, counts[i], err = m.Apply(db)
		if err != nil {
			return nil, nil, fmt.Errorf("mutation %d: %w", i, err)
		}
	}
	return db, counts, nil
}
