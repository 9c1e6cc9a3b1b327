package engine

import (
	"fmt"
	"strings"

	"gyokit/internal/cq"
	"gyokit/internal/relation"
	"gyokit/internal/schema"
)

// PrepareQuery parses and plans a conjunctive query (see
// internal/cq for the grammar), caching the compiled plan in the same
// LRU the schema-set path uses. The cache key is the query's canonical
// text, so whitespace variants of one query share an entry.
//
// The compiled plan is schema-independent — atoms bind to stored
// relations by name at solve time — so cached query plans never go
// stale when the serving snapshot changes.
func (e *Engine) PrepareQuery(text string) (*Plan, error) {
	pl, _, err := e.prepareQuery(text)
	return pl, err
}

// prepareQuery is PrepareQuery plus the cache-outcome flag, the
// counterpart of plan.
func (e *Engine) prepareQuery(text string) (*Plan, bool, error) {
	q, err := cq.Parse(text)
	if err != nil {
		return nil, false, err
	}
	return e.prepare(q.String(), func() (*Plan, error) { return e.compiled(q.Compile()) })
}

// bind builds the database the compiled program runs over: for each
// body atom, the stored relation its predicate denotes, renamed onto
// the query's variable universe. Resolution is by name against the
// snapshot's universe, lookup only — client queries never grow the
// serving universe — so db may list its relations in any order and hold
// more of them than the query reads.
func bind(c *cq.Compiled, db *relation.Database) (*relation.Database, error) {
	su := db.D.U
	rels := make([]*relation.Relation, len(c.Atoms))
	for i := range c.Atoms {
		at := &c.Atoms[i]
		ids := make([]schema.Attr, len(at.Attrs))
		for p, name := range at.Attrs {
			var ok bool
			if ids[p], ok = su.Lookup(name); !ok {
				return nil, fmt.Errorf("engine: attribute %q of relation %q not in serving schema", name, strings.Join(at.Attrs, " "))
			}
		}
		set := schema.NewAttrSet(ids...)
		// The atom reads the (Dup+1)-th stored relation over set.
		idx, skip := -1, at.Dup
		for j, r := range db.D.Rels {
			if r.Equal(set) {
				if skip == 0 {
					idx = j
					break
				}
				skip--
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("engine: relation %q (occurrence %d) not in serving schema %s", su.FormatSet(set), at.Dup+1, db.D)
		}
		stored := db.Rels[idx]
		// src[k] is the stored column feeding query column k. Query
		// columns are the atom's variables in sorted-id order; the
		// variable at predicate position p binds serving attribute
		// ids[p], stored at that attribute's sorted position.
		qcols := c.D.Rels[i].Attrs()
		scols := stored.Cols()
		src := make([]int, len(qcols))
		for k, v := range qcols {
			p := indexOfAttr(at.Vars, v)
			src[k] = indexOfAttr(scols, ids[p])
		}
		rels[i] = stored.Renamed(c.U, c.D.Rels[i], src)
	}
	return &relation.Database{D: c.D, Rels: rels}, nil
}

// indexOfAttr returns the position of a in list (which always contains
// it by construction).
func indexOfAttr(list []schema.Attr, a schema.Attr) int {
	for i, v := range list {
		if v == a {
			return i
		}
	}
	panic("engine: attribute not in binding")
}
