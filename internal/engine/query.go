package engine

import (
	"fmt"

	"gyokit/internal/cq"
	"gyokit/internal/relation"
	"gyokit/internal/schema"
)

// PrepareQuery parses, classifies, and plans a conjunctive query (see
// internal/cq for the grammar), caching the compiled plan in the same
// LRU the schema-set path uses. The cache key is a fingerprint of the
// query's canonical text, so whitespace variants of one query share an
// entry; hits are verified by comparing canonical texts, so a
// fingerprint collision degrades to a miss, never to a wrong plan.
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
	canonical := q.String()
	a, b := cq.Fingerprint(canonical)
	key := cacheKey{schemaFP: a, targetFP: b}
	if e.cache != nil {
		e.mu.Lock()
		pl, ok := e.cache.get(key)
		e.mu.Unlock()
		if ok && pl.CQ != nil && pl.CQ.Canonical == canonical {
			e.hits.Add(1)
			e.m.planHits.Inc()
			return pl, true, nil
		}
	}
	e.misses.Add(1)
	e.m.planMisses.Inc()
	c, err := q.Compile()
	if err != nil {
		return nil, false, err
	}
	pl := &Plan{D: c.D, X: c.Head, Cls: c.Cls, Prog: c.Prog, CQ: c, key: key}
	e.storePlan(key, pl)
	if ctr := e.m.cqPlans[c.Kind.String()]; ctr != nil {
		ctr.Inc()
	}
	return pl, false, nil
}

// bindQuery builds the per-query database the compiled program runs
// over: for each body atom, the stored relation its predicate denotes,
// renamed onto the query's variable universe. Resolution is by name
// against the snapshot's universe, lookup only.
func bindQuery(c *cq.Compiled, db *relation.Database) (*relation.Database, error) {
	su := db.D.U
	rels := make([]*relation.Relation, len(c.Atoms))
	for i := range c.Atoms {
		at := &c.Atoms[i]
		ids := make([]schema.Attr, len(at.Attrs))
		var set schema.AttrSet
		for p, name := range at.Attrs {
			id, ok := su.Lookup(name)
			if !ok {
				return nil, fmt.Errorf("engine: atom %s: attribute %q not in serving schema", at.Pred, name)
			}
			ids[p] = id
			set = set.Add(id)
		}
		idx := -1
		for j, r := range db.D.Rels {
			if r.Equal(set) {
				idx = j
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("engine: relation %q not in serving schema %s", at.Pred, db.D)
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
