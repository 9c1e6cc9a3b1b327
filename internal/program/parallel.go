package program

import (
	"fmt"
	"time"

	"gyokit/internal/relation"
	"gyokit/internal/schema"
)

// EvalPar runs the program partition-parallel: join and semijoin
// statements whose operands are large enough are executed shard-local
// across pe's workers, with relations hash-partitioned on the
// statement's shared attributes.
//
// The partitioning discipline mirrors the way a distributed full
// reducer would shard (Kolaitis's semijoin passes, Greco–Scarcello's
// local-consistency unit): each relation id carries at most one live
// partitioning; a statement whose join key equals that key runs with
// zero repartitioning, otherwise the operand is repartitioned on
// demand (directly shard-to-shard, never through a merged
// intermediate). Results of parallel statements stay partitioned —
// they are merged into a plain relation only when a serial statement,
// an incompatible projection, or the final answer needs one.
//
// EvalPar returns exactly the relation Eval would (relations are sets;
// differential tests assert Equal against the serial path), and the
// same Stats totals, with per-statement Shards and the run's
// ParallelStmts/Repartitions counters recording what actually fanned
// out. Like EvalExec it never mutates db; pe is exclusive to one run.
func (p *Program) EvalPar(db *relation.Database, pe *relation.ParExec) (*relation.Relation, *Stats, error) {
	return p.EvalParLimits(db, pe, Limits{})
}

// EvalParLimits is EvalPar bounded by lim, with the same semantics as
// EvalExecLimits: both rails are checked at every statement boundary
// (parallel statements are never interrupted mid-flight — the overshoot
// is bounded by one statement), a violation aborts with a *LimitError,
// and the aborted run leaves no partial state. It also stops at the
// same statement EvalExecLimits would once the answer is known to be
// empty.
func (p *Program) EvalParLimits(db *relation.Database, pe *relation.ParExec, lim Limits) (*relation.Relation, *Stats, error) {
	if pe.P() <= 1 {
		return p.EvalExecLimits(db, pe.Serial(), lim)
	}
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if !db.D.MultisetEqual(p.D) {
		return nil, nil, fmt.Errorf("program: database schema %s ≠ program schema %s", db.D, p.D)
	}
	if len(p.Stmts) == 0 {
		return nil, nil, fmt.Errorf("program: empty program has no result")
	}
	enforce := lim.active()
	if enforce {
		if err := lim.check(0, 0); err != nil {
			return nil, nil, err
		}
	}

	n := len(db.Rels)
	ids := p.NumIDs()
	// Each id holds its value in exactly one live form at a time:
	// vals[id] (plain relation) or parts[id] (partitioned). attrsOf is
	// tracked incrementally so neither form is needed to plan a
	// statement.
	vals := make([]*relation.Relation, ids)
	copy(vals, db.Rels)
	parts := make([]*relation.Partitioning, ids)
	attrsOf := make([]schema.AttrSet, ids)
	for i, r := range db.Rels {
		attrsOf[i] = r.Attrs()
	}

	needed := p.answerDeps()
	st := &Stats{}
	cardOf := func(id int) int {
		if vals[id] != nil {
			return vals[id].Card()
		}
		return parts[id].Card()
	}
	materialize := func(id int) *relation.Relation {
		if vals[id] == nil {
			vals[id] = parts[id].Merge()
		}
		return vals[id]
	}
	// ensurePart returns id's value partitioned on key, reusing the
	// live partitioning when its key already matches (the zero-traffic
	// case) and repartitioning on demand otherwise.
	ensurePart := func(id int, key schema.AttrSet) *relation.Partitioning {
		if pt := parts[id]; pt != nil && pt.Key.Equal(key) {
			return pt
		}
		var pt *relation.Partitioning
		if vals[id] != nil {
			pt = pe.Partition(vals[id], key)
		} else {
			pt = pe.Repartition(parts[id], key)
		}
		parts[id] = pt
		st.Repartitions++
		st.RepartitionBytes += pt.Bytes()
		return pt
	}
	setPart := func(id int, pt *relation.Partitioning) {
		parts[id] = pt
		vals[id] = nil
	}

	start := time.Now()
	for si, s := range p.Stmts {
		id := n + si
		d := StmtStat{Kind: s.Kind, InLeft: cardOf(s.Left), InRight: -1}
		t0 := time.Now()
		switch s.Kind {
		case Join, Semijoin:
			d.InRight = cardOf(s.Right)
			key := attrsOf[s.Left].Intersect(attrsOf[s.Right])
			if key.IsEmpty() || d.InLeft+d.InRight < pe.MinParallel {
				// Cross products cannot be sharded without replication;
				// small statements are not worth the fan-out.
				l, r := materialize(s.Left), materialize(s.Right)
				if s.Kind == Join {
					vals[id] = pe.Serial().Join(l, r)
				} else {
					vals[id] = pe.Serial().Semijoin(l, r)
				}
			} else {
				pl := ensurePart(s.Left, key)
				pr := ensurePart(s.Right, key)
				if s.Kind == Join {
					setPart(id, pe.JoinPar(pl, pr))
				} else {
					setPart(id, pe.SemijoinPar(pl, pr))
				}
				d.Shards = pe.P()
				st.ParallelStmts++
			}
			if s.Kind == Join {
				attrsOf[id] = attrsOf[s.Left].Union(attrsOf[s.Right])
			} else {
				attrsOf[id] = attrsOf[s.Left]
			}
		case Project:
			// Shard-local only when the operand is already partitioned
			// and the key survives the projection; repartitioning just
			// to project would cost as much as the projection itself.
			if pt := parts[s.Left]; vals[s.Left] == nil && !pt.Key.IsEmpty() && pt.Key.SubsetOf(s.Proj) {
				setPart(id, pe.ProjectPar(pt, s.Proj))
				d.Shards = pe.P()
				st.ParallelStmts++
			} else {
				vals[id] = pe.Serial().Project(materialize(s.Left), s.Proj)
			}
			attrsOf[id] = s.Proj.Clone()
		}
		d.Elapsed = time.Since(t0)
		d.Out = cardOf(id)
		st.record(d)
		if enforce {
			if err := lim.check(si, st.TuplesProduced); err != nil {
				return nil, nil, err
			}
		}
		if d.Out == 0 && needed[id] {
			return p.skipRest(st, si+1, start), st, nil
		}
	}
	out := materialize(ids - 1)
	st.Elapsed = time.Since(start)
	return out, st, nil
}
