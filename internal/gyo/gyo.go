// Package gyo implements the GYO (Graham–Yu–Ozsoyoglu) reduction of the
// paper's Section 3.3: repeatedly (1) delete an attribute A ∉ X that
// occurs in exactly one relation schema ("isolated attribute deletion"
// with the sacred set X) and (2) eliminate a relation schema contained
// in another ("subset elimination"), until neither applies.
//
// The fixpoint GR(D, X) is unique and reduced (Maier–Ullman); Reduce
// computes it and records a replayable Trace. State exposes single-step
// reduction so tests can exercise arbitrary partial reductions pGR(D, X)
// and verify confluence.
package gyo

import (
	"fmt"
	"slices"

	"gyokit/internal/schema"
)

// OpKind distinguishes the two GYO operations.
type OpKind int

const (
	// AttrDelete is operation (1): delete attribute Attr from relation Rel,
	// legal when Attr ∉ X and Rel is the only relation containing Attr.
	AttrDelete OpKind = iota
	// SubsetEliminate is operation (2): delete relation Rel, legal when
	// its current schema is a subset of relation Into's current schema.
	SubsetEliminate
)

// Op is a single GYO operation. Rel and Into are indexes into the
// original schema D (stable across the whole reduction).
type Op struct {
	Kind OpKind
	Rel  int
	Attr schema.Attr // meaningful for AttrDelete
	Into int         // meaningful for SubsetEliminate
}

func (o Op) String() string {
	switch o.Kind {
	case AttrDelete:
		return fmt.Sprintf("delete attr %d from R%d", o.Attr, o.Rel)
	case SubsetEliminate:
		return fmt.Sprintf("eliminate R%d ⊆ R%d", o.Rel, o.Into)
	default:
		return "invalid op"
	}
}

// Result is a (possibly partial) GYO reduction outcome.
type Result struct {
	Input *schema.Schema // the original D
	X     schema.AttrSet // the sacred attribute set
	GR    *schema.Schema // surviving relation schemas (reduced sets), in original order
	Alive []int          // original indexes of the surviving relation schemas
	Trace []Op           // the operations applied, in order
}

// Empty reports the paper's "GR(D) = ∅" convention: every surviving
// relation schema is empty (after full reduction at most one empty
// schema survives). For X = ∅ this is exactly the Corollary 3.1 tree
// test.
func (r *Result) Empty() bool {
	for _, rel := range r.GR.Rels {
		if !rel.IsEmpty() {
			return false
		}
	}
	return true
}

// Reduce computes the full GYO reduction GR(D, X).
func Reduce(d *schema.Schema, x schema.AttrSet) *Result {
	st := NewState(d, x)
	st.Run()
	return st.Result()
}

// ReduceFull computes GR(D) = GR(D, ∅).
func ReduceFull(d *schema.Schema) *Result {
	return Reduce(d, schema.AttrSet{})
}

// IsTree reports whether D is a tree schema, via Corollary 3.1:
// D is a tree schema iff GR(D) = ∅, i.e. iff the reduction deletes
// every attribute. It records no trace.
func IsTree(d *schema.Schema) bool {
	st := newState(d, schema.AttrSet{}, false)
	st.Run()
	return !slices.ContainsFunc(st.occ, func(c int) bool { return c > 0 })
}

// TreefyingRelation returns ∪(GR(D)), the relation schema of least
// cardinality whose addition turns D into a tree schema (Corollary 3.2).
// For a tree schema it returns the empty set.
func TreefyingRelation(d *schema.Schema) schema.AttrSet {
	return ReduceFull(d).GR.Attrs()
}

// State is a mutable partial-reduction state over a fixed input D and
// sacred set X. The zero value is not usable; construct with NewState.
// No schema is copied: operation (1) takes an attribute from the one
// alive relation holding it, for good, and operation (2) leaves each
// attribute it drops a holder, so an alive Rᵢ's current schema is Rᵢ
// less the attributes whose occurrence count has reached 0.
type State struct {
	input *schema.Schema
	x     schema.AttrSet
	occ   []int // occ[a] = number of alive relations containing a
	// in[start[a]:start[a+1]] lists the relations of D containing a, ascending.
	in, start []int
	alive     []bool
	dirty     []bool // lost an attribute since Run last looked for its superset
	absorbed  []bool // took in a subset since Run last looked for isolated attributes
	traced    bool
	trace     []Op
}

// NewState returns a fresh reduction state for (d, x).
func NewState(d *schema.Schema, x schema.AttrSet) *State { return newState(d, x, true) }

// newState is NewState; an untraced state records no Trace.
func newState(d *schema.Schema, x schema.AttrSet, traced bool) *State {
	n, m, total := len(d.Rels), d.U.Size(), 0
	for _, r := range d.Rels {
		total += r.Card()
	}
	ints, flags := make([]int, 2*m+1+total), make([]bool, 3*n)
	st := &State{
		input: d, x: x, traced: traced,
		occ: ints[:m:m], start: ints[m : 2*m+1 : 2*m+1], in: ints[2*m+1:],
		alive: flags[:n:n], dirty: flags[n : 2*n : 2*n], absorbed: flags[2*n:],
	}
	for i, r := range d.Rels {
		st.alive[i], st.dirty[i], st.absorbed[i] = true, true, true
		r.ForEach(func(a schema.Attr) bool {
			st.occ[a]++
			return true
		})
	}
	// start[a] counts up to the end of a's list, then filling D backwards
	// walks it down to the list's first slot.
	distinct := 0
	for a, c := range st.occ {
		st.start[a+1] = st.start[a] + c
		distinct += min(c, 1)
	}
	copy(st.start, st.start[1:])
	for i := n - 1; i >= 0; i-- {
		d.Rels[i].ForEach(func(a schema.Attr) bool {
			st.start[a]--
			st.in[st.start[a]] = i
			return true
		})
	}
	if traced { // each attribute is deleted, and each relation eliminated, at most once
		st.trace = make([]Op, 0, distinct+n)
	}
	return st
}

// within reports whether Rᵢ's current schema is contained in that of the
// alive relation Rⱼ: an attribute still in Rᵢ is still in every alive
// relation of D holding it.
func (st *State) within(i, j int) bool {
	ok := true
	st.input.Rels[i].ForEach(func(a schema.Attr) bool {
		ok = st.occ[a] == 0 || st.input.Rels[j].Has(a)
		return ok
	})
	return ok
}

// superset returns the first alive relation other than i whose current
// schema contains Rᵢ's, or −1. It holds every attribute of Rᵢ, so only
// the relations holding Rᵢ's rarest one are tried; an Rᵢ that lost
// every attribute is within the first alive relation.
func (st *State) superset(i int) int {
	rare := -1
	st.input.Rels[i].ForEach(func(a schema.Attr) bool {
		if st.occ[a] > 0 && (rare < 0 || st.start[a+1]-st.start[a] < st.start[rare+1]-st.start[rare]) {
			rare = int(a)
		}
		return true
	})
	if rare < 0 {
		for j, ok := range st.alive {
			if ok && j != i {
				return j
			}
		}
		return -1
	}
	for _, j := range st.in[st.start[rare]:st.start[rare+1]] {
		if j != i && st.alive[j] && st.within(i, j) {
			return j
		}
	}
	return -1
}

// deleted returns the attributes operation (1) has removed so far.
func (st *State) deleted() schema.AttrSet {
	gone := make([]schema.Attr, 0, len(st.trace))
	for _, op := range st.trace {
		if op.Kind == AttrDelete {
			gone = append(gone, op.Attr)
		}
	}
	return schema.NewAttrSet(gone...)
}

// Rel returns the current contents of relation i (empty if eliminated).
func (st *State) Rel(i int) schema.AttrSet {
	if !st.alive[i] {
		return schema.AttrSet{}
	}
	return st.input.Rels[i].Diff(st.deleted())
}

// AliveCount returns the number of surviving relation schemas.
func (st *State) AliveCount() int {
	n := 0
	for _, a := range st.alive {
		if a {
			n++
		}
	}
	return n
}

// Apply performs one operation, validating legality.
func (st *State) Apply(op Op) error {
	switch op.Kind {
	case AttrDelete:
		if op.Rel < 0 || op.Rel >= len(st.alive) || !st.alive[op.Rel] {
			return fmt.Errorf("gyo: attr delete on dead relation R%d", op.Rel)
		}
		if !st.input.Rels[op.Rel].Has(op.Attr) || st.occ[op.Attr] == 0 {
			return fmt.Errorf("gyo: R%d does not contain attribute %d", op.Rel, op.Attr)
		}
		if st.x.Has(op.Attr) {
			return fmt.Errorf("gyo: attribute %d is sacred", op.Attr)
		}
		if st.occ[op.Attr] != 1 {
			return fmt.Errorf("gyo: attribute %d occurs in %d relations", op.Attr, st.occ[op.Attr])
		}
	case SubsetEliminate:
		if op.Rel < 0 || op.Rel >= len(st.alive) || !st.alive[op.Rel] {
			return fmt.Errorf("gyo: subset elimination of dead relation R%d", op.Rel)
		}
		if op.Into < 0 || op.Into >= len(st.alive) || !st.alive[op.Into] || op.Into == op.Rel {
			return fmt.Errorf("gyo: invalid superset R%d", op.Into)
		}
		if !st.within(op.Rel, op.Into) {
			return fmt.Errorf("gyo: R%d ⊄ R%d", op.Rel, op.Into)
		}
	default:
		return fmt.Errorf("gyo: unknown op kind %d", op.Kind)
	}
	st.apply(op)
	return nil
}

// apply performs the legal operation op.
func (st *State) apply(op Op) {
	if op.Kind == AttrDelete {
		st.occ[op.Attr] = 0
		st.dirty[op.Rel] = true
	} else {
		st.alive[op.Rel] = false
		st.absorbed[op.Into] = true
		st.input.Rels[op.Rel].ForEach(func(a schema.Attr) bool {
			if st.occ[a] > 0 {
				st.occ[a]--
			}
			return true
		})
	}
	if st.traced {
		st.trace = append(st.trace, op)
	}
}

// Run applies operations until none is applicable, using a deterministic
// strategy: exhaust attribute deletions, then perform one round of
// subset eliminations (each relation into its first superset), and
// repeat. Confluence (Maier–Ullman uniqueness) guarantees the fixpoint
// is strategy-independent. A count drops to 1 only when a relation is
// eliminated, leaving its superset the one holder, so only relations
// that absorbed one are scanned for deletions; Rᵢ ⊆ Rⱼ can newly hold
// only once Rᵢ has lost an attribute (Rⱼ loses only ones Rᵢ lacks), so
// only those look for a superset. The order of visits, and so the
// Trace, is that of full rounds.
func (st *State) Run() {
	for progress := true; progress; {
		progress = false
		for i, r := range st.input.Rels {
			if !st.alive[i] || !st.absorbed[i] {
				continue
			}
			st.absorbed[i] = false
			r.ForEach(func(a schema.Attr) bool {
				if st.occ[a] == 1 && !st.x.Has(a) {
					st.apply(Op{Kind: AttrDelete, Rel: i, Attr: a})
					progress = true
				}
				return true
			})
		}
		for i := range st.alive {
			if !st.alive[i] || !st.dirty[i] {
				continue
			}
			st.dirty[i] = false
			if j := st.superset(i); j >= 0 {
				st.apply(Op{Kind: SubsetEliminate, Rel: i, Into: j})
				progress = true
			}
		}
	}
}

// Result snapshots the current state as a Result. The GR schema lists
// surviving relations in original order with their current contents;
// one that lost no attribute shares its set with D (sets are immutable).
// Trace shares the state's operations.
func (st *State) Result() *Result {
	alive := st.AliveCount()
	out := &Result{
		Input: st.input,
		X:     st.x,
		GR:    &schema.Schema{U: st.input.U, Rels: make([]schema.AttrSet, 0, alive)},
		Alive: make([]int, 0, alive),
		Trace: slices.Clip(st.trace),
	}
	gone := st.deleted()
	for i, r := range st.input.Rels {
		if st.alive[i] {
			if r.Intersects(gone) {
				r = r.Diff(gone)
			}
			out.GR.Rels = append(out.GR.Rels, r)
			out.Alive = append(out.Alive, i)
		}
	}
	return out
}
