package cq

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"gyokit/internal/core"
	"gyokit/internal/schema"
)

// Kind is the planner's plan-shape classification (core.Kind): the query
// hypergraph is free-connex, acyclic but not free-connex, or cyclic.
type Kind = core.Kind

const (
	KindFreeConnex = core.KindFreeConnex
	KindAcyclic    = core.KindAcyclic
	KindCyclic     = core.KindCyclic
)

// AtomBinding records how one body atom addresses storage: the
// predicate as written (empty for a lowered atom, which never was), the
// stored attribute names it denotes (in written order), and the variable
// bound at each position. The engine resolves Attrs against its serving
// universe at evaluation time — the compiled query itself is
// schema-independent, so the plan cache never needs invalidating on
// schema change.
type AtomBinding struct {
	Pred  string
	Attrs []string      // stored attribute names, in the predicate's written order
	Vars  []schema.Attr // query-universe variable ids, positionally aligned with Attrs
	// Dup picks among stored relations over the same attribute set: the
	// atom reads the (Dup+1)-th in serving-schema order. A written atom
	// has 0 — a self-join reads the first stored ab twice — while Lower
	// numbers the repeats of a duplicated relation schema.
	Dup int
}

// Compiled is a fully planned conjunctive query. It is immutable once
// built and safe to share across concurrent evaluations.
type Compiled struct {
	Canonical string           // canonical text; the cache identity
	U         *schema.Universe // variable universe: per query, or the schema's own when lowered
	D         *schema.Schema   // query hypergraph: one variable set per body atom
	Head      schema.AttrSet   // output variables as a set
	HeadVars  []string         // head variables in written order (the response column order)
	HeadIDs   []schema.Attr    // ids of HeadVars, positionally aligned
	Atoms     []AtomBinding    // one per body atom, aligned with D.Rels
	// The planner's decision for (D, Head): Kind, Dec (the tree schema
	// the program runs over; on an acyclic plan Dec.Root indexes Atoms)
	// and Prog, which solves the query over per-atom states.
	*core.QueryPlan
}

// Compile parses and compiles one query text.
func Compile(text string) (*Compiled, error) {
	q, err := Parse(text)
	if err != nil {
		return nil, err
	}
	return q.Compile()
}

// Compile builds the query's hypergraph over a fresh variable universe
// and hands it to the planner (core.PlanQuery), which reduces it (GYO),
// decomposes it and emits the plan:
//
//   - free-connex (the hypergraph plus the head-variable hyperedge is
//     still a tree schema): answer-directed Yannakakis rooted by
//     program.AnswerRoot, so projections push below the joins and a
//     head inside one atom costs one semijoin per other atom;
//   - acyclic but not free-connex: the same program at the same root
//     rule — its joins carry the links between the head variables;
//   - cyclic: the paper's §4 strategy — materialize ∪GR of the
//     hypergraph, then the same program over the tree that leaves.
func (q *Query) Compile() (*Compiled, error) {
	u := schema.NewUniverse()
	d := schema.New(u)
	atoms := make([]AtomBinding, len(q.Body))
	for i := range q.Body {
		a := &q.Body[i]
		names, err := predAttrs(a)
		if err != nil {
			return nil, err
		}
		if len(names) != len(a.Args) {
			return nil, errAt(a.Pos, "predicate %q has %d attributes (%s) but %d arguments",
				a.Pred, len(names), strings.Join(names, ", "), len(a.Args))
		}
		vars := make([]schema.Attr, len(a.Args))
		var set schema.AttrSet
		for p, v := range a.Args {
			id := u.Attr(v.Name)
			vars[p] = id
			set = set.Add(id)
		}
		d.Add(set)
		atoms[i] = AtomBinding{Pred: a.Pred, Attrs: names, Vars: vars}
	}
	headIDs := make([]schema.Attr, len(q.Head.Args))
	headVars := make([]string, len(q.Head.Args))
	for p, v := range q.Head.Args {
		id, ok := u.Lookup(v.Name)
		if !ok {
			// validate() guarantees safety; belt and braces.
			return nil, errAt(v.Pos, "unsafe head variable %s", v.Name)
		}
		headIDs[p] = id
		headVars[p] = v.Name
	}
	return plan(&Compiled{Canonical: q.String(), U: u, D: d, HeadVars: headVars, HeadIDs: headIDs, Atoms: atoms})
}

// predAttrs maps a predicate name to the attribute names of the stored
// relation it addresses, mirroring the schema parser's two styles: a
// name without underscores is the paper's compact style (one
// single-rune attribute per rune: "ab" → a, b), and underscores play
// the role of the schema text's spaces ("user_id" → user, id).
func predAttrs(a *Atom) ([]string, error) {
	var names []string
	if strings.Contains(a.Pred, "_") {
		for _, f := range strings.Split(a.Pred, "_") {
			if f == "" {
				return nil, errAt(a.Pos, "bad predicate %q: empty attribute name around \"_\"", a.Pred)
			}
			names = append(names, f)
		}
	} else {
		for _, r := range a.Pred {
			names = append(names, string(r))
		}
	}
	for i, n := range names {
		for j := 0; j < i; j++ {
			if names[j] == n {
				return nil, errAt(a.Pos, "predicate %q repeats attribute %q", a.Pred, n)
			}
		}
	}
	return names, nil
}

// plan fills in c's head set and asks the planner for the program
// solving (D, Head).
func plan(c *Compiled) (*Compiled, error) {
	c.Head = schema.NewAttrSet(c.HeadIDs...)
	var err error
	if c.QueryPlan, err = core.PlanQuery(c.D, c.Head); err != nil {
		return nil, err
	}
	return c, nil
}

// Lower compiles the schema solve (d, x) as the conjunctive query it
// already is: one atom per relation of d, one variable per attribute,
// head x. It is built directly rather than through query text, which
// cannot spell a one-attribute relation named "user", an empty relation
// schema, or more than MaxBodyAtoms relations.
//
// The variables are d's attributes themselves — same universe, same ids,
// relations in d's order — so the answer's columns are x's, and binding
// to a snapshot whose universe interned those names in that order (the
// serving case) renames nothing. canonical is LoweredText(d, x), which a
// caller that looked the plan up first has already built.
func Lower(canonical string, d *schema.Schema, x schema.AttrSet) (*Compiled, error) {
	names := func(ids []schema.Attr) []string {
		out := make([]string, len(ids))
		for i, a := range ids {
			out[i] = d.U.Name(a)
		}
		return out
	}
	atoms := make([]AtomBinding, len(d.Rels))
	for i, r := range d.Rels {
		vars := r.Attrs()
		atoms[i] = AtomBinding{Attrs: names(vars), Vars: vars}
		for _, prev := range d.Rels[:i] {
			if prev.Equal(r) {
				atoms[i].Dup++
			}
		}
	}
	headIDs := x.Attrs()
	return plan(&Compiled{Canonical: canonical, U: d.U, D: d.Clone(), HeadVars: names(headIDs), HeadIDs: headIDs, Atoms: atoms})
}

// LoweredText is the canonical text of the schema solve (d, x), the key
// its plan is cached under. It spells what the plan's attribute sets
// depend on — the id and the name of every attribute of x and of each
// relation schema — so two universes share a plan only when they agree
// on both ("ab, cd" interned a, b, c, d and "cd, ab" interned c, d, a, b
// have equal bitsets and do not). Relations are listed after "|", each
// as " " + its attributes, sorted by that text, so permutations of one
// schema share a plan. No written query's canonical text starts with "@".
func LoweredText(d *schema.Schema, x schema.AttrSet) string {
	text := make([]byte, 0, 16*len(d.Rels))
	segs := make([][]byte, len(d.Rels))
	for i, r := range d.Rels {
		start := len(text)
		text = appendAttrs(text, d.U, r)
		segs[i] = text[start:len(text):len(text)]
	}
	slices.SortFunc(segs, bytes.Compare)
	b := append(make([]byte, 0, 32+24*len(d.Rels)), "@solve "...)
	b = append(appendAttrs(b, d.U, x), '|')
	for _, seg := range segs {
		b = append(append(b, ' '), seg...)
	}
	return string(b)
}

// appendAttrs appends the attributes of s in ascending id order, each as
// id=len:name followed by a comma. Names are length-prefixed, so the
// text is injective whatever bytes a name holds.
func appendAttrs(b []byte, u *schema.Universe, s schema.AttrSet) []byte {
	s.ForEach(func(a schema.Attr) bool {
		name := u.Name(a)
		b = append(strconv.AppendUint(b, uint64(a), 10), '=')
		b = append(strconv.AppendUint(b, uint64(len(name)), 10), ':')
		b = append(append(b, name...), ',')
		return true
	})
	return b
}

// MustCompile is Compile that panics on error; for tests and examples.
func MustCompile(text string) *Compiled {
	c, err := Compile(text)
	if err != nil {
		panic(fmt.Sprintf("cq: %v", err))
	}
	return c
}
