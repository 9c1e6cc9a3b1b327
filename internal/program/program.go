// Package program implements the query-processing programs of the
// paper's §6: finite sequences of join, project, and semijoin
// statements, each creating a new relation. It provides an interpreter
// with cost accounting, the schema mapping P(D) used by the tree
// projection theorems (6.1–6.4), and the classical plan builders the
// paper's analysis applies to: CC-pruned join plans (Corollary 4.1),
// two-pass semijoin full reducers, and Yannakakis-style evaluation for
// tree schemas.
package program

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"gyokit/internal/graph"
	"gyokit/internal/relation"
	"gyokit/internal/schema"
)

// StmtKind is the statement type of §6.
type StmtKind int

const (
	// Join: Rk := R_left ⋈ R_right.
	Join StmtKind = iota
	// Project: Rk := π_Proj(R_left).
	Project
	// Semijoin: Rk := R_left ⋉ R_right.
	Semijoin
)

func (k StmtKind) String() string {
	switch k {
	case Join:
		return "join"
	case Project:
		return "project"
	case Semijoin:
		return "semijoin"
	default:
		return "invalid"
	}
}

// Stmt is one program statement. Operand ids refer to the input
// relations (0 … |D|−1) and previously created relations (|D| …).
type Stmt struct {
	Kind        StmtKind
	Left, Right int            // Right is ignored for Project
	Proj        schema.AttrSet // only for Project
}

// Program is a finite statement sequence over input schema D. The
// value of the last statement is the program's answer (§6).
type Program struct {
	D     *schema.Schema
	Stmts []Stmt
}

// NewProgram returns an empty program over d.
func NewProgram(d *schema.Schema) *Program {
	return &Program{D: d}
}

// NumIDs returns the total number of relation ids (inputs + created).
func (p *Program) NumIDs() int { return len(p.D.Rels) + len(p.Stmts) }

// ResultID returns the id holding the program's answer, or -1 for an
// empty program.
func (p *Program) ResultID() int {
	if len(p.Stmts) == 0 {
		return -1
	}
	return p.NumIDs() - 1
}

// SchemaOf returns the (symbolic) relation schema of id.
func (p *Program) SchemaOf(id int) schema.AttrSet {
	n := len(p.D.Rels)
	if id < n {
		return p.D.Rels[id].Clone()
	}
	s := p.Stmts[id-n]
	switch s.Kind {
	case Join:
		return p.SchemaOf(s.Left).Union(p.SchemaOf(s.Right))
	case Project:
		return s.Proj.Clone()
	case Semijoin:
		return p.SchemaOf(s.Left)
	default:
		panic("program: invalid statement kind")
	}
}

// SchemaMap returns P(D): the original schema plus one relation schema
// per created relation, in creation order (§6).
func (p *Program) SchemaMap() *schema.Schema {
	out := p.D.Clone()
	for i := range p.Stmts {
		out.Add(p.SchemaOf(len(p.D.Rels) + i))
	}
	return out
}

// Validate checks statement well-formedness: operand ids must precede
// the statement, and projections must target a subset of the operand.
func (p *Program) Validate() error {
	n := len(p.D.Rels)
	for i, s := range p.Stmts {
		id := n + i
		if s.Left < 0 || s.Left >= id {
			return fmt.Errorf("program: stmt %d: left operand %d out of range", i, s.Left)
		}
		switch s.Kind {
		case Join, Semijoin:
			if s.Right < 0 || s.Right >= id {
				return fmt.Errorf("program: stmt %d: right operand %d out of range", i, s.Right)
			}
		case Project:
			if !s.Proj.SubsetOf(p.SchemaOf(s.Left)) {
				return fmt.Errorf("program: stmt %d: projection %s ⊄ operand schema %s",
					i, p.D.U.FormatSet(s.Proj), p.D.U.FormatSet(p.SchemaOf(s.Left)))
			}
		default:
			return fmt.Errorf("program: stmt %d: invalid kind %d", i, s.Kind)
		}
	}
	return nil
}

// StmtStat is the observed cost of one statement: input and output
// cardinalities plus wall time. InRight is −1 for projections, which
// have a single operand.
type StmtStat struct {
	Kind    StmtKind
	InLeft  int
	InRight int
	Out     int
	Elapsed time.Duration
}

// Stats records interpreter costs. Detail holds one entry per
// statement with tuples-in/tuples-out and wall time, making the §6
// cost analyses (semijoin programs are cheap; intermediate joins
// dominate) directly observable on real runs. A run that ends early
// because the answer is already known to be empty (see Run)
// still has one entry per statement: the statements it skipped are
// recorded with zero cardinalities and zero elapsed, and count toward
// Joins/Projects/Semijoins like the rest.
type Stats struct {
	TuplesProduced  int        // total output tuples over all statements
	MaxIntermediate int        // largest single intermediate result
	PerStmt         []int      // output cardinality of each statement
	Detail          []StmtStat // per-statement cost breakdown
	Joins           int
	Projects        int
	Semijoins       int
	Elapsed         time.Duration // total wall time of the run
}

// record accounts one statement's observed cost.
func (st *Stats) record(d StmtStat) {
	switch d.Kind {
	case Join:
		st.Joins++
	case Project:
		st.Projects++
	case Semijoin:
		st.Semijoins++
	}
	st.Detail = append(st.Detail, d)
	st.PerStmt = append(st.PerStmt, d.Out)
	st.TuplesProduced += d.Out
	if d.Out > st.MaxIntermediate {
		st.MaxIntermediate = d.Out
	}
}

// Table renders the per-statement cost breakdown as an aligned text
// table, one row per statement.
func (st *Stats) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-9s %10s %10s %10s %14s\n", "#", "op", "in(L)", "in(R)", "out", "time")
	for i, d := range st.Detail {
		right := "-"
		if d.InRight >= 0 {
			right = strconv.Itoa(d.InRight)
		}
		fmt.Fprintf(&b, "%-4d %-9s %10d %10s %10d %14v\n", i, d.Kind, d.InLeft, right, d.Out, d.Elapsed)
	}
	fmt.Fprintf(&b, "total: %d tuples produced, max intermediate %d, %v\n",
		st.TuplesProduced, st.MaxIntermediate, st.Elapsed)
	return b.String()
}

// Eval runs the program without limits over a database state for D and
// returns the final relation (the last statement's value) plus cost
// statistics: Run with a throwaway execution context.
func (p *Program) Eval(db *relation.Database) (*relation.Relation, *Stats, error) {
	return p.Run(db, relation.NewExec(), Limits{})
}

// Run evaluates the program over db in the execution context ex, under
// lim: the paper's straight-line program, one statement after another
// (§4, §6). The whole statement sequence shares ex, so hash tables and
// scratch buffers are allocated once per run — and a server pooling
// contexts across requests amortizes them across runs too.
//
// Run never mutates db: input relations are read-only operands (every
// statement materializes a fresh output relation), the Rels slice is
// copied before any statement runs, and db may be a frozen snapshot
// shared by any number of concurrent evaluations. ex, in contrast, is
// exclusive to one run at a time.
//
// lim is enforced as Limits describes; a violation returns a
// *LimitError and a nil relation, and leaves ex reusable.
//
// Join, semijoin and projection all map an empty operand to an empty
// result, so once a statement the answer transitively depends on comes
// out empty the answer is empty too: the run stops there, records the
// remaining statements as skipped (see Stats) and returns the empty
// relation over the result schema.
func (p *Program) Run(db *relation.Database, ex *relation.Exec, lim Limits) (*relation.Relation, *Stats, error) {
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
	vals := make([]*relation.Relation, p.NumIDs())
	copy(vals, db.Rels)
	needed := p.answerDeps()
	st := &Stats{}

	start := time.Now()
	for si, s := range p.Stmts {
		id := n + si
		d := StmtStat{Kind: s.Kind, InLeft: vals[s.Left].Card(), InRight: -1}
		t0 := time.Now()
		switch s.Kind {
		case Join:
			d.InRight = vals[s.Right].Card()
			vals[id] = ex.Join(vals[s.Left], vals[s.Right])
		case Semijoin:
			d.InRight = vals[s.Right].Card()
			vals[id] = ex.Semijoin(vals[s.Left], vals[s.Right])
		case Project:
			vals[id] = ex.Project(vals[s.Left], s.Proj)
		}
		d.Elapsed = time.Since(t0)
		d.Out = vals[id].Card()
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
	st.Elapsed = time.Since(start)
	return vals[len(vals)-1], st, nil
}

// answerDeps reports, for every relation id, whether the program's
// answer transitively depends on it through join operands, semijoin
// operands or a projection's operand.
func (p *Program) answerDeps() []bool {
	n := len(p.D.Rels)
	needed := make([]bool, p.NumIDs())
	needed[p.ResultID()] = true
	// Operands precede their statement, so one backward pass closes the set.
	for i := len(p.Stmts) - 1; i >= 0; i-- {
		if !needed[n+i] {
			continue
		}
		s := p.Stmts[i]
		needed[s.Left] = true
		if s.Kind != Project {
			needed[s.Right] = true
		}
	}
	return needed
}

// skipRest ends a run (begun at start) whose answer is known to be
// empty: statements from index from on are recorded as skipped — no
// input, no output, no time — and the empty relation over the result
// schema is returned.
func (p *Program) skipRest(st *Stats, from int, start time.Time) *relation.Relation {
	for _, s := range p.Stmts[from:] {
		d := StmtStat{Kind: s.Kind, InRight: -1}
		if s.Kind != Project {
			d.InRight = 0
		}
		st.record(d)
	}
	st.Elapsed = time.Since(start)
	return relation.New(p.D.U, p.SchemaOf(p.ResultID()))
}

// InputRef names an input relation and an optional pre-projection
// (empty set means "use the whole relation").
type InputRef struct {
	Rel  int
	Proj schema.AttrSet
}

// JoinProject builds the straight-line plan
//
//	π_X( op(inputs[0]) ⋈ op(inputs[1]) ⋈ … )
//
// where op applies the optional pre-projection of each InputRef. This
// is the plan shape of Corollary 4.1: with inputs covering CC(D, X) it
// solves (D, X) on every UR database.
func JoinProject(d *schema.Schema, x schema.AttrSet, inputs []InputRef) (*Program, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("program: JoinProject needs at least one input")
	}
	p := NewProgram(d)
	n := len(d.Rels)
	ids := make([]int, 0, len(inputs))
	for _, in := range inputs {
		if in.Rel < 0 || in.Rel >= n {
			return nil, fmt.Errorf("program: input relation %d out of range", in.Rel)
		}
		if in.Proj.IsEmpty() || in.Proj.Equal(d.Rels[in.Rel]) {
			ids = append(ids, in.Rel)
			continue
		}
		if !in.Proj.SubsetOf(d.Rels[in.Rel]) {
			return nil, fmt.Errorf("program: pre-projection %s ⊄ R%d = %s",
				d.U.FormatSet(in.Proj), in.Rel, d.U.FormatSet(d.Rels[in.Rel]))
		}
		ids = append(ids, p.emit(Stmt{Kind: Project, Left: in.Rel, Proj: in.Proj}))
	}
	acc := ids[0]
	for _, id := range ids[1:] {
		acc = p.emit(Stmt{Kind: Join, Left: acc, Right: id})
	}
	p.emit(Stmt{Kind: Project, Left: acc, Proj: x.Clone()})
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// CCPlan builds the Corollary 4.1 plan for (D, X) from a canonical
// connection cc = CC(D, X): each member of cc is matched to a source
// relation of D containing it (pre-projecting when proper), all are
// joined, and the result is projected onto X.
func CCPlan(d *schema.Schema, x schema.AttrSet, cc *schema.Schema) (*Program, error) {
	if cc.Len() == 0 {
		return nil, fmt.Errorf("program: empty canonical connection")
	}
	var inputs []InputRef
	for _, m := range cc.Rels {
		src := -1
		for i, r := range d.Rels {
			if m.SubsetOf(r) {
				src = i
				break
			}
		}
		if src == -1 {
			return nil, fmt.Errorf("program: CC member %s not contained in any relation of D", d.U.FormatSet(m))
		}
		inputs = append(inputs, InputRef{Rel: src, Proj: m})
	}
	return JoinProject(d, x, inputs)
}

// FullReducer builds the two-pass semijoin full reducer for tree
// schema d with qual tree t: a leaf→root pass then a root→leaf pass of
// semijoins. It returns the program and reduced[i] — the id holding
// the fully reduced state of relation i (the program's last statement
// is the reduced root, so the program is well-formed on its own).
// After running it, each reduced relation equals π_{Rᵢ}(⋈ⱼ Rⱼ): the
// database is globally consistent.
func FullReducer(d *schema.Schema, t *graph.Undirected) (*Program, []int, error) {
	p := NewProgram(d)
	cur := inputIDs(len(d.Rels))
	if _, _, err := emitReducer(p, cur, t, 0); err != nil {
		return nil, nil, err
	}
	// A single-node tree has no semijoins; copy the relation through a
	// trivial projection so the program has a last statement to answer
	// with.
	if len(cur) == 1 {
		cur[0] = p.emit(Stmt{Kind: Project, Left: 0, Proj: d.Rels[0].Clone()})
	}
	return p, cur, nil
}

// inputIDs returns the ids of a program's n input relations.
func inputIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// emitReducer appends to p the two semijoin passes over tree t from
// root. On entry cur[v] is the id holding the state of tree node v; on
// return it is the id of v's fully reduced state. Full reduction is
// root-independent (any root yields global consistency); the parameter
// exists so the Yannakakis emitter runs both phases over one coherent
// traversal, which is returned.
func emitReducer(p *Program, cur []int, t *graph.Undirected, root int) (order, parent []int, err error) {
	n := len(cur)
	if t.N() != n {
		return nil, nil, fmt.Errorf("program: tree has %d nodes, schema has %d relations", t.N(), n)
	}
	if n == 0 {
		return nil, nil, fmt.Errorf("program: empty schema")
	}
	if !t.IsTree() {
		return nil, nil, fmt.Errorf("program: graph is not a tree")
	}
	if root < 0 || root >= n {
		return nil, nil, fmt.Errorf("program: root %d out of range [0, %d)", root, n)
	}
	order, parent = postorder(t, root)
	// Leaf → root: parent absorbs child restrictions.
	for _, v := range order {
		if v != root {
			cur[parent[v]] = p.emit(Stmt{Kind: Semijoin, Left: cur[parent[v]], Right: cur[v]})
		}
	}
	// Root → leaf: children absorb the now-consistent parents.
	for i := len(order) - 1; i >= 0; i-- {
		if v := order[i]; v != root {
			cur[v] = p.emit(Stmt{Kind: Semijoin, Left: cur[v], Right: cur[parent[v]]})
		}
	}
	return order, parent, nil
}

// emit appends s and returns the id of the relation it creates.
func (p *Program) emit(s Stmt) int {
	p.Stmts = append(p.Stmts, s)
	return p.NumIDs() - 1
}

// postorder returns the vertices of tree t in post-order from root,
// plus the parent array (parent[root] = -1).
func postorder(t *graph.Undirected, root int) (order []int, parent []int) {
	n := t.N()
	parent = make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	seen := make([]bool, n)
	var dfs func(v int)
	dfs = func(v int) {
		seen[v] = true
		for _, w := range t.Neighbors(v) {
			if !seen[w] {
				parent[w] = v
				dfs(w)
			}
		}
		order = append(order, v)
	}
	dfs(root)
	return order, parent
}

// Yannakakis builds a complete program solving (D, X) on tree schema d
// with qual tree t: full reduction followed by a bottom-up join with
// early projection. Each intermediate is projected onto the attributes
// still needed: X restricted to the subtree plus the link to the
// parent. X must be ⊆ U(D).
func Yannakakis(d *schema.Schema, x schema.AttrSet, t *graph.Undirected) (*Program, error) {
	return YannakakisRooted(d, x, t, 0)
}

// YannakakisRooted is Yannakakis with an explicit reduction root. The
// root is where early projection stops helping: every other node keeps
// only its subtree's target attributes plus the link to its parent
// before the parent joins it, but the root's own joins see whatever its
// children send up. A caller that knows which relation covers the
// target — the planner's free-connex case, see CoverRoot — roots the
// tree there, so projections push below every join and no intermediate
// materializes attributes outside relation ∪ target widths.
func YannakakisRooted(d *schema.Schema, x schema.AttrSet, t *graph.Undirected, root int) (*Program, error) {
	if !x.SubsetOf(d.Attrs()) {
		return nil, fmt.Errorf("program: target %s ⊄ U(D)", d.U.FormatSet(x))
	}
	p := NewProgram(d)
	if err := emitYannakakis(p, d.Rels, inputIDs(len(d.Rels)), t, root, x); err != nil {
		return nil, err
	}
	return p, nil
}

// emitYannakakis appends to p the full reducer and the bottom-up join
// with early projection over tree t rooted at root, answering x. Tree
// node v has relation schema rels[v] and its state is held by id
// cur[v] — an input relation of p, or a relation p has already built,
// which is how the §4 cyclic strategy hands in the materialized ∪GR(D).
func emitYannakakis(p *Program, rels []schema.AttrSet, cur []int, t *graph.Undirected, root int, x schema.AttrSet) error {
	order, parent, err := emitReducer(p, cur, t, root)
	if err != nil {
		return err
	}
	// Subtree attribute sets.
	subAttrs := make([]schema.AttrSet, len(rels))
	for _, v := range order { // post-order: children first
		s := rels[v].Clone()
		for _, w := range t.Neighbors(v) {
			if parent[w] == v {
				s = s.Union(subAttrs[w])
			}
		}
		subAttrs[v] = s
	}
	// Bottom-up join with early projection; agg[v] = id of the joined
	// subtree result at v.
	agg := make([]int, len(rels))
	for _, v := range order {
		id := cur[v]
		for _, w := range t.Neighbors(v) {
			if parent[w] == v {
				id = p.emit(Stmt{Kind: Join, Left: id, Right: agg[w]})
			}
		}
		// Keep only what is needed above v.
		var keep schema.AttrSet
		if v == root {
			keep = x.Clone()
		} else {
			link := rels[v].Intersect(rels[parent[v]])
			keep = x.Intersect(subAttrs[v]).Union(link)
		}
		curSchema := p.SchemaOf(id)
		keep = keep.Intersect(curSchema)
		if !keep.Equal(curSchema) || v == root {
			id = p.emit(Stmt{Kind: Project, Left: id, Proj: keep})
		}
		agg[v] = id
	}
	return p.Validate()
}

// NaivePlan joins all relations of d in index order and projects onto
// x — the baseline plan that ignores CC pruning and semijoins.
func NaivePlan(d *schema.Schema, x schema.AttrSet) (*Program, error) {
	inputs := make([]InputRef, len(d.Rels))
	for i := range inputs {
		inputs[i] = InputRef{Rel: i}
	}
	return JoinProject(d, x, inputs)
}
