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
// have a single operand. Shards is 0 when the statement ran serially
// and the shard count when it ran partition-parallel (EvalPar).
type StmtStat struct {
	Kind    StmtKind
	InLeft  int
	InRight int
	Out     int
	Shards  int
	Elapsed time.Duration
}

// Stats records interpreter costs. Detail holds one entry per
// statement with tuples-in/tuples-out and wall time, making the §6
// cost analyses (semijoin programs are cheap; intermediate joins
// dominate) directly observable on real runs. A run that ends early
// because the answer is already known to be empty (see EvalExecLimits)
// still has one entry per statement: the statements it skipped are
// recorded with zero cardinalities and zero elapsed, and count toward
// Joins/Projects/Semijoins like the rest.
type Stats struct {
	TuplesProduced   int        // total output tuples over all statements
	MaxIntermediate  int        // largest single intermediate result
	PerStmt          []int      // output cardinality of each statement
	Detail           []StmtStat // per-statement cost breakdown
	Joins            int
	Projects         int
	Semijoins        int
	ParallelStmts    int           // statements that ran partition-parallel
	Repartitions     int           // partitionings built (initial or key change)
	RepartitionBytes int64         // arena bytes moved building those partitionings
	Elapsed          time.Duration // total wall time of the run
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
		op := d.Kind.String()
		if d.Shards > 0 {
			op += "/p" + strconv.Itoa(d.Shards)
		}
		fmt.Fprintf(&b, "%-4d %-9s %10d %10s %10d %14v\n", i, op, d.InLeft, right, d.Out, d.Elapsed)
	}
	fmt.Fprintf(&b, "total: %d tuples produced, max intermediate %d, %v\n",
		st.TuplesProduced, st.MaxIntermediate, st.Elapsed)
	return b.String()
}

// Eval runs the program over a database state for D and returns the
// final relation (the last statement's value) plus cost statistics.
// It is EvalExec with a throwaway execution context.
func (p *Program) Eval(db *relation.Database) (*relation.Relation, *Stats, error) {
	return p.EvalExec(db, relation.NewExec())
}

// EvalExec is Eval with a caller-supplied execution context: the whole
// statement sequence shares ex, so hash tables and scratch buffers are
// allocated once per run — and a server pooling Exec values across
// requests amortizes them across runs too.
//
// EvalExec never mutates db: input relations are read-only operands
// (every statement materializes a fresh output relation), the Rels
// slice is copied before any statement runs, and db may be a frozen
// snapshot shared by any number of concurrent evaluations. ex, in
// contrast, is exclusive to one run at a time.
func (p *Program) EvalExec(db *relation.Database, ex *relation.Exec) (*relation.Relation, *Stats, error) {
	return p.EvalExecLimits(db, ex, Limits{})
}

// EvalExecLimits is EvalExec bounded by lim: the gas budget and
// deadline are checked at every statement boundary, and a violation
// aborts the run with a *LimitError (errors.Is-matching
// ErrGasExhausted or ErrDeadlineExceeded) and a nil relation.
// Evaluation never mutates db, so an aborted run leaves no partial
// state.
//
// Join, semijoin and projection all map an empty operand to an empty
// result, so once a statement the answer transitively depends on comes
// out empty the answer is empty too: the run stops there, records the
// remaining statements as skipped (see Stats) and returns the empty
// relation over the result schema.
func (p *Program) EvalExecLimits(db *relation.Database, ex *relation.Exec, lim Limits) (*relation.Relation, *Stats, error) {
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
	vals := make([]*relation.Relation, len(db.Rels), p.NumIDs())
	copy(vals, db.Rels)
	needed := p.answerDeps()
	st := &Stats{}
	start := time.Now()
	for si, s := range p.Stmts {
		var out *relation.Relation
		d := StmtStat{Kind: s.Kind, InLeft: vals[s.Left].Card(), InRight: -1}
		t0 := time.Now()
		switch s.Kind {
		case Join:
			d.InRight = vals[s.Right].Card()
			out = ex.Join(vals[s.Left], vals[s.Right])
		case Project:
			out = ex.Project(vals[s.Left], s.Proj)
		case Semijoin:
			d.InRight = vals[s.Right].Card()
			out = ex.Semijoin(vals[s.Left], vals[s.Right])
		}
		d.Elapsed = time.Since(t0)
		d.Out = out.Card()
		vals = append(vals, out)
		st.record(d)
		if enforce {
			if err := lim.check(si, st.TuplesProduced); err != nil {
				return nil, nil, err
			}
		}
		if d.Out == 0 && needed[len(db.Rels)+si] {
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
		p.Stmts = append(p.Stmts, Stmt{Kind: Project, Left: in.Rel, Proj: in.Proj})
		ids = append(ids, n+len(p.Stmts)-1)
	}
	acc := ids[0]
	for _, id := range ids[1:] {
		p.Stmts = append(p.Stmts, Stmt{Kind: Join, Left: acc, Right: id})
		acc = n + len(p.Stmts) - 1
	}
	p.Stmts = append(p.Stmts, Stmt{Kind: Project, Left: acc, Proj: x.Clone()})
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
	return fullReducerRooted(d, t, 0)
}

// fullReducerRooted is FullReducer with an explicit root for the two
// passes. Full reduction is root-independent (any root yields global
// consistency); the parameter exists so Yannakakis variants run both
// phases over one coherent traversal.
func fullReducerRooted(d *schema.Schema, t *graph.Undirected, root int) (*Program, []int, error) {
	n := len(d.Rels)
	if t.N() != n {
		return nil, nil, fmt.Errorf("program: tree has %d nodes, schema has %d relations", t.N(), n)
	}
	if n == 0 {
		return nil, nil, fmt.Errorf("program: empty schema")
	}
	if !t.IsTree() {
		return nil, nil, fmt.Errorf("program: graph is not a tree")
	}
	p := NewProgram(d)
	cur := make([]int, n)
	for i := range cur {
		cur[i] = i
	}
	if root < 0 || root >= n {
		return nil, nil, fmt.Errorf("program: root %d out of range [0, %d)", root, n)
	}
	emit := func(left, right int) int {
		p.Stmts = append(p.Stmts, Stmt{Kind: Semijoin, Left: left, Right: right})
		return n + len(p.Stmts) - 1
	}
	order, parent := postorder(t, root)
	// Leaf → root: parent absorbs child restrictions.
	for _, v := range order {
		if v == root {
			continue
		}
		cur[parent[v]] = emit(cur[parent[v]], cur[v])
	}
	// Root → leaf: children absorb the now-consistent parents.
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		if v == root {
			continue
		}
		cur[v] = emit(cur[v], cur[parent[v]])
	}
	// Make the program's result meaningful: its last statement is the
	// last child reduction; if the tree is a single node there are no
	// statements, so copy the root via a trivial projection.
	if len(p.Stmts) == 0 {
		p.Stmts = append(p.Stmts, Stmt{Kind: Project, Left: root, Proj: d.Rels[root].Clone()})
		cur[root] = n
	}
	return p, cur, nil
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
// target — the conjunctive-query planner's free-connex case — roots the
// tree there, so projections push below every join and no intermediate
// materializes attributes outside atom ∪ target widths.
func YannakakisRooted(d *schema.Schema, x schema.AttrSet, t *graph.Undirected, root int) (*Program, error) {
	if !x.SubsetOf(d.Attrs()) {
		return nil, fmt.Errorf("program: target %s ⊄ U(D)", d.U.FormatSet(x))
	}
	p, cur, err := fullReducerRooted(d, t, root)
	if err != nil {
		return nil, err
	}
	n := len(d.Rels)
	order, parent := postorder(t, root)
	// Subtree attribute sets.
	subAttrs := make([]schema.AttrSet, n)
	for _, v := range order { // post-order: children first
		s := d.Rels[v].Clone()
		for _, w := range t.Neighbors(v) {
			if parent[w] == v {
				s = s.Union(subAttrs[w])
			}
		}
		subAttrs[v] = s
	}
	// Bottom-up join with early projection; agg[v] = id of the joined
	// subtree result at v.
	agg := make([]int, n)
	emit := func(s Stmt) int {
		p.Stmts = append(p.Stmts, s)
		return n + len(p.Stmts) - 1
	}
	for _, v := range order {
		id := cur[v]
		for _, w := range t.Neighbors(v) {
			if parent[w] == v {
				id = emit(Stmt{Kind: Join, Left: id, Right: agg[w]})
			}
		}
		// Keep only what is needed above v.
		var keep schema.AttrSet
		if v == root {
			keep = x.Clone()
		} else {
			link := d.Rels[v].Intersect(d.Rels[parent[v]])
			keep = x.Intersect(subAttrs[v]).Union(link)
		}
		curSchema := p.SchemaOf(id)
		keep = keep.Intersect(curSchema)
		if !keep.Equal(curSchema) || v == root {
			id = emit(Stmt{Kind: Project, Left: id, Proj: keep})
		}
		agg[v] = id
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
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
