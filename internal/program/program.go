// Package program implements the query-processing programs of the
// paper's §6: finite sequences of join, project, and semijoin
// statements, each creating a new relation. It provides an interpreter
// with cost accounting, the schema mapping P(D) used by the tree
// projection theorems (6.1–6.4), and the classical plan builders the
// paper's analysis applies to: CC-pruned join plans (Corollary 4.1),
// two-pass semijoin full reducers, and Yannakakis-style evaluation over
// a plan's decomposition (Decompose, Emit): D itself when it is a tree
// schema, D made one by ∪GR(D) (§4) when it is cyclic.
package program

import (
	"fmt"
	"slices"
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

// SchemaOf returns the (symbolic) relation schema of id. It panics on a
// program Validate rejects.
func (p *Program) SchemaOf(id int) schema.AttrSet {
	return p.SchemaMap().Rels[id].Clone()
}

// SchemaMap returns P(D): the original schema plus one relation schema
// per created relation, in creation order (§6).
func (p *Program) SchemaMap() *schema.Schema {
	sch, err := p.schemas()
	if err != nil {
		panic(err)
	}
	return &schema.Schema{U: p.D.U, Rels: sch}
}

// Validate checks statement well-formedness: operand ids must precede
// the statement, and projections must target a subset of the operand.
func (p *Program) Validate() error {
	_, err := p.schemas()
	return err
}

// schemas checks every statement and returns the schema of every
// relation id (inputs first) in one forward pass: an operand precedes
// its statement, so its schema is already in the table. A program may
// use an id any number of times (Rk+1 := Rk ⋈ Rk), so recomputing an
// operand's schema per use is exponential in the program length. The
// sets are shared with p, not copied.
func (p *Program) schemas() ([]schema.AttrSet, error) {
	n := len(p.D.Rels)
	sch := make([]schema.AttrSet, n, p.NumIDs())
	copy(sch, p.D.Rels)
	for i, s := range p.Stmts {
		id := n + i
		if s.Left < 0 || s.Left >= id {
			return nil, fmt.Errorf("program: stmt %d: left operand %d out of range", i, s.Left)
		}
		switch s.Kind {
		case Join, Semijoin:
			if s.Right < 0 || s.Right >= id {
				return nil, fmt.Errorf("program: stmt %d: right operand %d out of range", i, s.Right)
			}
			if s.Kind == Join {
				sch = append(sch, sch[s.Left].Union(sch[s.Right]))
			} else {
				sch = append(sch, sch[s.Left])
			}
		case Project:
			if !s.Proj.SubsetOf(sch[s.Left]) {
				return nil, fmt.Errorf("program: stmt %d: projection %s ⊄ operand schema %s",
					i, p.D.U.FormatSet(s.Proj), p.D.U.FormatSet(sch[s.Left]))
			}
			sch = append(sch, s.Proj)
		default:
			return nil, fmt.Errorf("program: stmt %d: invalid kind %d", i, s.Kind)
		}
	}
	return sch, nil
}

// StmtStat is the observed cost of one statement: input and output
// cardinalities plus wall time. InRight is −1 for projections, which
// have a single operand. Streamed marks a statement of a chain Run fed
// straight into the next statement (see Run): its Out counts the rows
// that passed through, and the chain's wall time is on its last
// statement. Counted marks the answer
// statement Run counted and kept only the first k rows of: its Out is
// still the answer's full cardinality.
type StmtStat struct {
	Kind     StmtKind
	InLeft   int
	InRight  int
	Out      int
	Elapsed  time.Duration
	Streamed bool
	Counted  bool
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
		elapsed := d.Elapsed.String()
		if d.Streamed {
			elapsed = "streamed"
		}
		fmt.Fprintf(&b, "%-4d %-9s %10d %10s %10d %14s", i, d.Kind, d.InLeft, right, d.Out, elapsed)
		if d.Counted {
			b.WriteString(" counted")
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "total: %d tuples produced, max intermediate %d, %v\n",
		st.TuplesProduced, st.MaxIntermediate, st.Elapsed)
	return b.String()
}

// AnswerCard returns the cardinality of the run's answer: the last
// statement's Out, exact even when Run kept fewer of its rows.
func (st *Stats) AnswerCard() int { return st.Detail[len(st.Detail)-1].Out }

// Eval runs the program without limits over a database state for D and
// returns the final relation (the last statement's value) plus cost
// statistics: Run with a throwaway execution context, keeping every row.
func (p *Program) Eval(db *relation.Database) (*relation.Relation, *Stats, error) {
	return p.Run(db, relation.NewExec(), Limits{}, relation.All)
}

// Run evaluates the program over db in the execution context ex, under
// lim: the paper's straight-line program, one statement after another
// (§4, §6). The whole statement sequence shares ex, so hash tables and
// scratch buffers are allocated once per run — and a server pooling
// contexts across requests amortizes them across runs too.
//
// k ≥ 0 is how many rows of the answer the caller reads — a reply's echo
// limit; relation.All for every row. When the answer statement is a join
// (relation.Exec.JoinFirst) or ends a streamed chain (below) — unless a
// projection onto a join operand closes it — and k is not All, it runs
// counted: every row is still found and counted, so its Out, the
// answer's cardinality (Stats.AnswerCard), is exact, but only the first
// k rows, in the order the whole answer would have them, are built and
// returned. The statement is marked Counted and nothing else changes —
// not the other stats, not what the gas counts. Any other answer
// statement, and every run with k = All, returns the whole answer.
//
// A chain of statements is evaluated as one (see fusion): a join whose
// value has a single use, by the statement right after it, is streamed
// into that statement and never materialized when the statement is a
// projection of it (relation.Exec.JoinProject) or a join or semijoin of
// it with a relation over a subset of its attributes — a filter
// (relation.Exec.JoinFilter). Past a filter the chain goes on while each
// value has a single use, by the next statement: through semijoins of
// it, then at most one projection onto the attributes of one of the
// join's two operands, which ends it (relation.Chain); a
// projection onto anything else, or a value with two uses, ends it
// before. The program is unchanged, and so are the stats: each statement
// of a chain is recorded with its own Out — the join's the rows that
// streamed through — counted toward TuplesProduced, MaxIntermediate and
// the gas like a materialized statement's, every statement but the last
// is marked Streamed, and the chain's wall time is recorded on the last.
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
// relation over the result schema. A statement inside a chain that comes
// out empty is such a statement: the rest of the chain is recorded as
// skipped, and the chain's wall time stays on it.
func (p *Program) Run(db *relation.Database, ex *relation.Exec, lim Limits, k int) (*relation.Relation, *Stats, error) {
	return p.run(db, ex, lim, k, true)
}

// RunUnfused is Run with every statement evaluated alone — no join
// streamed into another statement — and the answer kept whole: the
// straight-line program as written, the oracle that Run's streaming and
// counting are held to. It exists for tests.
func (p *Program) RunUnfused(db *relation.Database, ex *relation.Exec, lim Limits) (*relation.Relation, *Stats, error) {
	return p.run(db, ex, lim, relation.All, false)
}

// run is Run, streaming chains of statements (fusion) when fuse is set.
func (p *Program) run(db *relation.Database, ex *relation.Exec, lim Limits, k int, fuse bool) (*relation.Relation, *Stats, error) {
	sch, err := p.schemas()
	if err != nil {
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
	flow := p.flow()
	st := &Stats{}
	// finish records statement si's cost and enforces the rails; end
	// reports that the run is over — an error, or an empty value the
	// answer depends on.
	finish := func(si int, d StmtStat) (end bool, err error) {
		st.record(d)
		if enforce {
			if err := lim.check(si, st.TuplesProduced); err != nil {
				return true, err
			}
		}
		return d.Out == 0 && flow[n+si].needed, nil
	}

	start := time.Now()
	last := len(p.Stmts) - 1
	var cards []int                // the Out of each statement of the chain at si
	var semis []*relation.Relation // a chain's semijoin operands
	for si := 0; si < len(p.Stmts); si++ {
		s := p.Stmts[si]
		fu := fusion{filter: -1, onto: -1}
		if fuse {
			fu = p.fusion(si, flow, sch)
		}
		end := si + fu.n // the chain's last statement
		// The answer statement keeps k rows; a join kernel counts the rest.
		keep := relation.All
		if end == last && fu.onto < 0 {
			keep = k
		}
		counted := keep != relation.All && s.Kind == Join // streamed or not
		var b relation.Budget
		if enforce {
			b = lim.budget(st.TuplesProduced)
		}
		t0 := time.Now()
		var out *relation.Relation
		cards = cards[:0]
		switch {
		case fu.n > 0 && fu.filter < 0:
			var card, joined int
			out, card, joined = ex.JoinProject(vals[s.Left], vals[s.Right], p.Stmts[end].Proj, keep, b)
			cards = append(cards, joined, card)
		case fu.n > 0:
			semis = semis[:0]
			for _, id := range fu.semis {
				semis = append(semis, vals[id])
			}
			c := relation.Chain{Semijoins: semis}
			if fu.onto >= 0 {
				c.Onto = vals[fu.onto]
			}
			out, cards = ex.JoinFilter(vals[s.Left], vals[s.Right], vals[fu.filter], c, keep, b, cards)
		case s.Kind == Join:
			var card int
			out, card = ex.JoinFirst(vals[s.Left], vals[s.Right], keep, b)
			cards = append(cards, card)
		case s.Kind == Semijoin:
			out = ex.Semijoin(vals[s.Left], vals[s.Right])
		case s.Kind == Project:
			out = ex.Project(vals[s.Left], s.Proj)
		}
		if out == nil {
			return nil, nil, lim.stopped(si, st.TuplesProduced+cards[0])
		}
		if s.Kind != Join {
			cards = append(cards, out.Card())
		}
		elapsed := time.Since(t0)
		// Record the chain's statements in order, each with its own Out;
		// the wall time goes on the last, or on the one that ends the run.
		for j, in := si, 0; j <= end; j++ {
			d := opStat(p.Stmts[j], vals, in)
			d.Out, in = cards[j-si], cards[j-si]
			if j < end {
				d.Streamed = true
				if d.Out == 0 && flow[n+j].needed {
					d.Elapsed = elapsed // the rest of the chain is skipped
				}
			} else {
				vals[n+j] = out
				d.Elapsed, d.Counted = elapsed, counted
			}
			if stop, err := finish(j, d); stop {
				return p.endEarly(st, j+1, start, sch, err)
			}
		}
		si = end
	}
	st.Elapsed = time.Since(start)
	return vals[len(vals)-1], st, nil
}

// opStat starts the StmtStat of s from its operands' cardinalities: an
// operand's value in vals, or joined for the one operand that has none —
// the value streamed into s.
func opStat(s Stmt, vals []*relation.Relation, joined int) StmtStat {
	card := func(id int) int {
		if vals[id] == nil {
			return joined
		}
		return vals[id].Card()
	}
	d := StmtStat{Kind: s.Kind, InLeft: card(s.Left), InRight: -1}
	if s.Kind != Project {
		d.InRight = card(s.Right)
	}
	return d
}

// idFlow is what Run knows of one relation id before it starts: whether
// the program's answer transitively depends on it, and how many statement
// operands name it (counted up to 2).
type idFlow struct {
	needed bool
	uses   uint8
}

// flow returns every id's idFlow from one backward pass: needed closes
// over join operands, semijoin operands and a projection's operand of
// the statements the answer needs; uses counts the operands of every
// statement.
func (p *Program) flow() []idFlow {
	n := len(p.D.Rels)
	f := make([]idFlow, p.NumIDs())
	f[p.ResultID()].needed = true
	use := func(id int, needed bool) {
		f[id].needed = f[id].needed || needed
		f[id].uses = min(f[id].uses+1, 2)
	}
	// Operands precede their statement, so one backward pass closes the set.
	for i := len(p.Stmts) - 1; i >= 0; i-- {
		s := p.Stmts[i]
		use(s.Left, f[n+i].needed)
		if s.Kind != Project {
			use(s.Right, f[n+i].needed)
		}
	}
	return f
}

// fusion is the chain of statements Run evaluates as one, from a join:
// the n statements after it (0: it runs alone), the filter's id (-1 when
// the one statement after it is a projection: JoinProject), the ids the
// chain's semijoins take as right operands, and the join operand its
// closing projection is onto (-1: none).
type fusion struct {
	n      int
	filter int
	semis  []int
	onto   int
}

// fusion returns the chain Run streams statement si into (see Run): si is
// a join whose value's one use is statement si+1, a projection of it or
// a join or semijoin of it with a filter — an operand over a subset of
// its attributes. Past a filter, each statement whose operand is the
// value before it and that value's one use extends the chain: a
// semijoin of it, or, to close it, a projection onto a join operand's
// attributes. sch holds every id's schema.
func (p *Program) fusion(si int, flow []idFlow, sch []schema.AttrSet) fusion {
	none := fusion{filter: -1, onto: -1}
	fu, j := none, p.Stmts[si]
	single := func(i int) bool { // statement i's value has one use, by statement i+1
		return i+1 < len(p.Stmts) && flow[len(p.D.Rels)+i].uses == 1
	}
	if j.Kind != Join || !single(si) {
		return none
	}
	id := len(p.D.Rels) + si
	switch c := p.Stmts[si+1]; {
	case c.Kind == Project && c.Left == id:
		fu.n = 1
		return fu
	case c.Kind == Semijoin && c.Left == id, c.Kind == Join && c.Left == id:
		fu.filter = c.Right
	case c.Kind == Join && c.Right == id:
		fu.filter = c.Left
	default:
		return none
	}
	if !sch[fu.filter].SubsetOf(sch[id]) {
		return none
	}
	for fu.n = 1; single(si + fu.n); {
		id, c := len(p.D.Rels)+si+fu.n, p.Stmts[si+fu.n+1]
		switch {
		case c.Kind == Semijoin && c.Left == id:
			fu.semis = append(fu.semis, c.Right)
			fu.n++
			continue
		case c.Kind != Project || c.Left != id:
		case c.Proj.Equal(sch[j.Left]):
			fu.onto, fu.n = j.Left, fu.n+1
		case c.Proj.Equal(sch[j.Right]):
			fu.onto, fu.n = j.Right, fu.n+1
		}
		break
	}
	return fu
}

// endEarly returns what Run returns when finish ends it at a statement
// before from: err, or the empty answer with the statements from from on
// recorded as skipped.
func (p *Program) endEarly(st *Stats, from int, start time.Time, sch []schema.AttrSet, err error) (*relation.Relation, *Stats, error) {
	if err != nil {
		return nil, nil, err
	}
	return p.skipRest(st, from, start, sch[len(sch)-1]), st, nil
}

// skipRest ends a run (begun at start) whose answer is known to be
// empty: statements from index from on are recorded as skipped — no
// input, no output, no time — and the empty relation over the result
// schema is returned.
func (p *Program) skipRest(st *Stats, from int, start time.Time, result schema.AttrSet) *relation.Relation {
	for _, s := range p.Stmts[from:] {
		d := StmtStat{Kind: s.Kind, InRight: -1}
		if s.Kind != Project {
			d.InRight = 0
		}
		st.record(d)
	}
	st.Elapsed = time.Since(start)
	return relation.New(p.D.U, result)
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
	acc, _, err := p.emitJoin(inputs)
	if err != nil {
		return nil, err
	}
	p.emit(Stmt{Kind: Project, Left: acc, Proj: x.Clone()})
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// emitJoin appends to p the join of the inputs, in order, each
// pre-projected just before it joins, and returns the id holding the
// join and its schema. A single whole input emits nothing: its id is
// the input relation's own.
func (p *Program) emitJoin(inputs []InputRef) (acc int, sch schema.AttrSet, err error) {
	d := p.D
	for i, in := range inputs {
		if in.Rel < 0 || in.Rel >= len(d.Rels) {
			return 0, sch, fmt.Errorf("program: input relation %d out of range", in.Rel)
		}
		id, rel := in.Rel, d.Rels[in.Rel]
		if !in.Proj.IsEmpty() && !in.Proj.Equal(rel) {
			if !in.Proj.SubsetOf(rel) {
				return 0, sch, fmt.Errorf("program: pre-projection %s ⊄ R%d = %s",
					d.U.FormatSet(in.Proj), in.Rel, d.U.FormatSet(rel))
			}
			id, rel = p.emit(Stmt{Kind: Project, Left: in.Rel, Proj: in.Proj}), in.Proj
		}
		if i == 0 {
			acc, sch = id, rel
		} else {
			acc, sch = p.emit(Stmt{Kind: Join, Left: acc, Right: id}), sch.Union(rel)
		}
	}
	return acc, sch, nil
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
// semijoins, both over the whole tree. It returns the program and
// reduced[i] — the id holding the fully reduced state of relation i (the
// program's last statement is a reduced relation, so the program is
// well-formed on its own). After running it, each reduced relation
// equals π_{Rᵢ}(⋈ⱼ Rⱼ): the database is globally consistent.
func FullReducer(d *schema.Schema, t *graph.Undirected) (*Program, []int, error) {
	p := NewProgram(d)
	cur := states{ids: inputIDs(len(d.Rels))}
	// Full reduction is root-independent: any root yields global
	// consistency.
	order, parent, err := rootTree(t, len(cur.ids), 0)
	if err != nil {
		return nil, nil, err
	}
	emitReducer(p, cur, order, parent, nil)
	// A single-node tree has no semijoins; copy the relation through a
	// trivial projection so the program has a last statement to answer
	// with.
	if len(cur.ids) == 1 {
		cur.ids[0] = p.emit(Stmt{Kind: Project, Left: 0, Proj: d.Rels[0].Clone()})
	}
	return p, cur.ids, nil
}

// states holds, for the emitters, the id of each tree node's current
// state. A node whose id is −1 is not built yet — Emit's ∪GR(D) — and
// build builds it right before the first statement that reads it, so
// that statement can stream its joins (see Run), in at most reserve
// statements in all.
type states struct {
	ids     []int
	build   func(v int) int
	reserve int
}

// at returns the id of node v's state, building it first if need be.
func (st states) at(v int) int {
	if st.ids[v] < 0 {
		st.ids[v] = st.build(v)
	}
	return st.ids[v]
}

// inputIDs returns the ids of a program's n input relations.
func inputIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// rootTree checks that t is a tree over n ≥ 1 nodes containing root and
// returns its post-order from root (children before parents, root last)
// with the parent array (parent[root] = -1).
func rootTree(t *graph.Undirected, n, root int) (order, parent []int, err error) {
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
	return order, parent, nil
}

// emitReducer appends to p the two semijoin passes over the rooted tree
// (order, parent): leaf→root over every node, then root→leaf over the
// nodes live marks (nil: all of them). On entry cur holds the state of
// each tree node v; on return cur.ids[v] is the id of v's reduced state
// — fully reduced for the root and every live node, reduced by its own
// subtree only for the rest.
func emitReducer(p *Program, cur states, order, parent []int, live []bool) {
	// Leaf → root: parent absorbs child restrictions.
	for _, v := range order {
		if u := parent[v]; u >= 0 {
			l, r := cur.at(u), cur.at(v)
			cur.ids[u] = p.emit(Stmt{Kind: Semijoin, Left: l, Right: r})
		}
	}
	// Root → leaf: children absorb the now-consistent parents.
	for i := len(order) - 1; i >= 0; i-- {
		if v := order[i]; parent[v] >= 0 && (live == nil || live[v]) {
			cur.ids[v] = p.emit(Stmt{Kind: Semijoin, Left: cur.at(v), Right: cur.at(parent[v])})
		}
	}
}

// emit appends s and returns the id of the relation it creates.
func (p *Program) emit(s Stmt) int {
	p.Stmts = append(p.Stmts, s)
	return p.NumIDs() - 1
}

// postorder returns the vertices of tree t in post-order from root,
// plus the parent array (parent[root] = -1): a depth-first walk that
// visits each vertex's neighbours in adjacency order.
func postorder(t *graph.Undirected, root int) (order []int, parent []int) {
	n := t.N()
	block := make([]int, 3*n)
	// next[v] − 1 indexes v's next neighbour to try; 0 marks v unseen.
	parent, order, next := block[:n:n], block[n:n:2*n], block[2*n:]
	for i := range parent {
		parent[i] = -1
	}
	next[root] = 1
	for v := root; v >= 0; {
		if nb := t.Neighbors(v); next[v] <= len(nb) {
			w := nb[next[v]-1]
			next[v]++
			if next[w] == 0 {
				parent[w], next[w], v = v, 1, w
			}
			continue
		}
		order = append(order, v)
		v = parent[v]
	}
	return order, parent
}

// YannakakisRooted builds a complete program solving (D, X) on tree
// schema d with qual tree t rooted at root, on arbitrary databases for
// d. X must be ⊆ U(D). The program is answer-directed: rooted at root,
// a node is live when it is the root or its subtree holds an attribute
// of X outside its link to its parent, and the live nodes form a
// connected subtree S containing the root (running intersection). The
// leaf→root semijoin pass runs over all of D — a dead subtree still
// filters — and leaves the root fully reduced; the root→leaf semijoins,
// the bottom-up joins and the early projections (each live node keeps
// its subtree's X attributes plus the link to its parent, so no
// intermediate is wider than a relation ∪ X) run over S only. That is
// (|D|−1) + (|S|−1) semijoins, within Theorem 6.1's budget of 2·|D|,
// |S|−1 joins, and a projection only where it drops a column: a head
// inside one relation, rooted there, costs |D|−1 semijoins and at most
// one projection. AnswerRoot picks the root that minimizes |S|.
func YannakakisRooted(d *schema.Schema, x schema.AttrSet, t *graph.Undirected, root int) (*Program, error) {
	p := NewProgram(d)
	if err := emitYannakakis(p, d.Rels, states{ids: inputIDs(len(d.Rels))}, t, root, x); err != nil {
		return nil, err
	}
	return p, nil
}

// heads holds head[v] = x ∩ attrs(subtree of v) over a rooted tree.
type heads struct {
	head, rels []schema.AttrSet
	parent     []int
}

// headBelow returns the heads of x over the rooted tree (order, parent).
func headBelow(rels []schema.AttrSet, order, parent []int, x schema.AttrSet) heads {
	head := make([]schema.AttrSet, len(rels))
	for _, v := range order {
		head[v] = x.Intersect(rels[v])
	}
	for _, v := range order { // post-order: head[v] is complete when v is reached
		if parent[v] >= 0 {
			head[parent[v]] = head[parent[v]].Union(head[v])
		}
	}
	return heads{head, rels, parent}
}

// below is the test the answer-directed emitter and AnswerRoot share: it
// reports whether head[v] escapes v's link to its parent, i.e. whether v
// must hand tuples — not just a filter — up the tree.
func (h heads) below(v int) bool {
	return !h.head[v].SubsetOf(h.rels[v]) || !h.head[v].SubsetOf(h.rels[h.parent[v]])
}

// AnswerRoot is the root rule for answering x over the tree schema rels
// with qual tree t: the root that leaves the fewest nodes live (see
// YannakakisRooted), ties to the relation covering the most attributes
// of x — so projections push below the root's joins — then to the lowest
// index. x must be ⊆ the attributes of rels.
//
// Cut a tree edge: by the running-intersection property a head
// attribute found on both sides is in the link, so the node on one side
// is live under a root on the other exactly when its side owns a head
// attribute the other side lacks. Two flags per edge, computed from one
// traversal from relation 0 — "the subtree below v owns one" (below) and
// "the rest of the tree owns one" (head[v] ≠ x) — give |S| for root 0 as
// one plus the below flags, and moving the root across an edge swaps
// which of its two flags counts.
func AnswerRoot(rels []schema.AttrSet, t *graph.Undirected, x schema.AttrSet) int {
	if len(rels) == 0 || t.N() != len(rels) {
		return 0 // no tree to root; the emitter reports it
	}
	order, parent := postorder(t, 0)
	h := headBelow(rels, order, parent, x)
	live := make([]int, len(rels)) // live[r] = |S| under root r
	live[0] = 1
	for _, v := range order {
		if v != 0 && h.below(v) {
			live[0]++
		}
	}
	for i := len(order) - 2; i >= 0; i-- { // reverse post-order: a parent before its children
		v := order[i]
		live[v] = live[parent[v]]
		if h.below(v) {
			live[v]--
		}
		if !h.head[v].Equal(x) {
			live[v]++
		}
	}
	best := 0
	for r := range rels {
		if live[r] < live[best] ||
			live[r] == live[best] && rels[r].IntersectCard(x) > rels[best].IntersectCard(x) {
			best = r
		}
	}
	return best
}

// emitYannakakis appends to p the answer-directed program
// YannakakisRooted documents, over tree t rooted at root, answering x.
// Tree node v has relation schema rels[v] and its state is cur's — an
// input relation of p, or, for Emit's ∪GR(D), one built on first read.
func emitYannakakis(p *Program, rels []schema.AttrSet, cur states, t *graph.Undirected, root int, x schema.AttrSet) error {
	if !x.SubsetOf(p.D.Attrs()) {
		return fmt.Errorf("program: target %s ⊄ U(D)", p.D.U.FormatSet(x))
	}
	order, parent, err := rootTree(t, len(cur.ids), root)
	if err != nil {
		return err
	}
	h := headBelow(rels, order, parent, x)
	live, s := make([]bool, len(rels)), 0
	for _, v := range order {
		live[v] = v == root || h.below(v)
		if live[v] {
			s++
		}
	}
	// (|D|−1) + (|S|−1) semijoins, |S|−1 joins and ≤ |S| projections.
	p.Stmts = slices.Grow(p.Stmts, cur.reserve+len(order)+3*s)
	emitReducer(p, cur, order, parent, live)
	// Bottom-up join with early projection over the live subtree: agg[v]
	// is the id of the joined subtree result at v, over schema has[v].
	agg := make([]int, len(rels))
	has := make([]schema.AttrSet, len(rels))
	for _, v := range order {
		if !live[v] {
			continue
		}
		id, sch := cur.at(v), rels[v]
		for _, w := range t.Neighbors(v) {
			if parent[w] == v && live[w] {
				id = p.emit(Stmt{Kind: Join, Left: id, Right: agg[w]})
				sch = sch.Union(has[w])
			}
		}
		// Keep only what is needed above v.
		keep := x
		if v != root {
			keep = h.head[v].Union(rels[v].Intersect(rels[parent[v]]))
		}
		keep = keep.Intersect(sch)
		// The program's answer is its last statement: a root that needed
		// no statement of its own (one relation, x all of it) is copied
		// through an identity projection.
		if !keep.Equal(sch) || (v == root && id != p.ResultID()) {
			id = p.emit(Stmt{Kind: Project, Left: id, Proj: keep})
			sch = keep
		}
		agg[v], has[v] = id, sch
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
