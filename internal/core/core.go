// Package core is the theorem-level face of the library: it wires the
// GYO, qual-graph, tableau, lossless-join, γ-acyclicity, program, and
// tree-projection machinery into the analyses the paper is about —
// classifying schemas (§3), solving queries with joins (§4), deciding
// lossless joins (§5), and analyzing join/semijoin/project programs
// through tree projections (§6).
package core

import (
	"fmt"

	"gyokit/internal/gamma"
	"gyokit/internal/graph"
	"gyokit/internal/gyo"
	"gyokit/internal/lossless"
	"gyokit/internal/program"
	"gyokit/internal/qualgraph"
	"gyokit/internal/schema"
	"gyokit/internal/tableau"
	"gyokit/internal/treeproj"
)

// Classification is the full §3 status of a database schema.
type Classification struct {
	// Tree reports whether D is a tree schema (Corollary 3.1).
	Tree bool
	// GammaAcyclic reports γ-acyclicity (Theorem 5.3(ii) test).
	GammaAcyclic bool
	// GR is GR(D), the GYO reduction with no sacred attributes.
	GR *schema.Schema
	// TreefyingRelation is ∪GR(D): the least-cardinality relation
	// schema whose addition makes D a tree schema (Corollary 3.2).
	// Empty for tree schemas.
	TreefyingRelation schema.AttrSet
	// QualTree is a qual tree for D when Tree, else nil.
	QualTree *graph.Undirected
}

// Classify computes the classification of d.
func Classify(d *schema.Schema) (*Classification, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	res := gyo.ReduceFull(d)
	c := &Classification{
		Tree:              res.Empty(),
		GammaAcyclic:      gamma.IsGammaAcyclic(d),
		GR:                res.GR,
		TreefyingRelation: res.GR.Attrs(),
	}
	if c.Tree {
		t, ok := qualgraph.QualTree(d)
		if !ok {
			return nil, fmt.Errorf("core: internal: GYO and qual-tree construction disagree on %s", d)
		}
		c.QualTree = t
	}
	return c, nil
}

// CyclicityWitness is the Lemma 3.1 certificate of cyclicity.
type CyclicityWitness struct {
	X    schema.AttrSet // attributes deleted
	Core *schema.Schema // the exposed Aring or Aclique
	Kind schema.CoreKind
}

// CyclicityCertificate searches for the Lemma 3.1 witness of d's
// cyclicity. found is false iff d is a tree schema. Exponential in
// |U(D)|; intended for universes of ≤ 20 attributes.
func CyclicityCertificate(d *schema.Schema) (*CyclicityWitness, bool) {
	x, coreSchema, kind, found := schema.Lemma31Witness(d)
	if !found {
		return nil, false
	}
	return &CyclicityWitness{X: x, Core: coreSchema, Kind: kind}, true
}

// JoinSolution is the §4 answer for solving (D, X) with joins followed
// by one projection.
type JoinSolution struct {
	// CC is the canonical connection CC(D, X): by Theorem 4.1 the
	// minimal relation set whose join answers the query on UR
	// databases.
	CC *schema.Schema
	// Plan is the Corollary 4.1 plan: pre-project sources onto CC
	// members, join, project onto X.
	Plan *program.Program
	// Sources[i] is the index in D of the relation backing CC member i.
	Sources []int
	// Irrelevant lists indexes of D not needed by the plan.
	Irrelevant []int
}

// SolveByJoins computes CC(D, X) and the join plan of Corollary 4.1.
func SolveByJoins(d *schema.Schema, x schema.AttrSet) (*JoinSolution, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if !x.SubsetOf(d.Attrs()) {
		return nil, fmt.Errorf("core: target %s ⊄ U(D)", d.U.FormatSet(x))
	}
	cc := tableau.CC(d, x)
	if cc.Len() == 0 {
		return nil, fmt.Errorf("core: empty canonical connection (degenerate query)")
	}
	plan, err := program.CCPlan(d, x, cc)
	if err != nil {
		return nil, err
	}
	sol := &JoinSolution{CC: cc, Plan: plan}
	used := map[int]bool{}
	for _, m := range cc.Rels {
		for i, r := range d.Rels {
			if m.SubsetOf(r) {
				sol.Sources = append(sol.Sources, i)
				used[i] = true
				break
			}
		}
	}
	for i := range d.Rels {
		if !used[i] {
			sol.Irrelevant = append(sol.Irrelevant, i)
		}
	}
	return sol, nil
}

// SufficientSubschema reports whether joining the relations of D′ ≤ D
// (then projecting onto X) solves (D, X) on every UR database —
// Theorem 4.1: CC(D, X) ≤ D′.
func SufficientSubschema(d, dprime *schema.Schema, x schema.AttrSet) (bool, error) {
	if !dprime.LE(d) {
		return false, fmt.Errorf("core: D′ ⊀ D")
	}
	if !x.SubsetOf(d.Attrs()) {
		return false, fmt.Errorf("core: target ⊄ U(D)")
	}
	return tableau.CC(d, x).LE(dprime), nil
}

// LosslessReport is the §5 lossless-join analysis of D′ against D.
type LosslessReport struct {
	// Holds is ⋈D ⊨ ⋈D′ (Theorem 5.1).
	Holds bool
	// CC is CC(D, ∪D′), the certificate schema.
	CC *schema.Schema
	// SubtreeApplicable/Subtree report the Corollary 5.2 view when D is
	// a tree schema and D′ ⊆ D.
	SubtreeApplicable bool
	Subtree           bool
}

// LosslessJoin decides ⋈D ⊨ ⋈D′ and reports the certificates.
func LosslessJoin(d, dprime *schema.Schema) (*LosslessReport, error) {
	if !dprime.LE(d) {
		return nil, fmt.Errorf("core: D′ = %s ⊀ D = %s", dprime, d)
	}
	rep := &LosslessReport{
		Holds: lossless.Implies(d, dprime),
		CC:    tableau.CC(d, dprime.Attrs()),
	}
	if holds, ok := lossless.ImpliesSubtree(d, dprime); ok {
		rep.SubtreeApplicable = true
		rep.Subtree = holds
		if holds != rep.Holds {
			return nil, fmt.Errorf("core: internal: Corollary 5.2 disagrees with Theorem 5.1 on %s vs %s", d, dprime)
		}
	}
	return rep, nil
}

// ProgramAnalysis is the §6 view of a program against query (D, X).
type ProgramAnalysis struct {
	// PD is P(D): the schema mapping of the program.
	PD *schema.Schema
	// CC is CC(D, X).
	CC *schema.Schema
	// TPWrtD is the Theorem 6.1/6.3 search: a tree projection of P(D)
	// wrt D ∪ (X).
	TPWrtD treeproj.Result
	// TPWrtCC is the Theorem 6.2/6.4 (UR-specialized) search: a tree
	// projection of P(D) wrt CC(D, X) ∪ (X).
	TPWrtCC treeproj.Result
	// SemijoinBudget is the Theorem 6.1 bound on the extra semijoins
	// needed once a tree projection exists: 2·|D| (2·|CC| for the UR
	// case).
	SemijoinBudget int
}

// AnalyzeProgram runs the §6 tree-projection analysis of p against the
// query (p.D, x). A Found result in TPWrtCC certifies (Theorem 6.2)
// that p plus at most 2·|CC| semijoins solves the query on UR
// databases; by Theorem 6.4 a program that solves the query must make
// TPWrtCC.Found true (relative to the search pool — see treeproj).
func AnalyzeProgram(p *program.Program, x schema.AttrSet) (*ProgramAnalysis, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !x.SubsetOf(p.D.Attrs()) {
		return nil, fmt.Errorf("core: target ⊄ U(D)")
	}
	pd := p.SchemaMap()
	cc := tableau.CC(p.D, x)
	return &ProgramAnalysis{
		PD:             pd,
		CC:             cc,
		TPWrtD:         treeproj.ExistsWrtQuery(pd, p.D, x),
		TPWrtCC:        treeproj.ExistsWrtQuery(pd, cc, x),
		SemijoinBudget: 2 * cc.Len(),
	}, nil
}

// Kind is the shape of a query plan, decided by the planner. It labels
// where the head sits relative to the schema; the program is built the
// same way for every kind (program.Decompose, then program.Emit).
type Kind int

const (
	// KindFreeConnex: D is a tree schema AND stays one with X added as a
	// relation schema. Every projection pushes below the joins and no
	// intermediate materializes the full join; when X lies inside one
	// relation the plan is |D|−1 semijoins toward it and at most one
	// projection — no downward pass, no join.
	KindFreeConnex Kind = iota
	// KindAcyclic: a tree schema, but adding X breaks the tree (the
	// classic π_{a,c}(ab ⋈ bc)). Still semijoin-reduced and still
	// restricted to the subtree the head lives in, but the joins along
	// the paths between head attributes carry the links as well as X.
	KindAcyclic
	// KindCyclic: D is cyclic; the decomposition adds ∪GR(D) (§4).
	KindCyclic
)

func (k Kind) String() string {
	switch k {
	case KindFreeConnex:
		return "free-connex"
	case KindAcyclic:
		return "acyclic"
	case KindCyclic:
		return "cyclic"
	default:
		return "invalid"
	}
}

// QueryPlan is the planner's decision for a query (D, X).
type QueryPlan struct {
	Kind Kind
	// Dec is the tree schema the program evaluates over: D itself for a
	// tree schema (Dec.Root then indexes D), D with ∪GR(D) for a cyclic
	// one.
	Dec *program.Decomposition
	// Prog solves (D, X) on arbitrary databases for D.
	Prog *program.Program
}

// PlanQuery is the library's one planner: it reduces d once (GYO),
// labels the plan's Kind, decomposes (d, x) (program.Decompose) and
// emits the program (program.Emit). The facade's Plan and the
// conjunctive-query compiler both call it, so a schema solve and the
// conjunctive query it denotes get the same program.
func PlanQuery(d *schema.Schema, x schema.AttrSet) (*QueryPlan, error) {
	// Reject bad targets before the reduction, so repeated invalid
	// queries (which the serving layer cannot cache) stay cheap.
	if !x.SubsetOf(d.Attrs()) {
		return nil, fmt.Errorf("core: target %s ⊄ U(D)", d.U.FormatSet(x))
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	res := gyo.ReduceFull(d)
	qp := &QueryPlan{Kind: KindCyclic}
	if res.Empty() {
		qp.Kind = KindAcyclic
		if gyo.IsTree(d.WithRel(x)) {
			qp.Kind = KindFreeConnex
		}
	}
	var err error
	if qp.Dec, err = program.Decompose(d, res, x); err != nil {
		return nil, err
	}
	if qp.Prog, err = program.Emit(d, qp.Dec, x); err != nil {
		return nil, err
	}
	return qp, nil
}

// Prepare returns PlanQuery's program and a nil classification: the
// plan does not classify (Classify does). It is kept only because
// bench/probe.go, which changes only with the benchmark, times it as
// core.prepare_us; the benchmark change that points that probe at
// PlanQuery deletes it.
func Prepare(d *schema.Schema, x schema.AttrSet) (*Classification, *program.Program, error) {
	qp, err := PlanQuery(d, x)
	if err != nil {
		return nil, nil, err
	}
	return nil, qp.Prog, nil
}
