// Package gyokit is a library of the acyclic-database theory developed
// in Goodman, Shmueli & Tay, "GYO Reductions, Canonical Connections,
// Tree and Cyclic Schemas, and Tree Projections" (PODS 1983; JCSS 29,
// 1984): GYO (Graham–Yu–Ozsoyoglu) reductions, qual graphs and join
// trees, canonical connections via tableau minimization, tree
// projections, lossless-join tests, γ-acyclicity, and the
// join/semijoin/project query-processing programs they analyze.
//
// # Quick start
//
//	u := gyokit.NewUniverse()
//	d := gyokit.MustParse(u, "ab, bc, cd")       // the paper's notation
//	cls, _ := gyokit.Classify(d)                 // tree? γ-acyclic? GR(D)?
//	sol, _ := gyokit.SolveByJoins(d, u.Set("a", "d"))
//	qp, _ := gyokit.Plan(d, u.Set("a", "d"))     // qp.Prog.Eval(db)
//
// The facade re-exports the stable API of the internal packages:
//
//   - schema construction and parsing (internal/schema)
//   - GYO reductions GR(D, X) and the Corollary 3.1/3.2 tests
//     (internal/gyo)
//   - qual trees and the Theorem 3.1 subtree characterization
//     (internal/qualgraph)
//   - tableaux and canonical connections CC(D, X) (internal/tableau)
//   - lossless joins ⋈D ⊨ ⋈D′ (internal/lossless)
//   - γ-acyclicity (internal/gamma)
//   - query programs and plan builders (internal/program)
//   - tree projections (internal/treeproj)
//   - fixed treefication and bin packing (internal/treefy)
//
// All algorithms are deterministic and stdlib-only. NP-hard corners
// (tableau minimization on cyclic schemas, tree-projection search,
// fixed treefication) use exact exponential algorithms with documented
// input bounds, plus the polynomial special cases the paper proves for
// tree schemas.
//
// # Execution engine
//
// Relation states are backed by a columnar engine (internal/relation):
// tuples live in a chunked row-major []Value arena (4096-row chunks,
// immutable once full and shared between snapshots) with width-strided
// access and nothing stored beside a row's values. Every set-semantics
// index, join hash table, and semijoin key set is an open-addressing
// table keyed by a 64-bit word of the columns themselves (exact up to two
// columns, a verified fold beyond) — no string keys are materialized on
// any hot path. A reusable Exec context carries the scratch buffers and hash
// tables across the statements of a program run, so Program.Eval
// evaluates a whole §6 statement sequence without per-statement
// re-allocation. Eval returns Stats with per-statement tuples-in /
// tuples-out and wall time (Stats.Detail, Stats.Table), turning the
// paper's §6 cost analyses into observable numbers.
//
// # Serving engine
//
// For concurrent workloads, Engine (internal/engine) separates
// planning from execution and amortizes both across requests: one LRU
// plan cache keyed by canonical query text — a (schema, X) solve is
// lowered to the conjunctive query it already is — holds the plan's
// Kind, decomposition and compiled Program, so repeat queries skip
// GYO reduction and planning entirely; a sync.Pool of Exec contexts, one
// per in-flight (serial) evaluation, lets concurrent requests reuse hash
// tables without locking; and
// queries run against immutable frozen Database snapshots swapped in
// atomically by writers (Database.Clone, Database.InsertTuple,
// Engine.Swap), so readers never block. NewEngineServer exposes an
// Engine over HTTP (/v1/classify, /v1/plan, /v1/solve, /v1/query,
// /v1/insert, /v1/delete, /v1/load) — cmd/gyod is the ready-made
// daemon, and go run ./bench is the load driver.
//
// # Durability
//
// internal/storage adds crash recovery underneath the engine: a
// write-ahead log of logical mutation batches (one CRC-framed, fsynced
// record per Engine.Apply call) plus checkpointed snapshots of the
// columnar representation (a manifest over an append-only chunk store),
// written atomically in the background off the latest frozen snapshot.
// Recovery loads the newest valid manifest, replays the WAL tail, and
// tolerates the torn final record of a crash — acknowledged mutations
// are recovered exactly.
// gyod -data DIR serves a durable store across restarts and shuts
// down gracefully on SIGINT/SIGTERM.
package gyokit

import (
	"math/rand"

	"gyokit/internal/core"
	"gyokit/internal/cq"
	"gyokit/internal/engine"
	"gyokit/internal/gamma"
	"gyokit/internal/graph"
	"gyokit/internal/gyo"
	"gyokit/internal/lossless"
	"gyokit/internal/program"
	"gyokit/internal/qualgraph"
	"gyokit/internal/relation"
	"gyokit/internal/schema"
	"gyokit/internal/tableau"
	"gyokit/internal/treefy"
	"gyokit/internal/treeproj"
)

// Core schema types (paper §2).
type (
	// Attr identifies an attribute within a Universe.
	Attr = schema.Attr
	// AttrSet is an immutable bitset of attributes.
	AttrSet = schema.AttrSet
	// Universe interns attribute names.
	Universe = schema.Universe
	// Schema is a database schema: a multiset of relation schemas.
	Schema = schema.Schema
)

// Graph and program types.
type (
	// JoinTree is an undirected graph over a schema's relations; when
	// returned by QualTree it satisfies the qual-graph property.
	JoinTree = graph.Undirected
	// Program is a join/semijoin/project statement sequence (§6).
	Program = program.Program
	// Relation is a relation state.
	Relation = relation.Relation
	// Database is a database state for a schema: one relation state per
	// relation schema, in the schema's order, and nothing else.
	Database = relation.Database
	// Value is a single attribute value.
	Value = relation.Value
	// Tuple is a row of a relation state.
	Tuple = relation.Tuple
	// Exec is a reusable relational execution context: one Exec
	// amortizes hash tables and scratch buffers across operator calls.
	Exec = relation.Exec
	// Stats is the cost report of a Program.Eval run.
	Stats = program.Stats
	// StmtStat is one statement's observed cost within Stats.
	StmtStat = program.StmtStat
	// Tableau is a query tableau (§3.4).
	Tableau = tableau.Tableau
)

// Serving-layer types (internal/engine).
type (
	// Engine is the concurrent query-serving engine: plan cache, Exec
	// pool, and atomic database snapshots.
	Engine = engine.Engine
	// EngineOptions configures an Engine.
	EngineOptions = engine.Options
	// EngineStats is a snapshot of engine counters.
	EngineStats = engine.Stats
	// PreparedPlan is a cache-resident compiled query: classification
	// plus program.
	PreparedPlan = engine.Plan
	// EngineServer exposes an Engine over HTTP (the gyod API).
	EngineServer = engine.Server
)

// Conjunctive-query front end (internal/cq).
type (
	// CQ is a parsed conjunctive query in the Datalog-style grammar,
	// e.g. "ans(X, Z) :- r(X, Y), s(Y, Z).".
	CQ = cq.Query
	// CompiledCQ is a planned conjunctive query: hypergraph,
	// free-connex/acyclic/cyclic kind, decomposition and the compiled
	// program.
	CompiledCQ = cq.Compiled
	// CQKind labels a compiled query's planning class.
	CQKind = cq.Kind
)

// Analysis result types.
type (
	// Classification is the §3 status of a schema.
	Classification = core.Classification
	// QueryPlan is the planner's decision for a query (D, X): the plan
	// Kind, the decomposition Dec (bags, their sources, a qual tree over
	// them and its root) and the program.
	QueryPlan = core.QueryPlan
	// JoinSolution is the §4 join-plan answer.
	JoinSolution = core.JoinSolution
	// LosslessReport is the §5 lossless-join analysis.
	LosslessReport = core.LosslessReport
	// ProgramAnalysis is the §6 tree-projection analysis.
	ProgramAnalysis = core.ProgramAnalysis
	// GYOResult is a (partial) GYO reduction outcome.
	GYOResult = gyo.Result
	// TPResult reports a tree-projection search.
	TPResult = treeproj.Result
)

// NewUniverse returns an empty attribute universe.
func NewUniverse() *Universe { return schema.NewUniverse() }

// NewExec returns a fresh relational execution context.
func NewExec() *Exec { return relation.NewExec() }

// NewEngine returns a concurrent query-serving engine.
func NewEngine(opts EngineOptions) *Engine { return engine.New(opts) }

// NewEngineServer returns the HTTP server over e; d (parsed into u) is
// the serving schema backing /v1/solve and may be nil.
func NewEngineServer(e *Engine, u *Universe, d *Schema) *EngineServer {
	return engine.NewServer(e, u, d)
}

// ParseCQ parses a conjunctive query, e.g.
// "ans(X, Z) :- r(X, Y), s(Y, Z).". Errors carry line:column positions.
func ParseCQ(text string) (*CQ, error) { return cq.Parse(text) }

// CompileCQ parses and plans a conjunctive query (see Plan):
// free-connex and acyclic queries get the answer-directed Yannakakis
// program (semijoins up the whole tree; semijoins down, joins and
// projections only over the subtree the head lives in), cyclic queries
// the paper's §4 strategy (materialize ∪GR(D), then the same program
// over the resulting tree schema).
func CompileCQ(text string) (*CompiledCQ, error) { return cq.Compile(text) }

// NewSchema returns a schema over u with the given relation schemas.
func NewSchema(u *Universe, rels ...AttrSet) *Schema { return schema.New(u, rels...) }

// Parse parses the paper's compact notation, e.g. "ab, bc, cd".
func Parse(u *Universe, s string) (*Schema, error) { return schema.Parse(u, s) }

// MustParse is Parse that panics on error.
func MustParse(u *Universe, s string) *Schema { return schema.MustParse(u, s) }

// Aring returns the Aring of size n (§3.1).
func Aring(u *Universe, n int) *Schema { return schema.Aring(u, n, "") }

// Aclique returns the Aclique of size n (§3.1).
func Aclique(u *Universe, n int) *Schema { return schema.Aclique(u, n, "") }

// GYOReduce computes the GYO reduction GR(D, X) with sacred set X (§3.3).
func GYOReduce(d *Schema, x AttrSet) *GYOResult { return gyo.Reduce(d, x) }

// IsTreeSchema reports whether D is a tree schema (Corollary 3.1).
func IsTreeSchema(d *Schema) bool { return gyo.IsTree(d) }

// TreefyingRelation returns ∪GR(D), the least-cardinality relation
// whose addition makes D a tree schema (Corollary 3.2).
func TreefyingRelation(d *Schema) AttrSet { return gyo.TreefyingRelation(d) }

// QualTree returns a qual tree for D, with ok=false for cyclic schemas.
func QualTree(d *Schema) (t *JoinTree, ok bool) { return qualgraph.QualTree(d) }

// IsSubtree reports whether D′ is a subtree of tree schema D
// (Theorem 3.1(ii)).
func IsSubtree(d, dprime *Schema) bool { return qualgraph.IsSubtree(d, dprime) }

// CC computes the canonical connection CC(D, X) (§3.4), taking the
// Theorem 3.3(ii) GYO fast path on tree schemas.
func CC(d *Schema, x AttrSet) *Schema { return tableau.CC(d, x) }

// QueriesEquivalent decides (D, X) ≡ (D′, X) over universal databases
// (Lemma 3.2).
func QueriesEquivalent(d, dprime *Schema, x AttrSet) bool {
	return tableau.QueriesEquivalent(d, dprime, x)
}

// Classify computes the full §3 classification of d.
func Classify(d *Schema) (*Classification, error) { return core.Classify(d) }

// SolveByJoins computes CC(D, X) and the Corollary 4.1 join plan.
func SolveByJoins(d *Schema, x AttrSet) (*JoinSolution, error) { return core.SolveByJoins(d, x) }

// LosslessJoin decides ⋈D ⊨ ⋈D′ (Theorem 5.1, Corollary 5.2).
func LosslessJoin(d, dprime *Schema) (*LosslessReport, error) { return core.LosslessJoin(d, dprime) }

// Implies is the bare ⋈D ⊨ ⋈D′ decision (Theorem 5.1).
func Implies(d, dprime *Schema) bool { return lossless.Implies(d, dprime) }

// IsGammaAcyclic decides γ-acyclicity with the polynomial
// Theorem 5.3(ii) test.
func IsGammaAcyclic(d *Schema) bool { return gamma.IsGammaAcyclic(d) }

// Plan is the planner: it decomposes (D, X) into a tree schema
// (qp.Dec) and builds the program solving (D, X) on any database for D
// — answer-directed Yannakakis over the bags, rooted (qp.Dec.Root) where
// the fewest bags must hand tuples rather than a filter up the tree. On
// a tree schema the bags are D (qp.Kind free-connex when D ∪ (X) is
// still a tree, else acyclic); on a cyclic one (qp.Kind cyclic) the §4
// strategy adds ∪GR(D) per Corollary 3.2, built from the GYO survivors.
func Plan(d *Schema, x AttrSet) (*QueryPlan, error) { return core.PlanQuery(d, x) }

// AnalyzeProgram runs the §6 tree-projection analysis of p against
// (p.D, x) (Theorems 6.1–6.4).
func AnalyzeProgram(p *Program, x AttrSet) (*ProgramAnalysis, error) {
	return core.AnalyzeProgram(p, x)
}

// IsTreeProjection reports D″ ∈ TP(D′, D) (§3.2).
func IsTreeProjection(dpp, dprime, d *Schema) bool {
	return treeproj.IsTreeProjection(dpp, dprime, d)
}

// FindTreeProjection searches for a tree projection of D′ wrt D.
func FindTreeProjection(dprime, d *Schema) TPResult { return treeproj.Exists(dprime, d) }

// Treefy decides the fixed-treefication instance (D, K, B) via the
// Theorem 4.2 bin-packing route and returns witness relations.
// Exact for the theorem's Aclique family; see internal/treefy.
func Treefy(d *Schema, k, b int) (witness []AttrSet, ok bool) {
	return treefy.Solve(treefy.Instance{D: d, K: k, B: b})
}

// RandomURDatabase builds a universal-relation database over d: the
// projections onto d's relation schemas of a universal relation of up
// to n tuples drawn from [0, domain) per column, which is not kept.
// When fewer than n distinct tuples exist the universal relation
// saturates below n (see relation.RandomUniversal for the retry bound).
func RandomURDatabase(d *Schema, n, domain int, seed int64) *Database {
	rng := rand.New(rand.NewSource(seed))
	i, _ := relation.RandomUniversal(d.U, d.Attrs(), n, domain, rng)
	return relation.URDatabase(d, i)
}
