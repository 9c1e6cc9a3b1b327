package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"mime"
	"net/http"
	"runtime"
	"strings"
	"time"

	"gyokit/internal/core"
	"gyokit/internal/program"
	"gyokit/internal/relation"
	"gyokit/internal/schema"
	"gyokit/internal/storage"
)

// Server exposes an Engine over HTTP — the gyod API. Endpoints live
// under the versioned prefix /v1; the read side mirrors the paper's
// pipeline:
//
//	POST /v1/classify  {"schema": "ab, bc, cd"}           §3 classification
//	POST /v1/plan      {"schema": "...", "x": "ad"}       compiled §4/§6 program
//	POST /v1/solve     {"x": "ad", "schema"?, "limit"?,   evaluate on the snapshot
//	                    "parallelism"?, "timeoutMs"?}      ("parallelism" is ignored)
//	POST /v1/query     {"query": "ans(X,Z) :- ..."}        conjunctive query with
//	                    or a text/plain query body          free-connex-aware planning
//
// the write side mutates the serving snapshot through the engine's
// durable Apply path (acknowledged responses are on disk when the
// engine has a Store):
//
//	POST /v1/insert    {"rel": "ab", "tuples": [[1,2]]}   insert a tuple batch
//	POST /v1/delete    {"rel": "ab", "tuples": [[1,2]]}   delete a tuple batch
//	POST /v1/load      {"relations": [{"rel": ..,         bulk ingest: one atomic
//	                    "tuples": ..}, ...]}               multi-relation batch
//
// plus GET /v1/stats (engine counters, per-relation cardinalities and
// arena bytes, durability counters, process/build info), GET
// /v1/metrics (the engine's observability registry in Prometheus text
// exposition format), GET /v1/healthz (JSON readiness: store health on
// a leader, lag-bounded readiness on a follower), GET
// /v1/replica/status (replication role, cursor, and lag), and POST
// /v1/promote (turn a follower into a writable leader — see
// server_repl.go). On a follower every write endpoint answers 409 with
// code read_only_replica and the leader's URL.
//
// Every reply carries a server-generated request id in the
// X-Request-Id header; error responses echo it in a uniform JSON
// envelope {"error": {"code", "message", "requestId"}}, the key
// correlating client reports with the slow-query log. POST endpoints
// enforce their method (405 with Allow) and content type (415 on
// anything but application/json — /v1/query also accepts text/plain).
//
// Client input never grows the serving Universe: /v1/classify and
// /v1/plan parse into a throwaway per-request universe (the plan cache
// still hits for repeated request texts: its keys spell names and ids,
// and a fresh universe gives the same text the same ids), /v1/query
// compiles over its own variable universe, and
// /v1/solve and the mutation endpoints resolve names against the
// serving universe by lookup only, rejecting unknown attributes. A
// client streaming fresh attribute names therefore cannot leak memory
// into the server. Request bodies are size-capped (MaxBodyBytes,
// MaxLoadBytes) on every endpoint.
type Server struct {
	E *Engine
	// U is the serving universe: the attribute names of the serving
	// schema D. /v1/solve requests resolve against it without interning.
	U *schema.Universe
	// D is the serving schema: the default for /v1/solve when the
	// request omits "schema". May be nil when the server has no
	// database.
	D *schema.Schema
	// MaxTuples caps the tuples echoed by /v1/solve and /v1/query (the
	// cardinality is always reported in full). Zero means
	// DefaultMaxTuples.
	MaxTuples int
	// MaxLoadBytes caps the /v1/load request body. Zero means
	// DefaultMaxLoadBytes.
	MaxLoadBytes int64
	// SlowQuery, when positive, makes /v1/solve and /v1/query log any
	// request whose end-to-end evaluation exceeds it — request id, query
	// fingerprint, and the top-3 most expensive statements
	// — through the engine's Logf. Zero disables the slow-query log.
	SlowQuery time.Duration
	// Gas caps the tuples a single /v1/solve or /v1/query evaluation may
	// produce across all program statements — the multi-tenant rail
	// against a query whose intermediates explode. Exceeding it aborts
	// the run with a typed resource_exhausted error (HTTP 429). Zero
	// disables the gas rail.
	Gas int
	// QueryTimeout bounds a single /v1/solve or /v1/query evaluation. A
	// client may lower it per request ("timeoutMs") but never raise it.
	// Hitting the deadline aborts the run with a typed deadline_exceeded
	// error (HTTP 504). Zero disables the server-side deadline.
	QueryTimeout time.Duration
	// Replica, when non-nil, marks this server as part of a replication
	// pair: /v1/replica/status and POST /v1/promote delegate to it,
	// write rejections carry its leader URL, and /v1/healthz folds its
	// lag and divergence state into readiness. Nil means a plain leader.
	Replica ReplicaController
	// MaxLagBytes, when positive, makes /v1/healthz report a follower
	// unready once its replication lag exceeds this many WAL bytes (or
	// is unknown) — the hook for load balancers to pull stale replicas.
	MaxLagBytes int64
}

// DefaultMaxTuples is the /v1/solve and /v1/query response tuple cap
// when Server leaves MaxTuples at zero.
const DefaultMaxTuples = 1000

// MaxBodyBytes caps standard JSON request bodies (all endpoints except
// /v1/load, which has its own configurable bulk cap).
const MaxBodyBytes = 1 << 20

// DefaultMaxLoadBytes is the /v1/load body cap when Server leaves
// MaxLoadBytes at zero: bulk ingest gets more room than a point write
// but is still strictly bounded.
const DefaultMaxLoadBytes = 32 << 20

// NewServer returns a Server over e. d (with its universe u) is the
// serving schema backing /v1/solve; it may be nil for a planning-only
// server.
func NewServer(e *Engine, u *schema.Universe, d *schema.Schema) *Server {
	return &Server{E: e, U: u, D: d}
}

// Handler returns the HTTP handler serving the gyod API: every
// endpoint under /v1, and a request-id middleware wrapping the whole
// tree so every reply — success or error, any route — carries
// X-Request-Id.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for name, h := range map[string]http.HandlerFunc{
		"classify":       s.handleClassify,
		"plan":           s.handlePlan,
		"solve":          s.handleSolve,
		"query":          s.handleQuery,
		"insert":         s.handleInsert,
		"delete":         s.handleDelete,
		"load":           s.handleLoad,
		"stats":          s.handleStats,
		"metrics":        s.handleMetrics,
		"healthz":        s.handleHealthz,
		"replica/status": s.handleReplicaStatus,
		"promote":        s.handlePromote,
	} {
		mux.Handle("/v1/"+name, h)
	}
	return withRequestID(mux)
}

// withRequestID stamps every response with a process-unique request id
// before the handler runs, so handlers and writeError read it back
// from the response headers (requestID) rather than threading it
// through every call.
func withRequestID(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Request-Id", newRequestID())
		h.ServeHTTP(w, r)
	})
}

// requestID reads back the id stamped by withRequestID.
func requestID(w http.ResponseWriter) string {
	return w.Header().Get("X-Request-Id")
}

type classifyRequest struct {
	Schema string `json:"schema"`
}

// ClassifyResponse is the /v1/classify reply.
type ClassifyResponse struct {
	Schema       string   `json:"schema"`
	Tree         bool     `json:"tree"`
	GammaAcyclic bool     `json:"gammaAcyclic"`
	GR           string   `json:"gr"`
	TreefyWith   string   `json:"treefyWith,omitempty"` // Corollary 3.2 relation, cyclic only
	QualTree     [][2]int `json:"qualTree,omitempty"`   // edges over relation indexes, tree only
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	var req classifyRequest
	if !decode(w, r, &req) {
		return
	}
	u := schema.NewUniverse() // per-request: client names never enter s.U
	d, err := schema.Parse(u, req.Schema)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_request", err)
		return
	}
	cls, err := core.Classify(d)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_request", err)
		return
	}
	resp := ClassifyResponse{
		Schema:       d.String(),
		Tree:         cls.Tree,
		GammaAcyclic: cls.GammaAcyclic,
		GR:           cls.GR.String(),
	}
	if cls.Tree {
		resp.QualTree = cls.QualTree.Edges()
	} else {
		resp.TreefyWith = u.FormatSet(cls.TreefyingRelation)
	}
	writeJSON(w, resp)
}

type planRequest struct {
	Schema string `json:"schema"`
	X      string `json:"x"`
}

// PlanStmt is one program statement in a /v1/plan reply. Right is -1
// for projections, which have a single operand.
type PlanStmt struct {
	ID    int    `json:"id"`
	Op    string `json:"op"`
	Left  int    `json:"left"`
	Right int    `json:"right"`
	Proj  string `json:"proj,omitempty"`
}

// PlanResponse is the /v1/plan reply.
type PlanResponse struct {
	Schema string     `json:"schema"`
	X      string     `json:"x"`
	Tree   bool       `json:"tree"`
	Kind   string     `json:"kind"` // free-connex | acyclic | cyclic
	Stmts  []PlanStmt `json:"stmts"`
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var req planRequest
	if !decode(w, r, &req) {
		return
	}
	u := schema.NewUniverse() // per-request: client names never enter s.U
	d, err := schema.Parse(u, req.Schema)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_request", err)
		return
	}
	x, err := parseTarget(u, req.X)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_request", err)
		return
	}
	pl, err := s.E.Plan(d, x)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_request", err)
		return
	}
	// Format everything through the plan's own universe: on a cache hit
	// pl may predate this request, and only its universe is guaranteed
	// to name its AttrSets correctly.
	resp := PlanResponse{
		Schema: pl.D.String(),
		X:      pl.D.U.FormatSet(pl.Head),
		Tree:   pl.Kind != core.KindCyclic,
		Kind:   pl.Kind.String(),
		Stmts:  make([]PlanStmt, len(pl.Prog.Stmts)),
	}
	n := len(pl.D.Rels)
	for i, st := range pl.Prog.Stmts {
		ps := PlanStmt{ID: n + i, Op: st.Kind.String(), Left: st.Left, Right: st.Right}
		if st.Kind == program.Project {
			ps.Right = -1
			ps.Proj = pl.D.U.FormatSet(st.Proj)
		}
		resp.Stmts[i] = ps
	}
	writeJSON(w, resp)
}

// readOptions are the request fields /v1/solve and /v1/query share.
type readOptions struct {
	// Limit caps the tuples echoed for this request. A pointer so that
	// an explicit 0 ("card only, no tuples") is distinguishable from an
	// omitted field (server default); negative limits are rejected. The
	// resolved cap is also how many answer rows the evaluation builds
	// when the answer is a join (Program.Run): card stays exact, and the
	// gas counts every answer row as before.
	Limit *int `json:"limit,omitempty"`
	// Parallelism is accepted and ignored; evaluation is serial. It was
	// the per-request shard count of the deleted partition-parallel
	// executor, and stays decodable because the handlers reject unknown
	// fields and existing clients (bench's q9 shape and trace pass)
	// still send it.
	Parallelism int `json:"parallelism,omitempty"`
	// Trace adds a per-statement span tree to the reply: one span per
	// executed program statement, nested by data flow, with input/output
	// cardinalities and elapsed time. The untraced path pays nothing for
	// the feature — spans are built from the run's statistics only when
	// requested.
	Trace bool `json:"trace,omitempty"`
	// TimeoutMs lowers the server's QueryTimeout for this request; it
	// can never raise it. Negative values are rejected.
	TimeoutMs int `json:"timeoutMs,omitempty"`
}

type solveRequest struct {
	X      string `json:"x"`
	Schema string `json:"schema,omitempty"` // defaults to the serving schema
	readOptions
}

// SolveStats is the cost report embedded in a /v1/solve or /v1/query
// reply.
type SolveStats struct {
	Statements      int   `json:"statements"`
	TuplesProduced  int   `json:"tuplesProduced"`
	MaxIntermediate int   `json:"maxIntermediate"`
	Joins           int   `json:"joins"`
	Projects        int   `json:"projects"`
	Semijoins       int   `json:"semijoins"`
	ElapsedNs       int64 `json:"elapsedNs"`
}

func solveStats(st *program.Stats) SolveStats {
	return SolveStats{
		Statements:      len(st.Detail),
		TuplesProduced:  st.TuplesProduced,
		MaxIntermediate: st.MaxIntermediate,
		Joins:           st.Joins,
		Projects:        st.Projects,
		Semijoins:       st.Semijoins,
		ElapsedNs:       st.Elapsed.Nanoseconds(),
	}
}

// Answer is the evaluated part of a /v1/solve or /v1/query reply.
// Tuples holds up to the configured cap of result rows in Cols order;
// Card is always the full count.
type Answer struct {
	Cols      []string           `json:"cols"`
	Card      int                `json:"card"`
	Tuples    [][]relation.Value `json:"tuples"`
	Truncated bool               `json:"truncated,omitempty"`
	Stats     SolveStats         `json:"stats"`
	Trace     *program.Span      `json:"trace,omitempty"` // present when the request set "trace": true
}

// SolveResponse is the /v1/solve reply; its columns are in sorted
// attribute order.
type SolveResponse struct {
	X         string `json:"x"`
	RequestID string `json:"requestId"` // also in the X-Request-Id header
	Kind      string `json:"kind"`      // free-connex | acyclic | cyclic
	Answer
}

// echoLimit resolves the per-request tuple echo cap: the client may
// lower the server's bound — including to an explicit 0 for a
// card-only response — but never raise it. A negative limit is a
// request error, reported before any evaluation work.
func (s *Server) echoLimit(w http.ResponseWriter, reqLimit *int) (int, bool) {
	capTuples := s.MaxTuples
	if capTuples <= 0 {
		capTuples = DefaultMaxTuples
	}
	limit := capTuples
	if reqLimit != nil {
		switch l := *reqLimit; {
		case l < 0:
			writeError(w, http.StatusBadRequest, "invalid_request", fmt.Errorf("negative limit %d", l))
			return 0, false
		case l < capTuples:
			limit = l
		}
	}
	return limit, true
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req solveRequest
	if !decode(w, r, &req) {
		return
	}
	d := s.D
	if req.Schema != "" {
		var err error
		if d, err = s.lookupSchema(req.Schema); err != nil {
			writeError(w, http.StatusBadRequest, "invalid_request", err)
			return
		}
	}
	if d == nil {
		writeError(w, http.StatusBadRequest, "invalid_request", fmt.Errorf("no serving schema configured; pass \"schema\""))
		return
	}
	x, err := s.lookupTarget(req.X)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_request", err)
		return
	}
	pl, hit, err := s.E.plan(d, x)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_request", err)
		return
	}
	text := s.U.FormatSet(x)
	if ans, ok := s.answer(w, req.readOptions, pl, hit, text, "invalid_request"); ok {
		writeJSON(w, SolveResponse{X: text, RequestID: requestID(w), Kind: pl.Kind.String(), Answer: ans})
	}
}

// queryRequest is the /v1/query JSON body. The endpoint equally
// accepts a text/plain body holding just the query text, with every
// option at its default.
type queryRequest struct {
	// Query is the conjunctive query in the internal/cq grammar, e.g.
	// "ans(X, Z) :- ab(X, Y), bc(Y, Z)." — predicates name serving
	// relations by their attribute sets.
	Query string `json:"query"`
	readOptions
}

// QueryResponse is the /v1/query reply. Cols and Tuples are in the
// head's written order (the order the query's answer atom lists its
// variables), not the engine's internal column order.
type QueryResponse struct {
	Query     string `json:"query"`     // canonical form of the executed query
	RequestID string `json:"requestId"` // also in the X-Request-Id header
	Kind      string `json:"kind"`      // free-connex | acyclic | cyclic
	Answer
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if !allowMethod(w, r, http.MethodPost) {
		return
	}
	mt, ok := contentTypeOK(r, "application/json", "text/plain")
	if !ok {
		writeUnsupportedMediaType(w, r, "application/json or text/plain")
		return
	}
	var req queryRequest
	if mt == "text/plain" {
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
		if err != nil {
			writeBodyError(w, err)
			return
		}
		req.Query = string(body)
	} else if !decodeJSON(w, r, &req, MaxBodyBytes) {
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		writeError(w, http.StatusBadRequest, "invalid_request", fmt.Errorf("missing \"query\""))
		return
	}
	pl, hit, err := s.E.prepareQuery(req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_query", err)
		return
	}
	if ans, ok := s.answer(w, req.readOptions, pl, hit, pl.Canonical, "invalid_query"); ok {
		writeJSON(w, QueryResponse{Query: pl.Canonical, RequestID: requestID(w), Kind: pl.Kind.String(), Answer: ans})
	}
}

// answer is the core of both read endpoints: it evaluates pl — which
// the endpoint obtained with cache outcome hit — under the request's
// options and the server's rails, and builds the reply's Answer with
// the result's columns echoed in the plan's head order (a written
// query's head as written; a schema solve's target in attribute order).
// text identifies the request in the slow-query log; errCode is the
// endpoint's code for an evaluation that fails for any reason but a
// rail. On failure the error response has been written and ok is false.
func (s *Server) answer(w http.ResponseWriter, opt readOptions, pl *Plan, hit bool, text string, errCode string) (ans Answer, ok bool) {
	limit, ok := s.echoLimit(w, opt.Limit)
	if !ok {
		return ans, false
	}
	if opt.TimeoutMs < 0 {
		writeError(w, http.StatusBadRequest, "invalid_request", fmt.Errorf("negative timeoutMs %d", opt.TimeoutMs))
		return ans, false
	}
	// The evaluation rails: the server's gas budget, and the tighter of
	// the server's and the client's deadline. The client's is clamped to
	// the longest Duration first: past it the product would wrap
	// negative and unset the deadline.
	lim := program.Limits{MaxTuples: s.Gas}
	timeout := s.QueryTimeout
	if opt.TimeoutMs > 0 {
		const maxMs = int64(math.MaxInt64 / time.Millisecond)
		if ct := time.Duration(min(int64(opt.TimeoutMs), maxMs)) * time.Millisecond; timeout <= 0 || ct < timeout {
			timeout = ct
		}
	}
	if timeout > 0 {
		lim.Deadline = time.Now().Add(timeout)
	}
	t0 := time.Now()
	out, st, err := s.E.run(s.E.Snapshot(), pl, hit, lim, limit)
	elapsed := time.Since(t0)
	if err != nil {
		switch {
		case errors.Is(err, program.ErrGasExhausted):
			writeError(w, http.StatusTooManyRequests, "resource_exhausted", err)
		case errors.Is(err, program.ErrDeadlineExceeded):
			writeError(w, http.StatusGatewayTimeout, "deadline_exceeded", err)
		default:
			writeError(w, http.StatusBadRequest, errCode, err)
		}
		return ans, false
	}
	if s.SlowQuery > 0 && elapsed >= s.SlowQuery {
		s.logSlowQuery(requestID(w), pl.Canonical, text, elapsed, st)
	}
	// out holds at least the rows echoed; the answer may have more.
	ans = Answer{
		Cols:  pl.HeadVars,
		Card:  st.AnswerCard(),
		Stats: solveStats(st),
	}
	if opt.Trace {
		if span, serr := pl.Prog.SpanTree(st); serr == nil {
			ans.Trace = span
		}
	}
	// The result relation's columns are in sorted attribute order;
	// permute each echoed tuple into the head's order.
	stored := out.Cols()
	perm := make([]int, len(pl.HeadIDs))
	for j, id := range pl.HeadIDs {
		perm[j] = indexOfAttr(stored, id)
	}
	echo := min(ans.Card, limit)
	ans.Truncated = ans.Card > limit
	ans.Tuples = make([][]relation.Value, echo)
	for i := range ans.Tuples {
		row := out.TupleAt(i)
		t := make([]relation.Value, len(perm))
		for j, p := range perm {
			t[j] = row[p]
		}
		ans.Tuples[i] = t
	}
	return ans, true
}

// MutateResponse is the /v1/insert and /v1/delete reply, and one
// element of a /v1/load reply. Applied counts the tuples actually
// inserted or deleted (set semantics: duplicates and absentees don't
// count); Card is the relation's cardinality in the published
// snapshot. Durable reports whether the acknowledged batch is on disk.
type MutateResponse struct {
	Rel       string `json:"rel"`
	Requested int    `json:"requested"`
	Applied   int    `json:"applied"`
	Card      int    `json:"card"`
	Durable   bool   `json:"durable"`
}

// LoadResponse is the /v1/load reply: per-relation outcomes of one
// atomic multi-relation batch.
type LoadResponse struct {
	Relations []MutateResponse `json:"relations"`
	Durable   bool             `json:"durable"`
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	s.handleMutate(w, r, storage.KindInsert)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	s.handleMutate(w, r, storage.KindDelete)
}

func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request, kind storage.Kind) {
	var req mutateRequest
	if !decodeWith(w, r, MaxBodyBytes, func(b []byte) error { return decodeMutate(b, &req) }) {
		return
	}
	db := s.E.Snapshot()
	if db == nil {
		writeError(w, http.StatusBadRequest, "invalid_request", fmt.Errorf("no database snapshot installed"))
		return
	}
	m, err := s.buildMutation(db, kind, req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_request", err)
		return
	}
	next, counts, err := s.E.Apply(m)
	if err != nil {
		if errors.Is(err, ErrReadOnly) {
			s.writeReadOnly(w)
			return
		}
		status, code := applyStatus(err)
		writeError(w, status, code, err)
		return
	}
	writeJSON(w, MutateResponse{
		Rel:       req.rel,
		Requested: req.tuples,
		Applied:   counts[0],
		Card:      next.Rels[m.Rel].Card(),
		Durable:   s.E.Durable(),
	})
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	capBytes := s.MaxLoadBytes
	if capBytes <= 0 {
		capBytes = DefaultMaxLoadBytes
	}
	var req loadRequest
	if !decodeWith(w, r, capBytes, func(b []byte) error { return decodeLoad(b, &req) }) {
		return
	}
	if len(req.relations) == 0 {
		writeError(w, http.StatusBadRequest, "invalid_request", fmt.Errorf("empty \"relations\""))
		return
	}
	db := s.E.Snapshot()
	if db == nil {
		writeError(w, http.StatusBadRequest, "invalid_request", fmt.Errorf("no database snapshot installed"))
		return
	}
	muts := make([]storage.Mutation, len(req.relations))
	for i, mr := range req.relations {
		m, err := s.buildMutation(db, storage.KindInsert, mr)
		if err != nil {
			writeError(w, http.StatusBadRequest, "invalid_request", fmt.Errorf("relations[%d]: %w", i, err))
			return
		}
		muts[i] = m
	}
	next, counts, err := s.E.Apply(muts...)
	if err != nil {
		if errors.Is(err, ErrReadOnly) {
			s.writeReadOnly(w)
			return
		}
		status, code := applyStatus(err)
		writeError(w, status, code, err)
		return
	}
	resp := LoadResponse{Durable: s.E.Durable()}
	for i, mr := range req.relations {
		resp.Relations = append(resp.Relations, MutateResponse{
			Rel:       mr.rel,
			Requested: mr.tuples,
			Applied:   counts[i],
			Card:      next.Rels[muts[i].Rel].Card(),
			Durable:   s.E.Durable(),
		})
	}
	writeJSON(w, resp)
}

// applyStatus maps an Engine.Apply error to an HTTP status and error
// code: a durability failure is the server's fault (5xx, retryable,
// should alert), everything else is request validation (4xx).
func applyStatus(err error) (int, string) {
	if errors.Is(err, ErrDurability) {
		return http.StatusInternalServerError, "internal"
	}
	return http.StatusBadRequest, "invalid_request"
}

// buildMutation resolves a mutateRequest against the snapshot's schema
// (lookup-only: unknown attribute names are a request error) and
// validates tuple arities.
//
// The resolved index is re-validated by Apply only for range and
// width: no HTTP endpoint changes the schema, so the resolution cannot
// go stale under pure-HTTP traffic, but an embedding process that
// issues Create/Drop mutations through the Go API concurrently with
// HTTP writes can shift indexes between resolution and Apply.
func (s *Server) buildMutation(db *relation.Database, kind storage.Kind, req mutateRequest) (storage.Mutation, error) {
	if req.rel == "" {
		return storage.Mutation{}, fmt.Errorf("missing relation \"rel\"")
	}
	set, err := s.lookupTarget(req.rel)
	if err != nil {
		return storage.Mutation{}, err
	}
	idx := -1
	if req.hasIndex {
		// Explicit position: must name the same relation schema, so a
		// stale index cannot silently write to the wrong relation.
		i := req.index
		if i < 0 || i >= len(db.D.Rels) {
			return storage.Mutation{}, fmt.Errorf("index %d out of range (schema has %d relations)", i, len(db.D.Rels))
		}
		if !db.D.Rels[i].Equal(set) {
			return storage.Mutation{}, fmt.Errorf("relation at index %d is %s, not %q",
				i, db.D.U.FormatSet(db.D.Rels[i]), req.rel)
		}
		idx = i
	} else {
		for i, r := range db.D.Rels {
			if r.Equal(set) {
				idx = i
				break
			}
		}
		if idx < 0 {
			return storage.Mutation{}, fmt.Errorf("relation %q not in serving schema %s", req.rel, db.D)
		}
	}
	width := set.Card()
	switch {
	case req.tuples > 0 && req.arity != width:
		return storage.Mutation{}, fmt.Errorf("tuple 0 has arity %d, want %d", req.arity, width)
	case req.odd >= 0:
		return storage.Mutation{}, fmt.Errorf("tuple %d has arity %d, want %d", req.odd, req.oddArity, width)
	case req.tuples == 0:
		return storage.Mutation{}, fmt.Errorf("empty \"tuples\"")
	}
	return storage.Mutation{Kind: kind, Rel: idx, Width: width, Values: req.values}, nil
}

// RelationStats describes one relation of the live snapshot.
type RelationStats struct {
	Rel        string `json:"rel"`
	Card       int    `json:"card"`       // live tuples
	ArenaBytes int    `json:"arenaBytes"` // bytes of the live tuples
	DeadRows   int    `json:"deadRows"`   // deleted rows the next compaction reclaims
}

// DurabilityStats is the /v1/stats durability section, present when
// the engine has a Store.
type DurabilityStats struct {
	WALBytes            int64  `json:"walBytes"`
	WALSegments         int    `json:"walSegments"`
	Appends             uint64 `json:"appends"`
	Replayed            uint64 `json:"replayed"` // batches replayed at boot
	Checkpoints         uint64 `json:"checkpoints"`
	ChunksWritten       uint64 `json:"chunksWritten"`       // chunk records appended by checkpoints
	ChunksReused        uint64 `json:"chunksReused"`        // chunk references reused without rewriting
	CheckpointBytes     uint64 `json:"checkpointBytes"`     // cumulative checkpoint I/O
	ChunkStoreBytes     int64  `json:"chunkStoreBytes"`     // current chunk-store file size
	Compactions         uint64 `json:"compactions"`         // chunk-store GC rewrites
	LastCheckpointAgeMs int64  `json:"lastCheckpointAgeMs"` // -1 = never (this process)
	LastCheckpointError string `json:"lastCheckpointError,omitempty"`
}

// StatsResponse is the /v1/stats reply. Per-relation cardinalities
// live in Relations (which superseded the bare snapshotCard array).
type StatsResponse struct {
	PlanHits      uint64           `json:"planHits"`
	PlanMisses    uint64           `json:"planMisses"`
	PlanEvictions uint64           `json:"planEvictions"`
	CachedPlans   int              `json:"cachedPlans"`
	Evals         uint64           `json:"evals"`
	UptimeSeconds float64          `json:"uptimeSeconds"` // since process start
	Goroutines    int              `json:"goroutines"`
	BuildInfo     *BuildInfo       `json:"buildInfo,omitempty"` // embedded module/VCS provenance
	Schema        string           `json:"schema,omitempty"`
	Relations     []RelationStats  `json:"relations,omitempty"`  // live snapshot, by relation
	ArenaBytes    int64            `json:"arenaBytes,omitempty"` // total tuple-arena bytes served
	Durability    *DurabilityStats `json:"durability,omitempty"` // present when storage is configured
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !allowMethod(w, r, http.MethodGet) {
		return
	}
	st := s.E.Stats()
	resp := StatsResponse{
		PlanHits:      st.PlanHits,
		PlanMisses:    st.PlanMisses,
		PlanEvictions: st.Evictions,
		CachedPlans:   st.CachedPlans,
		Evals:         st.Evals,
		UptimeSeconds: time.Since(processStart).Seconds(),
		Goroutines:    runtime.NumGoroutine(),
		BuildInfo:     readBuildInfo(),
	}
	if s.D != nil {
		resp.Schema = s.D.String()
	}
	if db := s.E.Snapshot(); db != nil {
		resp.Relations = make([]RelationStats, len(db.Rels))
		for i, rel := range db.Rels {
			resp.Relations[i] = RelationStats{
				Rel:        db.D.U.FormatSet(db.D.Rels[i]),
				Card:       rel.Card(),
				ArenaBytes: rel.ArenaBytes(),
				DeadRows:   rel.DeadRows(),
			}
			resp.ArenaBytes += int64(rel.ArenaBytes())
		}
	}
	if store := s.E.Store(); store != nil {
		sst := store.Stats()
		ds := &DurabilityStats{
			WALBytes:            sst.WALBytes,
			WALSegments:         sst.Segments,
			Appends:             sst.Appends,
			Replayed:            sst.Replayed,
			Checkpoints:         sst.Checkpoints,
			ChunksWritten:       sst.ChunksWritten,
			ChunksReused:        sst.ChunksReused,
			CheckpointBytes:     sst.CheckpointBytes,
			ChunkStoreBytes:     sst.ChunkStoreBytes,
			Compactions:         sst.Compactions,
			LastCheckpointAgeMs: -1,
			LastCheckpointError: sst.LastCheckpointErr,
		}
		if !sst.LastCheckpoint.IsZero() {
			ds.LastCheckpointAgeMs = time.Since(sst.LastCheckpoint).Milliseconds()
		}
		resp.Durability = ds
	}
	writeJSON(w, resp)
}

// parseTarget parses a target attribute set, rejecting the empty set
// (a degenerate query the program builders error on anyway, with a
// clearer message here).
func parseTarget(u *schema.Universe, s string) (schema.AttrSet, error) {
	if s == "" {
		return schema.AttrSet{}, fmt.Errorf("missing target attribute set \"x\"")
	}
	d, err := schema.Parse(u, s)
	if err != nil {
		return schema.AttrSet{}, err
	}
	if len(d.Rels) != 1 {
		return schema.AttrSet{}, fmt.Errorf("target %q must be a single attribute set", s)
	}
	return d.Rels[0], nil
}

// lookupSchema parses text into a throwaway universe and translates it
// into the serving universe by lookup only: /v1/solve produces AttrSets
// over s.U (so the lowered plan's variables are the serving attributes
// and binding it renames nothing), but client requests must not grow
// s.U, so names the serving schema does not know are a request error
// rather than a fresh interning.
func (s *Server) lookupSchema(text string) (*schema.Schema, error) {
	tmp := schema.NewUniverse()
	d, err := schema.Parse(tmp, text)
	if err != nil {
		return nil, err
	}
	out := &schema.Schema{U: s.U}
	for _, r := range d.Rels {
		set, err := s.lookupSet(tmp, r)
		if err != nil {
			return nil, err
		}
		out.Rels = append(out.Rels, set)
	}
	return out, nil
}

// lookupTarget is parseTarget against the serving universe, lookup only.
func (s *Server) lookupTarget(text string) (schema.AttrSet, error) {
	tmp := schema.NewUniverse()
	x, err := parseTarget(tmp, text)
	if err != nil {
		return schema.AttrSet{}, err
	}
	return s.lookupSet(tmp, x)
}

// lookupSet maps a set over tmp into the serving universe by name.
func (s *Server) lookupSet(tmp *schema.Universe, set schema.AttrSet) (schema.AttrSet, error) {
	var ids []schema.Attr
	var unknown string
	set.ForEach(func(a schema.Attr) bool {
		name := tmp.Name(a)
		id, ok := s.U.Lookup(name)
		if !ok {
			unknown = name
			return false
		}
		ids = append(ids, id)
		return true
	})
	if unknown != "" {
		return schema.AttrSet{}, fmt.Errorf("attribute %q not in serving schema", unknown)
	}
	return schema.NewAttrSet(ids...), nil
}

// allowMethod enforces the endpoint's method, answering anything else
// with 405 and an Allow header per RFC 9110.
func allowMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method == method {
		return true
	}
	w.Header().Set("Allow", method)
	writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", fmt.Errorf("use %s", method))
	return false
}

// contentTypeOK reports whether the request's Content-Type (after
// stripping parameters like charset) is one of the accepted media
// types, returning the match. An absent Content-Type is accepted as
// the endpoint's primary type — curl-friendliness over strictness.
func contentTypeOK(r *http.Request, accepted ...string) (string, bool) {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return accepted[0], true
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return "", false
	}
	for _, a := range accepted {
		if mt == a {
			return mt, true
		}
	}
	return "", false
}

func writeUnsupportedMediaType(w http.ResponseWriter, r *http.Request, want string) {
	writeError(w, http.StatusUnsupportedMediaType, "unsupported_media_type",
		fmt.Errorf("content type %q not supported; use %s", r.Header.Get("Content-Type"), want))
}

func decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	return decodeCapped(w, r, dst, MaxBodyBytes)
}

// decodeCapped is the standard POST front door: method enforcement
// (405 + Allow), content-type enforcement (415), body cap (413), then
// strict JSON decoding (400).
func decodeCapped(w http.ResponseWriter, r *http.Request, dst any, capBytes int64) bool {
	return postJSON(w, r) && decodeJSON(w, r, dst, capBytes)
}

// decodeWith is decodeCapped for a body with its own decoder: the same
// front door, with the whole capped body handed to decode.
func decodeWith(w http.ResponseWriter, r *http.Request, capBytes int64, decode func([]byte) error) bool {
	if !postJSON(w, r) {
		return false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, capBytes))
	if err == nil {
		if err = decode(body); err == nil {
			return true
		}
		err = fmt.Errorf("invalid JSON body: %w", err)
	}
	writeBodyError(w, err)
	return false
}

// postJSON enforces the method (405 + Allow) and content type (415) of
// a JSON POST endpoint.
func postJSON(w http.ResponseWriter, r *http.Request) bool {
	if !allowMethod(w, r, http.MethodPost) {
		return false
	}
	if _, ok := contentTypeOK(r, "application/json"); !ok {
		writeUnsupportedMediaType(w, r, "application/json")
		return false
	}
	return true
}

// decodeJSON decodes the body, which must hold exactly one JSON value,
// into dst, assuming method and content type were already vetted.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any, capBytes int64) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, capBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	if err == nil {
		_, err = dec.Token()
		switch err {
		case io.EOF:
			return true
		case nil:
			err = errors.New("unexpected data after the JSON value")
		}
	}
	writeBodyError(w, fmt.Errorf("invalid JSON body: %w", err))
	return false
}

// writeBodyError maps a request-body read failure: the cap trips 413,
// everything else is a malformed request.
func writeBodyError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		writeError(w, http.StatusRequestEntityTooLarge, "payload_too_large",
			fmt.Errorf("request body exceeds %d bytes", mbe.Limit))
		return
	}
	writeError(w, http.StatusBadRequest, "invalid_request", err)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are gone; nothing useful left to do.
		_ = err
	}
}

// ErrorInfo is the uniform error payload: a stable machine-readable
// code, a human-readable message, and the request id correlating the
// failure with server logs.
type ErrorInfo struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"requestId,omitempty"`
	// Leader, set on read_only_replica rejections, is the URL writes
	// should be redirected to.
	Leader string `json:"leader,omitempty"`
}

// ErrorBody is the envelope every error response uses, on every
// endpoint: {"error": {"code", "message", "requestId"}}.
type ErrorBody struct {
	Error ErrorInfo `json:"error"`
}

// writeError emits the uniform error envelope. The request id comes
// from the response headers, where the withRequestID middleware
// stamped it before the handler ran.
func writeError(w http.ResponseWriter, status int, code string, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ErrorBody{Error: ErrorInfo{
		Code:      code,
		Message:   err.Error(),
		RequestID: requestID(w),
	}})
}
