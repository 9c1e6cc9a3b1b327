package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"gyokit/internal/program"
	"gyokit/internal/relation"
	"gyokit/internal/schema"
	"gyokit/internal/storage"
)

// dataset names one generated database: the projections of tuples
// universal tuples, drawn uniformly over [0, domain) per column, onto
// the relations of schemaText.
type dataset struct {
	name       string
	schemaText string
	tuples     int
	domain     int
}

var (
	// d20k is the evaluation dataset: a 4-chain plus the triangle
	// ab/bc/ac, about 20k rows (five 4096-row chunks) per relation.
	d20k = dataset{name: "D20k", schemaText: "ab, bc, cd, de, ac", tuples: 20000, domain: 2000}
	// dtiny is the planning dataset: an 8-chain over a domain of 8, so no
	// intermediate result can pass 8³ rows and evaluation is microseconds,
	// with few enough tuples (about 20 per relation) that the naive join
	// of all eight — the oracle — stays in the tens of thousands of rows.
	dtiny = dataset{name: "Dtiny", schemaText: "ab, bc, cd, de, ef, fg, gh, hi", tuples: 24, domain: 8}
)

// generate builds the dataset's database from seed.
func (ds dataset) generate(seed int64) (*relation.Database, error) {
	u := schema.NewUniverse()
	d, err := schema.Parse(u, ds.schemaText)
	if err != nil {
		return nil, err
	}
	univ, n := relation.RandomUniversal(u, d.Attrs(), ds.tuples, ds.domain, rand.New(rand.NewSource(seed)))
	if n != ds.tuples {
		return nil, fmt.Errorf("%s: generated %d of %d universal tuples", ds.name, n, ds.tuples)
	}
	return relation.URDatabase(d, univ), nil
}

// relNames returns the relations' names as the HTTP API addresses them.
func relNames(db *relation.Database) []string {
	names := make([]string, len(db.D.Rels))
	for i, r := range db.D.Rels {
		names[i] = db.D.U.FormatSet(r)
	}
	return names
}

type mutateBody struct {
	Rel    string           `json:"rel"`
	Tuples []relation.Tuple `json:"tuples"`
}

// loadBody is the /v1/load request installing db on an empty server.
func loadBody(db *relation.Database) []byte {
	var req struct {
		Relations []mutateBody `json:"relations"`
	}
	for i, name := range relNames(db) {
		req.Relations = append(req.Relations, mutateBody{Rel: name, Tuples: db.Rels[i].Tuples()})
	}
	return mustJSON(req)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps are marshalled here
	}
	return b
}

// request is one read the driver can issue, with what its answer must
// satisfy.
type request struct {
	id   string // shape or endpoint label the report groups by
	path string
	body []byte
	// wantCard is the expected result cardinality; -1 means unknown at
	// generation time (pinned from the first answer, then held).
	wantCard int
	// wantTree is the expected "tree" flag of a classify/plan answer.
	wantTree *bool
}

func queryRequest(id, query string, extra map[string]any) request {
	body := map[string]any{"query": query, "limit": 10}
	for k, v := range extra {
		body[k] = v
	}
	return request{id: id, path: "/v1/query", body: mustJSON(body), wantCard: -1}
}

// withTrace returns r with "trace": true added to its body; classify
// and plan requests, which have no such option, come back unchanged.
func (r request) withTrace() request {
	if r.path != "/v1/query" && r.path != "/v1/solve" {
		return r
	}
	var body map[string]any
	if err := json.Unmarshal(r.body, &body); err != nil {
		panic(err) // bodies are produced by mustJSON above
	}
	body["trace"] = true
	r.body = mustJSON(body)
	return r
}

const chain4 = "ab(A,B), bc(B,C), cd(C,D), de(D,E)"

// evalShapes are the nine fixed read shapes of eval_read on db, a D20k
// database. db is the projection of one universal relation, so every
// stored tuple survives the full join: the chain queries with head AB,
// BC or CD must return exactly the stored ab, bc or cd — and so must
// /v1/solve for ab over the whole serving schema, and shape 1's
// parallelism-2 twin. The other shapes have no such oracle; their cards
// are pinned at warm-up and held.
func evalShapes(db *relation.Database) []request {
	s := []request{
		queryRequest("q1_fc_ab", "ans(A,B) :- "+chain4+".", nil),
		queryRequest("q2_fc_bc", "ans(B,C) :- "+chain4+".", nil),
		queryRequest("q3_fc_cd", "ans(C,D) :- "+chain4+".", nil),
		queryRequest("q4_fc_d", "ans(D) :- "+chain4+".", nil),
		queryRequest("q5_acyclic_ac", "ans(A,C) :- ab(A,B), bc(B,C).", nil),
		queryRequest("q6_wide_abc", "ans(A,B,C) :- ab(A,B), bc(B,C), cd(C,D).", nil),
		queryRequest("q7_triangle", "ans(A,B,C) :- ab(A,B), bc(B,C), ac(A,C).", nil),
		{id: "s8_solve_ab", path: "/v1/solve", body: mustJSON(map[string]any{"x": "ab", "limit": 10}), wantCard: -1},
		queryRequest("q9_fc_ab_par2", "ans(A,B) :- "+chain4+".", map[string]any{"parallelism": 2}),
	}
	ab, bc, cd := db.Rels[0].Card(), db.Rels[1].Card(), db.Rels[2].Card()
	s[0].wantCard, s[1].wantCard, s[2].wantCard = ab, bc, cd
	s[7].wantCard, s[8].wantCard = ab, ab
	return s
}

// attrName is the i-th single-rune attribute name.
func attrName(i int) string { return string(rune('a' + i)) }

// chainSchema is the n-relation chain "ab, bc, ..."; ringSchema closes
// it with a relation joining the last attribute back to the first.
func chainSchema(n int) string {
	rels := make([]string, n)
	for i := range rels {
		rels[i] = attrName(i) + attrName(i+1)
	}
	return strings.Join(rels, ", ")
}

func ringSchema(n int) string {
	rels := make([]string, n)
	for i := range rels {
		rels[i] = attrName(i) + attrName((i+1)%n)
	}
	return strings.Join(rels, ", ")
}

// churnRequests is plan_churn's request list over db (a Dtiny
// database): distinct plans several times the plan cache, shuffled by
// seed. Every query and solve carries its oracle cardinality: the naive
// plan — join every relation named, then project — evaluated here, in
// process, with the join shared by the requests that differ only in
// their head.
func churnRequests(db *relation.Database, seed int64) ([]request, error) {
	var out []request
	n := len(db.D.Rels)
	attrs := db.D.Attrs().Attrs()

	// Conjunctive queries: every sub-chain, every 1- and 2-variable head.
	for lo := 0; lo < n; lo++ {
		for hi := lo; hi < n; hi++ {
			sub := &relation.Database{D: schema.New(db.D.U, db.D.Rels[lo:hi+1]...), Rels: db.Rels[lo : hi+1]}
			joined, err := naiveJoin(sub)
			if err != nil {
				return nil, err
			}
			var atoms []string
			for i := lo; i <= hi; i++ {
				a, b := attrName(i), attrName(i+1)
				atoms = append(atoms, fmt.Sprintf("%s%s(%s,%s)", a, b, strings.ToUpper(a), strings.ToUpper(b)))
			}
			body := strings.Join(atoms, ", ")
			for v1 := lo; v1 <= hi+1; v1++ {
				for v2 := v1; v2 <= hi+1; v2++ {
					head := strings.ToUpper(attrName(v1))
					if v2 > v1 {
						head += "," + strings.ToUpper(attrName(v2))
					}
					r := queryRequest("query", fmt.Sprintf("ans(%s) :- %s.", head, body), nil)
					r.wantCard = joined.Project(schema.NewAttrSet(attrs[v1], attrs[v2])).Card()
					out = append(out, r)
				}
			}
		}
	}

	// /v1/solve on the serving schema: every target of 1 to 3 attributes.
	joined, err := naiveJoin(db)
	if err != nil {
		return nil, err
	}
	for _, x := range smallTargets(db.D) {
		out = append(out, request{
			id: "solve", path: "/v1/solve", wantCard: joined.Project(x).Card(),
			body: mustJSON(map[string]any{"x": db.D.U.FormatSet(x), "limit": 10}),
		})
	}

	out = append(out, schemaRequests()...)
	rand.New(rand.NewSource(seed)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// smallTargets lists every set of 1 to 3 attributes of d.
func smallTargets(d *schema.Schema) []schema.AttrSet {
	attrs := d.Attrs().Attrs()
	var out []schema.AttrSet
	for i := range attrs {
		out = append(out, schema.NewAttrSet(attrs[i]))
		for j := i + 1; j < len(attrs); j++ {
			out = append(out, schema.NewAttrSet(attrs[i], attrs[j]))
			for k := j + 1; k < len(attrs); k++ {
				out = append(out, schema.NewAttrSet(attrs[i], attrs[j], attrs[k]))
			}
		}
	}
	return out
}

// schemaRequests are requests on schemas no server is started with:
// /v1/classify on the rings (cyclic) and /v1/plan on the chains (trees)
// of 3 to 19 relations, each with the tree flag its answer must carry.
// Chains are planned, never classified: a plan also caches its schema's
// classification, which would turn the classify into a hit.
func schemaRequests() []request {
	var out []request
	cyclic, tree := false, true
	for k := 3; k <= 19; k++ {
		out = append(out, request{
			id: "classify", path: "/v1/classify", wantCard: -1, wantTree: &cyclic,
			body: mustJSON(map[string]any{"schema": ringSchema(k)}),
		})
		for first := 0; first <= 1; first++ {
			for last := first + 1; last <= k; last++ {
				out = append(out, request{
					id: "plan", path: "/v1/plan", wantCard: -1, wantTree: &tree,
					body: mustJSON(map[string]any{"schema": chainSchema(k), "x": attrName(first) + attrName(last)}),
				})
			}
		}
	}
	return out
}

// naiveJoin evaluates program.NaivePlan for every attribute of db: the
// join of all its relations in index order, nothing pruned or reduced.
func naiveJoin(db *relation.Database) (*relation.Relation, error) {
	p, err := program.NaivePlan(db.D, db.D.Attrs())
	if err != nil {
		return nil, err
	}
	out, _, err := p.Eval(db)
	return out, err
}

// batchTuples is the size of every insert and delete batch.
const batchTuples = 256

// deleteLag is how many steps a writer waits before deleting a batch
// it inserted, so each relation carries deleteLag extra batches in the
// steady state and its cardinality is stationary.
const deleteLag = 16

// writeDomain is the per-column value range of inserted tuples: D20k's
// own domain, so on D20k they join like loaded rows, and wide enough on
// any dataset that deleteLag pending batches never exhaust it.
const writeDomain = 2000

// relModel is the driver's model of one relation a writer owns: the
// tuples that must currently be in it, and the batches inserted but not
// yet deleted, oldest first.
type relModel struct {
	name    string
	domain  int
	present map[[2]relation.Value]struct{}
	pending [][]relation.Tuple
	step    int
}

func newRelModel(name string, r *relation.Relation) *relModel {
	m := &relModel{name: name, domain: writeDomain, present: make(map[[2]relation.Value]struct{}, r.Card()+deleteLag*batchTuples)}
	for i := 0; i < r.Card(); i++ {
		t := r.TupleAt(i)
		m.present[[2]relation.Value{t[0], t[1]}] = struct{}{}
	}
	return m
}

// write is one mutation the driver can issue and what its answer must
// report.
type write struct {
	del      bool
	rel      string
	tuples   []relation.Tuple
	wantCard int
}

func (w write) path() string {
	if w.del {
		return "/v1/delete"
	}
	return "/v1/insert"
}

func (w write) body() []byte { return mustJSON(mutateBody{w.rel, w.tuples}) }

// mutation is w as the engine's Go API takes it, for relation index rel.
func (w write) mutation(rel int) storage.Mutation {
	if w.del {
		return storage.Delete(rel, 2, w.tuples)
	}
	return storage.Insert(rel, 2, w.tuples)
}

// next returns the model's next mutation and updates the model as if it
// had been applied: an insert of batchTuples tuples not in the relation
// or, once deleteLag batches are pending, on alternate steps the delete
// of the oldest pending batch. Either way every tuple takes effect, so
// the server must answer applied == batchTuples.
func (m *relModel) next(rng *rand.Rand) write {
	m.step++
	if len(m.pending) >= deleteLag && m.step%2 == 0 {
		batch := m.pending[0]
		m.pending = m.pending[1:]
		for _, t := range batch {
			delete(m.present, [2]relation.Value{t[0], t[1]})
		}
		return write{del: true, rel: m.name, tuples: batch, wantCard: len(m.present)}
	}
	batch := make([]relation.Tuple, 0, batchTuples)
	for len(batch) < batchTuples {
		k := [2]relation.Value{relation.Value(rng.Intn(m.domain)), relation.Value(rng.Intn(m.domain))}
		if _, dup := m.present[k]; dup {
			continue
		}
		m.present[k] = struct{}{}
		batch = append(batch, relation.Tuple{k[0], k[1]})
	}
	m.pending = append(m.pending, batch)
	return write{rel: m.name, tuples: batch, wantCard: len(m.present)}
}
