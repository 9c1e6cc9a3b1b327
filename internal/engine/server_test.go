package engine

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"gyokit/internal/relation"
	"gyokit/internal/schema"
	"gyokit/internal/storage"
)

func testServer(t *testing.T) (*httptest.Server, *schema.Universe, *Server) {
	t.Helper()
	u := schema.NewUniverse()
	d := schema.MustParse(u, "ab, bc, cd")
	e := New(Options{})
	e.Swap(urdb(d, 5, 50, 4))
	srv := NewServer(e, u, d)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, u, srv
}

func post(t *testing.T, url string, body string, out any) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp
}

func TestServerClassify(t *testing.T) {
	ts, _, _ := testServer(t)

	var tree ClassifyResponse
	post(t, ts.URL+"/v1/classify", `{"schema": "ab, bc, cd"}`, &tree)
	if !tree.Tree || !tree.GammaAcyclic || len(tree.QualTree) != 2 {
		t.Errorf("chain classification = %+v", tree)
	}

	var ring ClassifyResponse
	post(t, ts.URL+"/v1/classify", `{"schema": "ab, bc, ca"}`, &ring)
	if ring.Tree || ring.TreefyWith != "abc" {
		t.Errorf("Aring(3) classification = %+v", ring)
	}
}

func TestServerPlan(t *testing.T) {
	ts, _, srv := testServer(t)

	var plan PlanResponse
	post(t, ts.URL+"/v1/plan", `{"schema": "ab, bc, cd", "x": "ad"}`, &plan)
	if !plan.Tree || plan.Kind != "acyclic" || len(plan.Stmts) == 0 {
		t.Fatalf("plan = %+v", plan)
	}
	semijoins := 0
	for _, st := range plan.Stmts {
		if st.Op == "semijoin" {
			semijoins++
		}
		if st.Op == "project" && (st.Right != -1 || st.Proj == "") {
			t.Errorf("bad projection statement %+v", st)
		}
	}
	if semijoins == 0 {
		t.Error("Yannakakis plan has no semijoin statements")
	}

	// Repeat request hits the plan cache.
	before := srv.E.Stats().PlanHits
	post(t, ts.URL+"/v1/plan", `{"schema": "ab, bc, cd", "x": "ad"}`, &plan)
	if srv.E.Stats().PlanHits != before+1 {
		t.Error("repeated /plan did not hit the cache")
	}
}

func TestServerSolve(t *testing.T) {
	ts, u, srv := testServer(t)

	var sol SolveResponse
	post(t, ts.URL+"/v1/solve", `{"x": "ad"}`, &sol)
	want := srv.E.Snapshot().Eval(u.Set("a", "d"))
	if sol.Card != want.Card() {
		t.Errorf("/v1/solve card = %d, want %d", sol.Card, want.Card())
	}
	if len(sol.Cols) != 2 || sol.Cols[0] != "a" || sol.Cols[1] != "d" {
		t.Errorf("/v1/solve cols = %v", sol.Cols)
	}
	if len(sol.Tuples) != sol.Card || sol.Truncated {
		t.Errorf("/v1/solve echoed %d/%d tuples (truncated=%v)", len(sol.Tuples), sol.Card, sol.Truncated)
	}
	if sol.Stats.Statements == 0 || sol.Stats.Semijoins == 0 {
		t.Errorf("/v1/solve stats = %+v", sol.Stats)
	}
	// The reply says which plan ran: endpoints of a chain close a cycle
	// with the head, its first relation does not.
	var fc SolveResponse
	post(t, ts.URL+"/v1/solve", `{"x": "ab"}`, &fc)
	if sol.Kind != "acyclic" || fc.Kind != "free-connex" {
		t.Errorf("/v1/solve kinds = %q, %q, want acyclic, free-connex", sol.Kind, fc.Kind)
	}

	// Tuple cap.
	var capped SolveResponse
	post(t, ts.URL+"/v1/solve", `{"x": "ad", "limit": 1}`, &capped)
	if capped.Card != sol.Card || len(capped.Tuples) > 1 || (capped.Card > 1 && !capped.Truncated) {
		t.Errorf("capped /solve = card %d, %d tuples, truncated=%v", capped.Card, len(capped.Tuples), capped.Truncated)
	}

	// A client limit can lower but never exceed the server's cap.
	srv.MaxTuples = 2
	var greedy SolveResponse
	post(t, ts.URL+"/v1/solve", `{"x": "ad", "limit": 2000000000}`, &greedy)
	if len(greedy.Tuples) > 2 {
		t.Errorf("client limit overrode server cap: %d tuples echoed", len(greedy.Tuples))
	}
}

// TestServerSolveLimitSemantics pins the edge cases of the per-request
// echo cap: an explicit limit of 0 is a card-only request (zero tuples
// echoed, full cardinality still reported), and a negative limit is a
// request error — neither silently falls back to the server default.
func TestServerSolveLimitSemantics(t *testing.T) {
	ts, _, _ := testServer(t)

	var zero SolveResponse
	post(t, ts.URL+"/v1/solve", `{"x": "ad", "limit": 0}`, &zero)
	if zero.Card == 0 {
		t.Fatal("test query is empty; limit semantics unobservable")
	}
	if len(zero.Tuples) != 0 || !zero.Truncated {
		t.Errorf("limit 0: %d tuples, truncated=%v; want 0 tuples, truncated", len(zero.Tuples), zero.Truncated)
	}

	if resp := post(t, ts.URL+"/v1/solve", `{"x": "ad", "limit": -1}`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative limit: status %d, want 400", resp.StatusCode)
	}

	// Omitting the limit still echoes up to the server default.
	var full SolveResponse
	post(t, ts.URL+"/v1/solve", `{"x": "ad"}`, &full)
	if len(full.Tuples) != full.Card || full.Truncated {
		t.Errorf("omitted limit: %d/%d tuples, truncated=%v", len(full.Tuples), full.Card, full.Truncated)
	}
}

func TestServerErrorsAndStats(t *testing.T) {
	ts, _, _ := testServer(t)

	if resp := post(t, ts.URL+"/v1/solve", `{"x": ""}`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing x: status %d", resp.StatusCode)
	}
	if resp := post(t, ts.URL+"/v1/solve", `{"x": "ad"} {"x": "ab"}`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("two values in one body: status %d", resp.StatusCode)
	}
	if resp := post(t, ts.URL+"/v1/classify", `{"schema": "a-b"}`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad schema: status %d", resp.StatusCode)
	}
	if resp := post(t, ts.URL+"/v1/classify", `not json`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad body: status %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/v1/classify")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /classify: status %d", resp.StatusCode)
	}
	// Solving a schema that does not match the snapshot is a 400, not a 500.
	if resp := post(t, ts.URL+"/v1/solve", `{"schema": "xy, yz", "x": "xz"}`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("mismatched solve schema: status %d", resp.StatusCode)
	}

	var st StatsResponse
	resp2, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Relations) != 3 || st.Schema == "" {
		t.Errorf("/v1/stats = %+v", st)
	}
}

// TestServerDurabilityStats: a store-backed server surfaces the
// incremental-checkpoint counters — chunks written vs reused and the
// bytes each checkpoint actually cost — so an operator can see from
// /stats alone whether checkpoints are O(dirty) or rewriting the
// world.
func TestServerDurabilityStats(t *testing.T) {
	dir := t.TempDir()
	e, st := openDurable(t, dir, storage.Options{NoSync: true, CheckpointBytes: -1})
	defer st.Close()
	if _, _, err := e.Apply(storage.Create("a", "b")); err != nil {
		t.Fatal(err)
	}
	tuples := make([]relation.Tuple, 5000)
	for i := range tuples {
		tuples[i] = relation.Tuple{relation.Value(2 * i), relation.Value(2*i + 1)}
	}
	if _, _, err := e.Apply(storage.Insert(0, 2, tuples)); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	db := e.Snapshot()
	ts := httptest.NewServer(NewServer(e, db.D.U, db.D).Handler())
	defer ts.Close()
	getStats := func() StatsResponse {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out StatsResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	s1 := getStats()
	if s1.Durability == nil {
		t.Fatal("/v1/stats missing durability section for store-backed engine")
	}
	d1 := s1.Durability
	if d1.Checkpoints < 1 || d1.ChunksWritten < 1 || d1.CheckpointBytes <= 0 || d1.ChunkStoreBytes <= 0 {
		t.Errorf("first checkpoint stats = %+v", d1)
	}
	if d1.LastCheckpointError != "" {
		t.Errorf("unexpected checkpoint error: %q", d1.LastCheckpointError)
	}

	// A small delta checkpoint reuses the durable chunks and reports a
	// byte cost far below the first full write.
	if _, _, err := e.Apply(storage.Insert(0, 2, []relation.Tuple{{99991, 99992}})); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d2 := getStats().Durability
	if d2.ChunksReused < 1 {
		t.Errorf("delta checkpoint reused no chunks: %+v", d2)
	}
	if d2.ChunksWritten != d1.ChunksWritten {
		t.Errorf("delta checkpoint rewrote chunks: %d → %d", d1.ChunksWritten, d2.ChunksWritten)
	}
	if inc := d2.CheckpointBytes - d1.CheckpointBytes; inc <= 0 || inc >= d1.CheckpointBytes {
		t.Errorf("delta checkpoint bytes = %d (first = %d)", inc, d1.CheckpointBytes)
	}
}

// TestServerUniverseDoesNotGrow locks in the DoS hardening: client
// requests carrying fresh attribute names must not intern anything
// into the serving universe, and /solve must reject unknown names.
func TestServerUniverseDoesNotGrow(t *testing.T) {
	ts, u, _ := testServer(t)
	before := u.Size()

	post(t, ts.URL+"/v1/classify", `{"schema": "pq, qr, rs"}`, nil)
	post(t, ts.URL+"/v1/plan", `{"schema": "mn, no", "x": "mo"}`, nil)
	if resp := post(t, ts.URL+"/v1/solve", `{"x": "az"}`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("/v1/solve with unknown attribute: status %d, want 400", resp.StatusCode)
	}
	if resp := post(t, ts.URL+"/v1/solve", `{"schema": "ab, zz", "x": "ab"}`, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("/v1/solve with unknown schema attribute: status %d, want 400", resp.StatusCode)
	}

	if after := u.Size(); after != before {
		t.Errorf("serving universe grew from %d to %d attributes on client input", before, after)
	}

	// Known names keep working through the lookup-only path.
	var sol SolveResponse
	post(t, ts.URL+"/v1/solve", `{"schema": "ab, bc, cd", "x": "ad"}`, &sol)
	if sol.Card == 0 {
		t.Error("lookup-only /solve with explicit schema failed")
	}
}

// TestServerConcurrentRequests drives the full HTTP path from many
// goroutines — including new schema texts that intern concurrently —
// and is meaningful mainly under -race.
func TestServerConcurrentRequests(t *testing.T) {
	ts, _, _ := testServer(t)
	schemas := []string{
		`{"schema": "ab, bc, cd", "x": "ad"}`,
		`{"schema": "pq, qr", "x": "pr"}`,
		`{"schema": "ab, bc, ca", "x": "ab"}`,
		`{"schema": "uv, vw, wx, xy", "x": "uy"}`,
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				body := schemas[(g+i)%len(schemas)]
				resp, err := http.Post(ts.URL+"/v1/plan", "application/json", bytes.NewReader([]byte(body)))
				if err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("reader %d: /plan status %d for %s", g, resp.StatusCode, body)
					return
				}
				resp, err = http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader([]byte(`{"x": "ad"}`)))
				if err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("reader %d: /solve status %d", g, resp.StatusCode)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
