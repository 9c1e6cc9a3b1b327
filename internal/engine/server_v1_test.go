package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"gyokit/internal/relation"
	"gyokit/internal/schema"
)

// v1Server serves the hand-set query fixture from query_test.go.
func v1Server(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	e, u := queryEngine(t)
	d := e.Snapshot().D
	srv := NewServer(e, u, d)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

// postRaw posts JSON and returns the response with the body still
// open (the shared post helper closes it), for decoding error
// envelopes.
func postRaw(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func decodeErrorBody(t *testing.T, resp *http.Response) ErrorBody {
	t.Helper()
	var eb ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("decoding error envelope: %v", err)
	}
	return eb
}

func TestQueryEndpoint(t *testing.T) {
	ts, _ := v1Server(t)

	var resp QueryResponse
	r := post(t, ts.URL+"/v1/query", `{"query": "ans(A, C) :- ab(A, B), bc(B, C)."}`, &resp)
	if r.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", r.StatusCode)
	}
	if resp.Kind != "acyclic" {
		t.Errorf("kind = %q, want acyclic", resp.Kind)
	}
	if resp.Card != 2 || len(resp.Tuples) != 2 {
		t.Errorf("card = %d, tuples = %v, want 2", resp.Card, resp.Tuples)
	}
	if len(resp.Cols) != 2 || resp.Cols[0] != "A" || resp.Cols[1] != "C" {
		t.Errorf("cols = %v, want [A C]", resp.Cols)
	}
	if resp.Query != "ans(A, C) :- ab(A, B), bc(B, C)." {
		t.Errorf("echoed query = %q, want the canonical form", resp.Query)
	}
	if resp.RequestID == "" || resp.RequestID != r.Header.Get("X-Request-Id") {
		t.Errorf("body requestId %q != header %q", resp.RequestID, r.Header.Get("X-Request-Id"))
	}
	if resp.Stats.Statements == 0 {
		t.Error("stats missing")
	}
}

// TestQueryHeadOrder: Cols and Tuples follow the head's written order,
// not the engine's internal sorted order.
func TestQueryHeadOrder(t *testing.T) {
	ts, _ := v1Server(t)

	var resp QueryResponse
	post(t, ts.URL+"/v1/query", `{"query": "ans(B, A) :- ab(A, B)."}`, &resp)
	if len(resp.Cols) != 2 || resp.Cols[0] != "B" || resp.Cols[1] != "A" {
		t.Fatalf("cols = %v, want [B A]", resp.Cols)
	}
	found := false
	for _, tu := range resp.Tuples {
		if len(tu) == 2 && tu[0] == 10 && tu[1] == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("tuples %v not in head order: want (B=10, A=1)", resp.Tuples)
	}
}

func TestQueryFreeConnexKind(t *testing.T) {
	ts, _ := v1Server(t)
	var resp QueryResponse
	post(t, ts.URL+"/v1/query", `{"query": "ans(A, B) :- ab(A, B), bc(B, C)."}`, &resp)
	if resp.Kind != "free-connex" {
		t.Errorf("kind = %q, want free-connex", resp.Kind)
	}
	// A 4-cycle A–B–C–X–A over the stored ab and bc relations: cyclic
	// hypergraph, every atom still binds to a serving relation.
	var cyc QueryResponse
	post(t, ts.URL+"/v1/query", `{"query": "ans(A, C) :- ab(A, B), bc(B, C), ab(A, X), bc(X, C)."}`, &cyc)
	if cyc.Kind != "cyclic" {
		t.Errorf("kind = %q, want cyclic", cyc.Kind)
	}
}

func TestQueryTextPlainBody(t *testing.T) {
	ts, _ := v1Server(t)

	r, err := http.Post(ts.URL+"/v1/query", "text/plain",
		strings.NewReader("ans(A, D) :- ab(A, B), bc(B, C), cd(C, D)."))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(r.Body)
		t.Fatalf("status = %d: %s", r.StatusCode, body)
	}
	var resp QueryResponse
	if err := json.NewDecoder(r.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Card != 2 {
		t.Errorf("card = %d, want 2", resp.Card)
	}
}

func TestQueryErrors(t *testing.T) {
	ts, _ := v1Server(t)

	// Parse error: invalid_query with a position in the message.
	r := postRaw(t, ts.URL+"/v1/query", `{"query": "ans(X) :- r(x)."}`)
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("parse error status = %d", r.StatusCode)
	}
	eb := decodeErrorBody(t, r)
	if eb.Error.Code != "invalid_query" || !strings.Contains(eb.Error.Message, "1:13") {
		t.Errorf("envelope = %+v, want invalid_query with position 1:13", eb)
	}
	if eb.Error.RequestID == "" || eb.Error.RequestID != r.Header.Get("X-Request-Id") {
		t.Errorf("envelope requestId %q != header %q", eb.Error.RequestID, r.Header.Get("X-Request-Id"))
	}

	// Unknown predicate: invalid_query at bind time.
	r = postRaw(t, ts.URL+"/v1/query", `{"query": "ans(X, Y) :- zq(X, Y)."}`)
	if eb := decodeErrorBody(t, r); r.StatusCode != http.StatusBadRequest || eb.Error.Code != "invalid_query" {
		t.Errorf("unknown predicate: status %d, envelope %+v", r.StatusCode, eb)
	}

	// Missing query text.
	r = postRaw(t, ts.URL+"/v1/query", `{"query": "  "}`)
	if eb := decodeErrorBody(t, r); r.StatusCode != http.StatusBadRequest || eb.Error.Code != "invalid_request" {
		t.Errorf("empty query: status %d, envelope %+v", r.StatusCode, eb)
	}
}

// TestReadRails drives the evaluation rails through both read
// endpoints: gas → 429 resource_exhausted, deadline → 504
// deadline_exceeded, a negative timeoutMs → 400, timeoutMs lowers
// but never raises the server's QueryTimeout, and after every abort the
// next request on the same server — the same pooled execution contexts
// — answers in full.
func TestReadRails(t *testing.T) {
	u := schema.NewUniverse()
	d := schema.MustParse(u, "ab, bc, cd")
	e := New(Options{})
	e.Swap(urdb(d, 5, 8000, 2000))
	srv := NewServer(e, u, d)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	for _, ep := range []struct{ name, path, body string }{
		{"solve", "/v1/solve", `{"x": "ad", "limit": 0%s}`},
		{"query", "/v1/query", `{"query": "ans(A, D) :- ab(A, B), bc(B, C), cd(C, D).", "limit": 0%s}`},
	} {
		t.Run(ep.name, func(t *testing.T) {
			url := ts.URL + ep.path
			body := func(extra string) string { return fmt.Sprintf(ep.body, extra) }
			var full struct {
				Card  int        `json:"card"`
				Stats SolveStats `json:"stats"`
			}
			post(t, url, body(""), &full)
			if full.Card == 0 {
				t.Fatal("unlimited answer is empty")
			}
			aborted := func(what, extra string, status int, code string) {
				t.Helper()
				r := postRaw(t, url, body(extra))
				if eb := decodeErrorBody(t, r); r.StatusCode != status || eb.Error.Code != code {
					t.Errorf("%s: status %d, envelope %+v; want %d %s", what, r.StatusCode, eb, status, code)
				}
				srv.Gas, srv.QueryTimeout = 0, 0
				var again struct {
					Card int `json:"card"`
				}
				post(t, url, body(""), &again)
				if again.Card != full.Card {
					t.Errorf("request after %s: card %d, want %d", what, again.Card, full.Card)
				}
			}

			srv.Gas = 1
			aborted("gas", "", http.StatusTooManyRequests, "resource_exhausted")

			// A nanosecond server deadline has always expired by the
			// pre-evaluation check, so this is deterministic — and a
			// client asking for a minute cannot raise it, nor one asking
			// for more milliseconds than a Duration holds (the product
			// would wrap negative).
			srv.QueryTimeout = time.Nanosecond
			aborted("deadline", "", http.StatusGatewayTimeout, "deadline_exceeded")
			for _, ms := range []string{"60000", "9223372036855", "18446744073709"} {
				srv.QueryTimeout = time.Nanosecond
				aborted("raised deadline "+ms, `, "timeoutMs": `+ms, http.StatusGatewayTimeout, "deadline_exceeded")
			}

			// The client can lower a generous server deadline. One
			// millisecond expires at a statement boundary only if the
			// run outlasts it, so assert it only on a run that does
			// by a wide margin.
			if full.Stats.ElapsedNs > int64(5*time.Millisecond) {
				srv.QueryTimeout = time.Minute
				aborted("lowered deadline", `, "timeoutMs": 1`, http.StatusGatewayTimeout, "deadline_exceeded")
			} else {
				t.Logf("unlimited run took %dns; lowered-deadline case not asserted", full.Stats.ElapsedNs)
			}

			aborted("negative timeoutMs", `, "timeoutMs": -1`, http.StatusBadRequest, "invalid_request")
		})
	}
}

// TestServerSolveParallelism pins the "parallelism" request field as an
// accepted no-op on both read endpoints: whatever a client sends, the
// reply is the one it gets for leaving the field out — same columns,
// cardinality, tuples and cost report, none of the deleted executor's
// fields and no stats.parallelism — while a misspelt sibling is still
// refused.
func TestServerSolveParallelism(t *testing.T) {
	u := schema.NewUniverse()
	d := schema.MustParse(u, "ab, bc, cd")
	e := New(Options{})
	e.Swap(urdb(d, 5, 5000, 6))
	ts := httptest.NewServer(NewServer(e, u, d).Handler())
	t.Cleanup(ts.Close)

	for _, ep := range []struct{ name, path, body string }{
		{"solve", "/v1/solve", `{"x": "ad"%s}`},
		{"query", "/v1/query", `{"query": "ans(A, D) :- ab(A, B), bc(B, C), cd(C, D)."%s}`},
	} {
		t.Run(ep.name, func(t *testing.T) {
			ask := func(extra string) map[string]any {
				t.Helper()
				var reply map[string]any
				if r := post(t, ts.URL+ep.path, fmt.Sprintf(ep.body, extra), &reply); r.StatusCode != http.StatusOK {
					t.Fatalf("%q: status %d", extra, r.StatusCode)
				}
				stats := reply["stats"].(map[string]any)
				delete(stats, "elapsedNs")
				return reply
			}
			want := ask("")
			if want["card"] == float64(0) {
				t.Fatal("fixture answer is empty")
			}
			for _, par := range []int{0, 1, 2, 64, -3} {
				extra := fmt.Sprintf(`, "parallelism": %d`, par)
				got := ask(extra)
				for _, key := range []string{"cols", "card", "tuples", "stats"} {
					if !reflect.DeepEqual(got[key], want[key]) {
						t.Errorf("%q: %s = %v, want %v as without the field", extra, key, got[key], want[key])
					}
				}
				for _, gone := range []string{"parallelism", "parallelStmts", "repartitions", "repartitionBytes"} {
					if _, ok := got["stats"].(map[string]any)[gone]; ok {
						t.Errorf("%q: stats still carries %q", extra, gone)
					}
				}
			}
			r := postRaw(t, ts.URL+ep.path, fmt.Sprintf(ep.body, `, "paralellism": 2`))
			if eb := decodeErrorBody(t, r); r.StatusCode != http.StatusBadRequest {
				t.Errorf("misspelt field: status %d, envelope %+v; want 400", r.StatusCode, eb)
			}
		})
	}
}

// TestMethodAndContentTypeMatrix is the table-driven rejection matrix:
// wrong methods get 405 with an Allow header, wrong content types 415,
// and every rejection wears the uniform envelope.
func TestMethodAndContentTypeMatrix(t *testing.T) {
	ts, _ := v1Server(t)
	client := ts.Client()

	cases := []struct {
		name       string
		method     string
		path       string
		ct         string
		body       string
		wantStatus int
		wantAllow  string
		wantCode   string
	}{
		{"get on solve", "GET", "/v1/solve", "", "", 405, "POST", "method_not_allowed"},
		{"get on query", "GET", "/v1/query", "", "", 405, "POST", "method_not_allowed"},
		{"delete on insert", "DELETE", "/v1/insert", "", "", 405, "POST", "method_not_allowed"},
		{"put on classify", "PUT", "/v1/classify", "application/json", `{}`, 405, "POST", "method_not_allowed"},
		{"post on stats", "POST", "/v1/stats", "application/json", `{}`, 405, "GET", "method_not_allowed"},
		{"post on metrics", "POST", "/v1/metrics", "application/json", `{}`, 405, "GET", "method_not_allowed"},
		{"post on healthz", "POST", "/v1/healthz", "", "", 405, "GET", "method_not_allowed"},
		{"csv on solve", "POST", "/v1/solve", "text/csv", `x,y`, 415, "", "unsupported_media_type"},
		{"plain on solve", "POST", "/v1/solve", "text/plain", `{"x": "ad"}`, 415, "", "unsupported_media_type"},
		{"csv on query", "POST", "/v1/query", "text/csv", `ans(X) :- ab(X, Y).`, 415, "", "unsupported_media_type"},
		{"garbage ct on insert", "POST", "/v1/insert", "multipart/;bad", `{}`, 415, "", "unsupported_media_type"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req, err := http.NewRequest(c.method, ts.URL+c.path, bytes.NewReader([]byte(c.body)))
			if err != nil {
				t.Fatal(err)
			}
			if c.ct != "" {
				req.Header.Set("Content-Type", c.ct)
			}
			resp, err := client.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != c.wantStatus {
				t.Fatalf("status = %d, want %d", resp.StatusCode, c.wantStatus)
			}
			if c.wantAllow != "" && resp.Header.Get("Allow") != c.wantAllow {
				t.Errorf("Allow = %q, want %q", resp.Header.Get("Allow"), c.wantAllow)
			}
			eb := decodeErrorBody(t, resp)
			if eb.Error.Code != c.wantCode {
				t.Errorf("code = %q, want %q", eb.Error.Code, c.wantCode)
			}
			if eb.Error.RequestID == "" {
				t.Error("error envelope missing requestId")
			}
		})
	}

	// JSON with an explicit charset parameter is still accepted.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/classify",
		strings.NewReader(`{"schema": "ab, bc"}`))
	req.Header.Set("Content-Type", "application/json; charset=utf-8")
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("charset-parameterized JSON rejected: %d", resp.StatusCode)
	}
}

// TestNoUnversionedAliases: the pre-/v1 paths are gone, not deprecated.
func TestNoUnversionedAliases(t *testing.T) {
	ts, _ := v1Server(t)
	if r := post(t, ts.URL+"/solve", `{"x": "ad"}`, nil); r.StatusCode != http.StatusNotFound {
		t.Errorf("/solve status = %d, want 404", r.StatusCode)
	}
	r := post(t, ts.URL+"/v1/solve", `{"x": "ad"}`, nil)
	if r.StatusCode != http.StatusOK || r.Header.Get("Deprecation") != "" {
		t.Errorf("/v1/solve: status %d, Deprecation %q; want 200 and no header", r.StatusCode, r.Header.Get("Deprecation"))
	}
}

func TestErrorEnvelopeEverywhere(t *testing.T) {
	ts, _ := v1Server(t)

	// Malformed JSON uses the envelope on every endpoint.
	for _, path := range []string{"/v1/solve", "/v1/insert", "/v1/load"} {
		r := postRaw(t, ts.URL+path, `{not json`)
		if r.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", path, r.StatusCode)
			continue
		}
		eb := decodeErrorBody(t, r)
		if eb.Error.Code != "invalid_request" || eb.Error.Message == "" || eb.Error.RequestID == "" {
			t.Errorf("%s: envelope = %+v", path, eb)
		}
	}
}

// TestSolveIsTheQueryItDenotes: /v1/solve with a "schema" is answered as
// the conjunctive query over those relations — a part of the serving
// schema included — and fails the way that query fails: a relation the
// server does not store is a 400 naming it, on both endpoints, and a
// schema listing a relation more often than it is stored is a 400, not
// a silent re-use of the one state.
func TestSolveIsTheQueryItDenotes(t *testing.T) {
	u := schema.NewUniverse()
	d := schema.MustParse(u, "ab, bc, cd, de, ac")
	e := New(Options{})
	e.Swap(urdb(d, 5, 60, 4))
	ts := httptest.NewServer(NewServer(e, u, d).Handler())
	t.Cleanup(ts.Close)

	for _, c := range []struct {
		name, solve, query string
		status             int
		frag               string // in the error message when status is 400
	}{
		{"part of the serving schema",
			`{"schema": "ab, bc", "x": "ac"}`, `{"query": "ans(A, C) :- ab(A, B), bc(B, C)."}`, 200, ""},
		{"one relation",
			`{"schema": "de", "x": "e"}`, `{"query": "ans(E) :- de(D, E)."}`, 200, ""},
		{"the whole serving schema, permuted",
			`{"schema": "ac, de, cd, bc, ab", "x": "ab"}`,
			`{"query": "ans(A, B) :- ac(A, C), de(D, E), cd(C, D), bc(B, C), ab(A, B)."}`, 200, ""},
		{"a relation the server does not store",
			`{"schema": "ab, bd", "x": "ad"}`, `{"query": "ans(A, D) :- ab(A, B), bd(B, D)."}`, 400, `"bd"`},
		{"an attribute the server does not know",
			`{"schema": "ab, bz", "x": "a"}`, `{"query": "ans(A) :- ab(A, B), bz(B, Z)."}`, 400, `"z"`},
		{"a relation listed more often than stored",
			`{"schema": "ab, ab, bc", "x": "ac"}`, "", 400, `"ab" (occurrence 2)`},
	} {
		t.Run(c.name, func(t *testing.T) {
			var cards []int
			for path, body := range map[string]string{"/v1/solve": c.solve, "/v1/query": c.query} {
				if body == "" {
					continue
				}
				resp := postRaw(t, ts.URL+path, body)
				if resp.StatusCode != c.status {
					t.Fatalf("%s: status %d, want %d", path, resp.StatusCode, c.status)
				}
				if c.status != http.StatusOK {
					if msg := decodeErrorBody(t, resp).Error.Message; !strings.Contains(msg, c.frag) || strings.Contains(msg, "plan schema") {
						t.Errorf("%s: error message %q, want it to name %s", path, msg, c.frag)
					}
					continue
				}
				var ans struct{ Card int }
				if err := json.NewDecoder(resp.Body).Decode(&ans); err != nil {
					t.Fatal(err)
				}
				cards = append(cards, ans.Card)
			}
			if len(cards) == 2 && cards[0] != cards[1] {
				t.Errorf("solve and query disagree: cards %v", cards)
			}
		})
	}

	// A serving schema that stores ab twice, the states told apart through
	// "index" on the write side: solving it joins all three relations,
	// where a written query's ab atoms can only ever read the first.
	u2 := schema.NewUniverse()
	dup := schema.MustParse(u2, "ab, ab, bc")
	db := &relation.Database{D: dup}
	for _, r := range dup.Rels {
		db.Rels = append(db.Rels, relation.New(u2, r))
	}
	e2 := New(Options{})
	e2.Swap(db)
	ts2 := httptest.NewServer(NewServer(e2, u2, dup).Handler())
	t.Cleanup(ts2.Close)
	for _, body := range []string{
		`{"rel": "ab", "index": 0, "tuples": [[1,2],[3,4],[5,6]]}`,
		`{"rel": "ab", "index": 1, "tuples": [[3,4],[5,6],[7,8]]}`,
		`{"rel": "bc", "tuples": [[2,9],[4,9],[8,9]]}`,
	} {
		if resp := post(t, ts2.URL+"/v1/insert", body, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("insert %s: status %d", body, resp.StatusCode)
		}
	}
	var sol SolveResponse
	post(t, ts2.URL+"/v1/solve", `{"x": "abc"}`, &sol)
	want := e2.Snapshot().Eval(u2.Set("a", "b", "c"))
	if sol.Card != want.Card() || sol.Card != 1 || fmt.Sprint(sol.Tuples) != "[[3 4 9]]" {
		t.Errorf("solve over (ab, ab, bc) = card %d %v, want the three-way join %v", sol.Card, sol.Tuples, want)
	}
	var q QueryResponse
	post(t, ts2.URL+"/v1/query", `{"query": "ans(A, B, C) :- ab(A, B), bc(B, C)."}`, &q)
	if q.Card != 2 {
		t.Errorf("written query card = %d, want 2 (first ab ⋈ bc)", q.Card)
	}
}
