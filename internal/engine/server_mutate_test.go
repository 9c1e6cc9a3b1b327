package engine

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gyokit/internal/storage"
)

// durableServer boots a durable engine in dir, seeds schema "ab, bc"
// through the WAL, and serves it. The store fsyncs, so mutation
// responses carry durable:true.
func durableServer(t *testing.T, dir string) (*httptest.Server, *Server) {
	t.Helper()
	st, err := storage.Open(dir, storage.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	e := New(Options{Store: st})
	if st.Empty() {
		if _, _, err := e.Apply(storage.Create("a", "b"), storage.Create("b", "c")); err != nil {
			t.Fatal(err)
		}
	}
	db := e.Snapshot()
	srv := NewServer(e, db.D.U, db.D)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

func TestServerInsertDelete(t *testing.T) {
	ts, srv := durableServer(t, t.TempDir())

	var ins MutateResponse
	post(t, ts.URL+"/v1/insert", `{"rel": "ab", "tuples": [[1,2],[3,4],[1,2]]}`, &ins)
	if ins.Requested != 3 || ins.Applied != 2 || ins.Card != 2 || !ins.Durable {
		t.Fatalf("/v1/insert = %+v", ins)
	}
	if !srv.E.Snapshot().Rels[0].Has([]int32{1, 2}) {
		t.Fatal("insert not visible in snapshot")
	}

	var del MutateResponse
	post(t, ts.URL+"/v1/delete", `{"rel": "ab", "tuples": [[3,4],[9,9]]}`, &del)
	if del.Applied != 1 || del.Card != 1 {
		t.Fatalf("/v1/delete = %+v", del)
	}

	// Explicit index targeting: valid index works, mismatched or
	// out-of-range index is rejected.
	var byIdx MutateResponse
	post(t, ts.URL+"/v1/insert", `{"rel": "ab", "index": 0, "tuples": [[40,41]]}`, &byIdx)
	if byIdx.Applied != 1 {
		t.Fatalf("/v1/insert with index = %+v", byIdx)
	}
	post(t, ts.URL+"/v1/delete", `{"rel": "ab", "tuples": [[40,41]]}`, nil)

	// Bad requests: unknown relation, unknown attribute, wrong arity,
	// empty batch, index/schema mismatch, index out of range, a second
	// value after the body's — all 400, none applied.
	for _, body := range []string{
		`{"rel": "zz", "tuples": [[1,2]]}`,
		`{"rel": "ad", "tuples": [[1,2]]}`,
		`{"rel": "ab", "tuples": [[1,2,3]]}`,
		`{"rel": "ab", "tuples": []}`,
		`{"tuples": [[1,2]]}`,
		`{"rel": "ab", "index": 1, "tuples": [[1,2]]}`,
		`{"rel": "ab", "index": 7, "tuples": [[1,2]]}`,
		`{"rel": "ab", "tuples": [[1,2]]}{"rel": "ab", "tuples": [[3,4]]}`,
	} {
		resp := post(t, ts.URL+"/v1/insert", body, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("insert %s → %d, want 400", body, resp.StatusCode)
		}
	}
	if got := srv.E.Snapshot().Rels[0].Card(); got != 1 {
		t.Errorf("card after rejected requests = %d, want 1", got)
	}
}

func TestServerLoadAtomic(t *testing.T) {
	ts, srv := durableServer(t, t.TempDir())

	var load LoadResponse
	post(t, ts.URL+"/v1/load", `{"relations": [
		{"rel": "ab", "tuples": [[1,2],[3,4]]},
		{"rel": "bc", "tuples": [[2,5]]}
	]}`, &load)
	if len(load.Relations) != 2 || !load.Durable {
		t.Fatalf("/v1/load = %+v", load)
	}
	if load.Relations[0].Applied != 2 || load.Relations[1].Applied != 1 {
		t.Fatalf("/v1/load applied = %+v", load.Relations)
	}

	// One bad element rejects the whole batch: atomicity.
	before := srv.E.Snapshot()
	resp := post(t, ts.URL+"/v1/load", `{"relations": [
		{"rel": "ab", "tuples": [[7,8]]},
		{"rel": "nope", "tuples": [[1,2]]}
	]}`, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/v1/load with bad element → %d, want 400", resp.StatusCode)
	}
	if srv.E.Snapshot() != before {
		t.Error("rejected /load changed the snapshot")
	}
	resp = post(t, ts.URL+"/v1/load", `{"relations": []}`, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty /load → %d, want 400", resp.StatusCode)
	}
}

// TestServerBodyCaps: a write body over its cap — MaxBodyBytes for
// /v1/insert, Server.MaxLoadBytes for /v1/load — is refused with 413
// payload_too_large and applies nothing, even when the value inside the
// cap is complete and only trailing whitespace crosses it.
func TestServerBodyCaps(t *testing.T) {
	ts, srv := durableServer(t, t.TempDir())
	srv.MaxLoadBytes = 64
	insert := `{"rel": "ab", "tuples": [[1,2]` + strings.Repeat(`,[1,2]`, MaxBodyBytes/6) + `]}`
	load := `{"relations": [{"rel": "ab", "tuples": [[1,2]]}]}`
	before := srv.E.Snapshot()
	for _, c := range []struct{ path, body string }{
		{"/v1/insert", insert},
		{"/v1/insert", `{"rel": "ab", "tuples": [[1,2]]}` + strings.Repeat(" ", MaxBodyBytes)},
		{"/v1/load", `{"relations": [{"rel": "ab", "tuples": [[1,2]]}, {"rel": "ab", "tuples": [[3,4]]}]}`},
		{"/v1/load", load + strings.Repeat(" ", 64)},
	} {
		r := postRaw(t, ts.URL+c.path, c.body)
		if eb := decodeErrorBody(t, r); r.StatusCode != http.StatusRequestEntityTooLarge || eb.Error.Code != "payload_too_large" {
			t.Errorf("%s of %d bytes: status %d, code %q; want 413 payload_too_large", c.path, len(c.body), r.StatusCode, eb.Error.Code)
		}
	}
	if srv.E.Snapshot() != before {
		t.Error("an over-cap body changed the snapshot")
	}
	// Under the cap the same load applies.
	if r := postRaw(t, ts.URL+"/v1/load", load); r.StatusCode != http.StatusOK {
		t.Errorf("/v1/load under the cap: status %d", r.StatusCode)
	}
}

func TestServerMutateSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	ts, srv := durableServer(t, dir)
	post(t, ts.URL+"/v1/insert", `{"rel": "ab", "tuples": [[10,20],[30,40]]}`, nil)
	post(t, ts.URL+"/v1/delete", `{"rel": "ab", "tuples": [[30,40]]}`, nil)
	want := srv.E.Snapshot()
	srv.E.Store().Close()
	ts.Close()

	ts2, srv2 := durableServer(t, dir)
	defer ts2.Close()
	if !snapshotsEqual(want, srv2.E.Snapshot()) {
		t.Fatal("reopened server snapshot differs")
	}
}

func TestServerStatsDurability(t *testing.T) {
	ts, _ := durableServer(t, t.TempDir())
	post(t, ts.URL+"/v1/insert", `{"rel": "ab", "tuples": [[1,2]]}`, nil)

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Relations) != 2 {
		t.Fatalf("stats relations = %+v", st.Relations)
	}
	if st.Relations[0].Rel != "ab" || st.Relations[0].Card != 1 || st.Relations[0].ArenaBytes != 8 {
		t.Errorf("relation[0] stats = %+v", st.Relations[0])
	}
	if st.ArenaBytes != 8 {
		t.Errorf("total arena bytes = %d, want 8", st.ArenaBytes)
	}
	if st.Durability == nil {
		t.Fatal("durability section missing")
	}
	if st.Durability.Appends != 2 || st.Durability.WALBytes == 0 || st.Durability.WALSegments != 1 {
		t.Errorf("durability = %+v", st.Durability)
	}
	if st.Durability.LastCheckpointAgeMs != -1 {
		t.Errorf("checkpoint age = %d before any checkpoint", st.Durability.LastCheckpointAgeMs)
	}
}

// TestServerStatsInMemory: the per-relation section works without
// storage, and the durability section is absent.
func TestServerStatsInMemory(t *testing.T) {
	ts, _, _ := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	raw, st := map[string]json.RawMessage{}, StatsResponse{}
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["durability"]; ok {
		t.Error("in-memory /stats has a durability section")
	}
	if len(st.Relations) != 3 || st.ArenaBytes == 0 {
		t.Errorf("in-memory /stats relations = %+v, arenaBytes = %d", st.Relations, st.ArenaBytes)
	}
}
