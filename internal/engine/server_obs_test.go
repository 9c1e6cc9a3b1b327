package engine

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gyokit/internal/obs"
	"gyokit/internal/program"
	"gyokit/internal/relation"
	"gyokit/internal/schema"
	"gyokit/internal/storage"
)

// obsServer boots a durable engine and store sharing one observability
// registry — the gyod wiring — seeded with the chain schema and a small
// universal-relation database.
func obsServer(t testing.TB, dir string) (*httptest.Server, *Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	st, err := storage.Open(dir, storage.Options{NoSync: true, CheckpointBytes: -1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	e := New(Options{Store: st, Metrics: reg})
	if st.Empty() {
		if _, _, err := e.Apply(storage.Create("a", "b"), storage.Create("b", "c"), storage.Create("c", "d")); err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.Apply(
			storage.Insert(0, 2, []relation.Tuple{{1, 2}, {3, 2}}),
			storage.Insert(1, 2, []relation.Tuple{{2, 5}}),
			storage.Insert(2, 2, []relation.Tuple{{5, 7}, {5, 8}}),
		); err != nil {
			t.Fatal(err)
		}
	}
	db := e.Snapshot()
	srv := NewServer(e, db.D.U, db.D)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv, reg
}

func scrape(t testing.TB, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/v1/metrics content type = %q", ct)
	}
	series, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("scrape not parseable: %v", err)
	}
	return series
}

func TestMetricsEndpoint(t *testing.T) {
	ts, srv, _ := obsServer(t, t.TempDir())

	// Cold solve, cached solve, and a durable write, so every major
	// family has observations.
	var sol SolveResponse
	post(t, ts.URL+"/v1/solve", `{"x": "ad"}`, &sol)
	post(t, ts.URL+"/v1/solve", `{"x": "ad"}`, &sol)
	var ins MutateResponse
	post(t, ts.URL+"/v1/insert", `{"rel": "ab", "tuples": [[9,2]]}`, &ins)
	if err := srv.E.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	series := scrape(t, ts.URL)
	wantPositive := []string{
		`gyo_solve_seconds_count{cache="miss"}`,
		`gyo_solve_seconds_count{cache="hit"}`,
		`gyo_plan_cache_total{event="miss"}`,
		`gyo_plan_cache_total{event="hit"}`,
		`gyo_cq_plans_total{kind="acyclic"}`, // a lowered solve counts like a written query
		`gyo_apply_seconds_count`,
		`gyo_apply_batch_tuples_count`,
		`gyo_wal_append_seconds_count`,
		`gyo_wal_append_bytes_count`,
		`gyo_checkpoint_seconds_count`,
		`gyo_checkpoint_bytes_total`,
		`gyo_snapshot_relations`,
		`gyo_snapshot_arena_bytes`,
		`gyo_uptime_seconds`,
		`gyo_goroutines`,
	}
	for _, key := range wantPositive {
		if v, ok := series[key]; !ok || v <= 0 {
			t.Errorf("series %s = %v (present=%v), want > 0", key, v, ok)
		}
	}
	// Registered-but-unfired families must still be exposed (at zero),
	// so dashboards see the full catalog from the first scrape.
	wantPresent := []string{
		`gyo_plan_cache_total{event="eviction"}`,
		// Tiny databases checkpoint through the manifest tail without
		// filling a single chunk, so the chunk counters may stay zero.
		`gyo_checkpoint_chunks_total{result="written"}`,
		`gyo_checkpoint_chunks_total{result="reused"}`,
		`gyo_checkpoint_failures_total`,
		`gyo_snapshot_dead_rows`,
		`gyo_relation_compactions_total`,
	}
	for _, key := range wantPresent {
		if _, ok := series[key]; !ok {
			t.Errorf("series %s missing from scrape", key)
		}
	}
}

// TestStatsAndMetricsAgree: /v1/stats reads the very instruments
// /v1/metrics exposes, so after a mixed read/write run every counter the
// two share shows one value.
func TestStatsAndMetricsAgree(t *testing.T) {
	ts, srv, _ := obsServer(t, t.TempDir())
	for i := 0; i < 3; i++ {
		post(t, ts.URL+"/v1/solve", `{"x": "ad"}`, nil)
		post(t, ts.URL+"/v1/query", `{"query": "ans(A, C) :- ab(A, B), bc(B, C)."}`, nil)
		post(t, ts.URL+"/v1/insert", fmt.Sprintf(`{"rel": "ab", "tuples": [[%d,2]]}`, 10+i), nil)
		post(t, ts.URL+"/v1/classify", `{"schema": "ab, bc, ca"}`, nil)
	}
	post(t, ts.URL+"/v1/solve", `{"x": "az"}`, nil) // a miss that compiles nothing
	post(t, ts.URL+"/v1/delete", `{"rel": "ab", "tuples": [[10,2]]}`, nil)
	for i := 0; i < 2; i++ {
		if err := srv.E.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		post(t, ts.URL+"/v1/insert", `{"rel": "cd", "tuples": [[5,9]]}`, nil)
	}

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	series := scrape(t, ts.URL)
	d := st.Durability
	if st.PlanHits == 0 || st.PlanMisses == 0 || st.Evals == 0 || d.Appends == 0 || d.Checkpoints != 2 {
		t.Fatalf("the run did not move the counters: %+v %+v", st, d)
	}
	for _, c := range []struct {
		stat   string
		value  uint64
		series []string // summed
	}{
		{"planHits", st.PlanHits, []string{`gyo_plan_cache_total{event="hit"}`}},
		{"planMisses", st.PlanMisses, []string{`gyo_plan_cache_total{event="miss"}`}},
		{"planEvictions", st.PlanEvictions, []string{`gyo_plan_cache_total{event="eviction"}`}},
		{"evals", st.Evals, []string{`gyo_solve_seconds_count{cache="hit"}`, `gyo_solve_seconds_count{cache="miss"}`}},
		{"cachedPlans", uint64(st.CachedPlans), []string{`gyo_plan_cache_resident`}},
		{"appends", d.Appends, []string{`gyo_wal_append_seconds_count`}},
		{"checkpoints", d.Checkpoints, []string{`gyo_checkpoint_seconds_count`}},
		{"chunksWritten", d.ChunksWritten, []string{`gyo_checkpoint_chunks_total{result="written"}`}},
		{"chunksReused", d.ChunksReused, []string{`gyo_checkpoint_chunks_total{result="reused"}`}},
		{"checkpointBytes", d.CheckpointBytes, []string{`gyo_checkpoint_bytes_total`}},
		{"compactions", d.Compactions, []string{`gyo_compactions_total`}},
		{"walBytes", uint64(d.WALBytes), []string{`gyo_wal_bytes`}},
		{"walSegments", uint64(d.WALSegments), []string{`gyo_wal_segments`}},
		{"chunkStoreBytes", uint64(d.ChunkStoreBytes), []string{`gyo_chunk_store_bytes`}},
	} {
		var sum float64
		for _, key := range c.series {
			v, ok := series[key]
			if !ok {
				t.Errorf("series %s missing from scrape", key)
			}
			sum += v
		}
		if float64(c.value) != sum {
			t.Errorf("/v1/stats %s = %d, /v1/metrics %v = %v", c.stat, c.value, c.series, sum)
		}
	}
}

// TestDeadRowObservability: a delete below the compaction bound shows as
// dead rows in /v1/stats and /v1/metrics while card and arenaBytes keep
// counting live tuples only; the delete that crosses the bound empties
// the dead-row gauge and ticks the compaction counter once.
func TestDeadRowObservability(t *testing.T) {
	ts, _, _ := obsServer(t, t.TempDir())
	rows := make([][2]int, 40)
	for i := range rows {
		rows[i] = [2]int{100 + i, i}
	}
	body := func(tuples [][2]int) string {
		b, err := json.Marshal(map[string]any{"rel": "ab", "tuples": tuples})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	var mr MutateResponse
	post(t, ts.URL+"/v1/insert", body(rows), &mr) // 42 tuples with the seed's two
	check := func(when string, card, dead int, compactions float64) {
		t.Helper()
		var st StatsResponse
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		if ab := st.Relations[0]; ab.Card != card || ab.DeadRows != dead || ab.ArenaBytes != card*8 {
			t.Errorf("%s: /v1/stats ab = %+v, want card %d, deadRows %d, arenaBytes %d", when, ab, card, dead, card*8)
		}
		series := scrape(t, ts.URL)
		if got := series[`gyo_snapshot_dead_rows`]; got != float64(dead) {
			t.Errorf("%s: gyo_snapshot_dead_rows = %v, want %d", when, got, dead)
		}
		if got := series[`gyo_relation_compactions_total`]; got != compactions {
			t.Errorf("%s: gyo_relation_compactions_total = %v, want %v", when, got, compactions)
		}
	}
	check("before any delete", 42, 0, 0)
	post(t, ts.URL+"/v1/delete", body(rows[:8]), &mr) // 8 dead beside 34 live: under a quarter
	if mr.Applied != 8 || mr.Card != 34 {
		t.Fatalf("first delete: %+v", mr)
	}
	check("under the bound", 34, 8, 0)
	post(t, ts.URL+"/v1/delete", body(rows[8:10]), &mr) // 10 beside 32: over
	check("past the bound", 32, 0, 1)
}

// TestPlanCacheMetricsHonest: on either read endpoint, traced or not, a
// cold request is one plan-cache miss and one cache="miss" latency
// observation, a warm one is one hit and one cache="hit" observation —
// nothing else moves (a traced solve used to re-plan, adding a phantom
// hit; a query was always observed as a hit).
func TestPlanCacheMetricsHonest(t *testing.T) {
	keys := []string{
		`gyo_plan_cache_total{event="miss"}`,
		`gyo_plan_cache_total{event="hit"}`,
		`gyo_solve_seconds_count{cache="miss"}`,
		`gyo_solve_seconds_count{cache="hit"}`,
	}
	for _, c := range []struct{ name, path, body string }{
		{"solve", "/v1/solve", `{"x": "ad"}`},
		{"solve traced", "/v1/solve", `{"x": "ad", "trace": true}`},
		{"query", "/v1/query", `{"query": "ans(A, D) :- ab(A, B), bc(B, C), cd(C, D)."}`},
		{"query traced", "/v1/query", `{"query": "ans(A, D) :- ab(A, B), bc(B, C), cd(C, D).", "trace": true}`},
	} {
		t.Run(c.name, func(t *testing.T) {
			ts, _, _ := obsServer(t, t.TempDir())
			prev := scrape(t, ts.URL)
			for _, want := range [][4]float64{{1, 0, 1, 0}, {0, 1, 0, 1}} { // cold, then warm
				post(t, ts.URL+c.path, c.body, nil)
				cur := scrape(t, ts.URL)
				for i, k := range keys {
					if got := cur[k] - prev[k]; got != want[i] {
						t.Errorf("%s moved by %v, want %v", k, got, want[i])
					}
				}
				prev = cur
			}
		})
	}
}

func TestMetricsGetOnly(t *testing.T) {
	ts, _, _ := obsServer(t, t.TempDir())
	resp, err := http.Post(ts.URL+"/v1/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /metrics status = %d, want 405", resp.StatusCode)
	}
}

// TestSolveTraceGolden pins the trace contract on the fixed 3-relation
// chain: the span tree covers exactly the statements of the GYO plan,
// in plan order, and the per-statement elapsed sum never exceeds the
// run's total elapsed.
func TestSolveTraceGolden(t *testing.T) {
	ts, _, _ := testServer(t)

	var plan PlanResponse
	post(t, ts.URL+"/v1/plan", `{"schema": "ab, bc, cd", "x": "ad"}`, &plan)
	if len(plan.Stmts) == 0 {
		t.Fatalf("plan = %+v", plan)
	}

	var sol SolveResponse
	resp := post(t, ts.URL+"/v1/solve", `{"x": "ad", "trace": true}`, &sol)
	if sol.Trace == nil {
		t.Fatal("trace requested but reply has no span tree")
	}
	if sol.RequestID == "" || resp.Header.Get("X-Request-Id") != sol.RequestID {
		t.Errorf("request id body=%q header=%q", sol.RequestID, resp.Header.Get("X-Request-Id"))
	}

	byID := map[int]*PlanStmt{}
	for i := range plan.Stmts {
		byID[plan.Stmts[i].ID] = &plan.Stmts[i]
	}
	seen := map[int]int{}
	sol.Trace.Each(func(sp *program.Span) {
		seen[sp.ID]++
		ps, ok := byID[sp.ID]
		if !ok {
			t.Errorf("span id %d not in plan", sp.ID)
			return
		}
		if sp.Op != ps.Op || sp.Left != ps.Left || sp.Right != ps.Right {
			t.Errorf("span %d = (%s %d,%d), plan says (%s %d,%d)",
				sp.ID, sp.Op, sp.Left, sp.Right, ps.Op, ps.Left, ps.Right)
		}
		if sp.Out < 0 || sp.InLeft < 0 {
			t.Errorf("span %d has negative cardinalities: %+v", sp.ID, sp)
		}
	})
	if len(seen) != len(plan.Stmts) {
		t.Errorf("trace covers %d statements, plan has %d", len(seen), len(plan.Stmts))
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("statement %d appears %d times in the trace tree", id, n)
		}
	}
	if want := plan.Stmts[len(plan.Stmts)-1].ID; sol.Trace.ID != want {
		t.Errorf("trace root = statement %d, want the final statement %d", sol.Trace.ID, want)
	}
	if sum := sol.Trace.ElapsedSum().Nanoseconds(); sum > sol.Stats.ElapsedNs {
		t.Errorf("span elapsed sum %dns exceeds run elapsed %dns", sum, sol.Stats.ElapsedNs)
	}

	// The untraced path stays untraced.
	var plain SolveResponse
	post(t, ts.URL+"/v1/solve", `{"x": "ad"}`, &plain)
	if plain.Trace != nil {
		t.Error("untraced reply carries a span tree")
	}
	if plain.Card != sol.Card {
		t.Errorf("traced card %d ≠ untraced card %d", sol.Card, plain.Card)
	}
}

func TestSlowQueryLog(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	u := schema.NewUniverse()
	d := schema.MustParse(u, "ab, bc, cd")
	e := New(Options{Logf: func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	e.Swap(urdb(d, 5, 50, 4))
	srv := NewServer(e, u, d)
	srv.SlowQuery = time.Nanosecond // everything is slow
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	var sol SolveResponse
	post(t, ts.URL+"/v1/solve", `{"x": "ad"}`, &sol)

	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 1 {
		t.Fatalf("slow-query log has %d lines, want 1: %q", len(lines), lines)
	}
	line := lines[0]
	for _, frag := range []string{"slow query", "id=" + sol.RequestID, "fp=", "x=ad", "top=["} {
		if !strings.Contains(line, frag) {
			t.Errorf("slow-query line missing %q: %s", frag, line)
		}
	}

	// Below threshold: silent.
	srv.SlowQuery = time.Hour
	post(t, ts.URL+"/v1/solve", `{"x": "ad"}`, &sol)
	if len(lines) != 1 {
		t.Errorf("fast query logged: %q", lines)
	}
}

// TestMetricsScrapeUnderLoad is the -race stress test: concurrent
// /metrics scrapes against live /solve traffic and direct Engine.Apply
// writers. Every scrape must parse, and monotone counters must never
// regress between consecutive scrapes of the same goroutine.
func TestMetricsScrapeUnderLoad(t *testing.T) {
	ts, srv, _ := obsServer(t, t.TempDir())

	monotone := []string{
		`gyo_solve_seconds_count{cache="hit",mode="serial"}`,
		`gyo_plan_cache_total{event="hit"}`,
		`gyo_apply_seconds_count`,
		`gyo_wal_append_seconds_count`,
	}

	const iters = 30
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := map[string]float64{}
			for i := 0; i < iters; i++ {
				resp, err := http.Get(ts.URL + "/v1/metrics")
				if err != nil {
					errc <- err
					return
				}
				series, err := obs.ParseText(resp.Body)
				resp.Body.Close()
				if err != nil {
					errc <- fmt.Errorf("scrape %d unparseable: %w", i, err)
					return
				}
				for _, key := range monotone {
					if series[key] < last[key] {
						errc <- fmt.Errorf("scrape %d: %s regressed %v → %v", i, key, last[key], series[key])
						return
					}
					last[key] = series[key]
				}
			}
		}()
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				var sol SolveResponse
				post(t, ts.URL+"/v1/solve", `{"x": "ad", "limit": 0}`, &sol)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			v := 100 + i
			if _, _, err := srv.E.Apply(storage.Insert(0, 2, []relation.Tuple{{relation.Value(v), relation.Value(v + 1)}})); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

func TestStatsProcessBlock(t *testing.T) {
	ts, _, _ := testServer(t)

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.UptimeSeconds <= 0 {
		t.Errorf("uptimeSeconds = %v, want > 0", st.UptimeSeconds)
	}
	if st.Goroutines <= 0 {
		t.Errorf("goroutines = %d, want > 0", st.Goroutines)
	}
	if st.BuildInfo == nil || st.BuildInfo.GoVersion == "" {
		t.Errorf("buildInfo = %+v, want embedded go version", st.BuildInfo)
	}
}

// TestTraceShowsStreamedJoin: on the D20k database (seed 1) the q5 read
// shape, π_AC(ab ⋈ bc), streams its 218 502-row join into the
// projection. The traced reply still reports the join — its span carries
// the rows that passed through and is marked streamed — and the stats
// count it as the largest intermediate, as if it had been stored.
func TestTraceShowsStreamedJoin(t *testing.T) {
	u := schema.NewUniverse()
	d := schema.MustParse(u, "ab, bc, cd, de, ac")
	e := New(Options{})
	e.Swap(urdb(d, 1, 20000, 2000))
	ts := httptest.NewServer(NewServer(e, u, d).Handler())
	t.Cleanup(ts.Close)

	var ans QueryResponse
	resp := post(t, ts.URL+"/v1/query", `{"query": "ans(A,C) :- ab(A,B), bc(B,C).", "limit": 10, "trace": true}`, &ans)
	if resp.StatusCode != http.StatusOK || ans.Trace == nil {
		t.Fatalf("status %d, trace %v", resp.StatusCode, ans.Trace)
	}
	const joined = 218502
	var join *program.Span
	ans.Trace.Each(func(sp *program.Span) {
		if sp.Op == "join" {
			join = sp
		}
	})
	if join == nil || join.Out != joined || !join.Streamed || join.ElapsedNs != 0 {
		t.Fatalf("join span %+v, want out %d, streamed, no time of its own", join, joined)
	}
	if ans.Trace.Op != "project" || ans.Trace.InLeft != joined || ans.Trace.Streamed {
		t.Errorf("root span %+v, want the projection of the %d joined rows", ans.Trace, joined)
	}
	if ans.Stats.MaxIntermediate != joined {
		t.Errorf("max intermediate %d, want the streamed join's %d", ans.Stats.MaxIntermediate, joined)
	}
}

// TestTraceShowsStreamedChain: on the D20k database (seed 1) the s8 read,
// /v1/solve x=ab, runs the ∪GR bag as one chain — ab ⋈ bc, filtered by
// ac, semijoined by cd ⋉ de, projected onto ab — and its trace says so:
// the join, the filter and the semijoin are streamed and carry no time,
// the projection carries the chain's, and every statement's out is what
// the statements run one by one give (their parent's figures).
func TestTraceShowsStreamedChain(t *testing.T) {
	u := schema.NewUniverse()
	d := schema.MustParse(u, "ab, bc, cd, de, ac")
	e := New(Options{})
	e.Swap(urdb(d, 1, 20000, 2000))
	ts := httptest.NewServer(NewServer(e, u, d).Handler())
	t.Cleanup(ts.Close)

	var sol SolveResponse
	resp := post(t, ts.URL+"/v1/solve", `{"x": "ab", "limit": 10, "trace": true}`, &sol)
	if resp.StatusCode != http.StatusOK || sol.Trace == nil {
		t.Fatalf("status %d, trace %v", resp.StatusCode, sol.Trace)
	}
	// By statement: cd ⋉ de, then the chain ab ⋈ bc, ⋈ ac, ⋉ cd', π_ab.
	want := []struct {
		op       string
		out      int
		streamed bool
	}{{"semijoin", 19944, false}, {"join", 218502, true}, {"join", 20962, true}, {"semijoin", 20962, true}, {"project", 19956, false}}
	spans := map[int]*program.Span{}
	sol.Trace.Each(func(sp *program.Span) { spans[sp.ID] = sp })
	for i, w := range want {
		sp := spans[len(d.Rels)+i]
		if sp == nil || sp.Op != w.op || sp.Out != w.out || sp.Streamed != w.streamed || (sp.ElapsedNs == 0) != w.streamed {
			t.Errorf("statement %d: span %+v, want a %s of %d rows, streamed %v", i, sp, w.op, w.out, w.streamed)
		}
	}
	if sol.Card != 19956 || sol.Stats.MaxIntermediate != 218502 || sol.Stats.TuplesProduced != 300326 || len(sol.Tuples) != 10 {
		t.Errorf("card %d, stats %+v, %d tuples echoed; want 19956, max intermediate 218502, 300326 produced, 10",
			sol.Card, sol.Stats, len(sol.Tuples))
	}
}

// TestCountedAnswerMatchesStored: a read whose answer is a join — q5's
// projection of ab ⋈ bc, q6's ab ⋈ bc itself, q7's ab ⋈ bc filtered by
// ac — builds only the rows its limit echoes. At limit 0, 1 and 10 and
// with the limit omitted, the reply's card, truncated flag, tuples and
// stats must be those of the same plan run keeping every row, and the
// traced answer span must be marked counted with the full card as its out.
func TestCountedAnswerMatchesStored(t *testing.T) {
	u := schema.NewUniverse()
	d := schema.MustParse(u, "ab, bc, cd, de, ac")
	e := New(Options{})
	e.Swap(urdb(d, 3, 400, 12))
	ts := httptest.NewServer(NewServer(e, u, d).Handler())
	t.Cleanup(ts.Close)

	for _, q := range []string{
		"ans(A,C) :- ab(A,B), bc(B,C).",
		"ans(A,B,C) :- ab(A,B), bc(B,C), cd(C,D).",
		"ans(A,B,C) :- ab(A,B), bc(B,C), ac(A,C).",
	} {
		pl, err := e.PrepareQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		whole, st, err := e.SolveQuery(pl, 1, program.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		card, cols := whole.Card(), whole.Cols()
		for _, limit := range []int{0, 1, 10, -1} { // -1: omitted
			body, k := fmt.Sprintf(`{"query": %q, "trace": true, "limit": %d}`, q, limit), limit
			if limit < 0 {
				body, k = fmt.Sprintf(`{"query": %q, "trace": true}`, q), DefaultMaxTuples
			}
			want := make([][]relation.Value, min(card, k))
			for i := range want {
				row := whole.TupleAt(i)
				for _, id := range pl.HeadIDs {
					want[i] = append(want[i], row[indexOfAttr(cols, id)])
				}
			}
			var ans QueryResponse
			if resp := post(t, ts.URL+"/v1/query", body, &ans); resp.StatusCode != http.StatusOK {
				t.Fatalf("%s limit %d: status %d", q, limit, resp.StatusCode)
			}
			if ans.Card != card || ans.Truncated != (card > k) || !reflect.DeepEqual(ans.Tuples, want) ||
				ans.Stats.TuplesProduced != st.TuplesProduced || ans.Stats.MaxIntermediate != st.MaxIntermediate {
				t.Errorf("%s limit %d: card %d, truncated %v, %d tuples, %d produced, max %d; want %d, %v, %d, %d, %d\n got  %v\n want %v",
					q, limit, ans.Card, ans.Truncated, len(ans.Tuples), ans.Stats.TuplesProduced, ans.Stats.MaxIntermediate,
					card, card > k, len(want), st.TuplesProduced, st.MaxIntermediate, ans.Tuples, want)
			}
			if ans.Trace == nil || !ans.Trace.Counted || ans.Trace.Out != card {
				t.Errorf("%s limit %d: answer span %+v, want counted with out %d", q, limit, ans.Trace, card)
			}
		}
		if card <= 10 {
			t.Errorf("%s: the fixture answers %d rows, so limit 10 truncates nothing", q, card)
		}
	}
}
