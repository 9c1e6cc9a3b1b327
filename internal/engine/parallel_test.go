package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"gyokit/internal/relation"
	"gyokit/internal/schema"
)

// newTestHTTPServer wraps srv in an httptest server torn down with t.
func newTestHTTPServer(t *testing.T, srv *Server) string {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestSolveParMatchesSerial: the parallel serving path must return
// exactly the serial result at every parallelism level, including
// levels above the engine's worker cap (clamped) and below 1
// (serial).
func TestSolveParMatchesSerial(t *testing.T) {
	u := schema.NewUniverse()
	d := schema.MustParse(u, "ab, bc, cd, de")
	x := u.Set("a", "e")
	e := New(Options{Workers: 4})
	e.Swap(urdb(d, 9, 400, 8))

	want, _, err := e.Solve(d, x)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{-1, 0, 1, 2, 4, 64} {
		got, st, err := solvePar(e, d, x, par)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if !got.Equal(want) {
			t.Fatalf("parallelism %d: result differs from serial", par)
		}
		if par <= 1 && st.ParallelStmts != 0 {
			t.Fatalf("parallelism %d: %d statements fanned out on the serial path", par, st.ParallelStmts)
		}
	}
	if e.Workers() != 4 {
		t.Fatalf("Workers() = %d, want 4", e.Workers())
	}
	if got := e.ClampParallelism(64); got != 4 {
		t.Fatalf("ClampParallelism(64) = %d, want 4", got)
	}
	if got := e.ClampParallelism(-3); got != 1 {
		t.Fatalf("ClampParallelism(-3) = %d, want 1", got)
	}
}

// TestSolveParCountsAndPlanCache: parallel solves share the plan cache
// with serial solves (one miss total) and bump the ParEvals counter
// only when the request actually fans out.
func TestSolveParCountsAndPlanCache(t *testing.T) {
	u := schema.NewUniverse()
	d := schema.MustParse(u, "ab, bc, cd")
	x := u.Set("a", "d")
	e := New(Options{Workers: 4})
	e.Swap(urdb(d, 3, 6000, 6))

	if _, _, err := e.Solve(d, x); err != nil {
		t.Fatal(err)
	}
	if _, _, err := solvePar(e, d, x, 4); err != nil {
		t.Fatal(err)
	}
	if _, _, err := solvePar(e, d, x, 1); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.PlanMisses != 1 {
		t.Fatalf("plan misses = %d, want 1 (parallel path must reuse the cached plan)", st.PlanMisses)
	}
	if st.Evals != 3 {
		t.Fatalf("evals = %d, want 3", st.Evals)
	}
	if st.ParEvals != 1 {
		t.Fatalf("parEvals = %d, want 1", st.ParEvals)
	}
}

// TestServerSolveParallelism: the HTTP parallelism knob reaches the
// engine, is clamped to the worker cap, and reports what it used.
func TestServerSolveParallelism(t *testing.T) {
	u := schema.NewUniverse()
	d := schema.MustParse(u, "ab, bc, cd")
	e := New(Options{Workers: 4})
	e.Swap(urdb(d, 5, 5000, 6))
	srv := NewServer(e, u, d)
	ts := newTestHTTPServer(t, srv)

	var serial, par SolveResponse
	post(t, ts+"/v1/solve", `{"x": "ad"}`, &serial)
	post(t, ts+"/v1/solve", `{"x": "ad", "parallelism": 64}`, &par)
	if serial.Stats.Parallelism != 1 {
		t.Fatalf("serial request reports parallelism %d", serial.Stats.Parallelism)
	}
	if par.Stats.Parallelism != 4 {
		t.Fatalf("parallel request reports parallelism %d, want clamped 4", par.Stats.Parallelism)
	}
	if serial.Card != par.Card {
		t.Fatalf("parallel solve returned %d tuples, serial %d", par.Card, serial.Card)
	}
	var st StatsResponse
	resp, err := http.Get(ts + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Workers != 4 {
		t.Fatalf("/v1/stats workers = %d, want 4", st.Workers)
	}
	if st.ParEvals == 0 {
		t.Fatal("/v1/stats parEvals = 0 after a parallel solve")
	}
}

// TestConcurrentMixedParallelismSolves is the -race stress test for
// the parallel serving path: N goroutines issue /solve requests over
// HTTP with mixed parallelism (serial, capped, over-cap) while a live
// writer keeps publishing new snapshots through Engine.Update. Every
// request must succeed; the race detector polices the sharing.
func TestConcurrentMixedParallelismSolves(t *testing.T) {
	u := schema.NewUniverse()
	d := schema.MustParse(u, "ab, bc, cd, de")
	e := New(Options{Workers: 4})
	e.Swap(urdb(d, 11, 2000, 8))
	srv := NewServer(e, u, d)
	ts := newTestHTTPServer(t, srv)

	stop := make(chan struct{})
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		val := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			e.Update(func(snap *relation.Database) *relation.Database {
				val++
				ri := val % len(snap.Rels)
				tup := make(relation.Tuple, len(snap.Rels[ri].Cols()))
				for k := range tup {
					tup[k] = relation.Value((val + k) % 8)
				}
				return snap.InsertTuple(ri, tup)
			})
		}
	}()

	targets := []string{"ae", "ad", "be", "ce"}
	parallelisms := []int{0, 1, 2, 4, 16}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				body := fmt.Sprintf(`{"x": %q, "parallelism": %d}`,
					targets[(g+i)%len(targets)], parallelisms[(g*7+i)%len(parallelisms)])
				resp, err := http.Post(ts+"/v1/solve", "application/json", bytes.NewReader([]byte(body)))
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("goroutine %d: /solve status %d for %s", g, resp.StatusCode, body)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	writerWG.Wait()
}
