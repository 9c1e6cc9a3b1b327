package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"gyokit/internal/relation"
)

func TestPercentileNearestRank(t *testing.T) {
	s := series{5, 1, 4, 2, 3}.sorted()
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {20, 1}, {21, 2}, {50, 3}, {80, 4}, {81, 5}, {99, 5}, {100, 5},
	} {
		if got := s.percentile(tc.p); got != tc.want {
			t.Errorf("p%v of 1..5 = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := (series{}).percentile(50); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
	// The nearest-rank median of an even count is the lower middle.
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median of 1..4 = %v, want 2", got)
	}
	if got := (series{1, 2, 3, 6}).mean(); got != 3 {
		t.Errorf("mean = %v, want 3", got)
	}
}

func TestTenBeyondRule(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		beyond int
	}{
		{200, 95, 10}, {199, 95, 9}, {1000, 99, 10}, {999, 99, 9}, {20, 50, 10}, {600, 95, 30},
	} {
		if got := beyond(tc.n, tc.p); got != tc.beyond {
			t.Errorf("beyond(%d, p%v) = %d, want %d", tc.n, tc.p, got, tc.beyond)
		}
		if got, want := supported(tc.n, tc.p), tc.beyond >= 10; got != want {
			t.Errorf("supported(%d, p%v) = %v, want %v", tc.n, tc.p, got, want)
		}
	}
	if p, ok := tailOf("read_p95_ms"); !ok || p != 95 {
		t.Errorf("tailOf(read_p95_ms) = %v, %v", p, ok)
	}
	if _, ok := tailOf("reads_per_s"); ok {
		t.Error("tailOf(reads_per_s) found a percentile")
	}
}

// flat renders a generated database so two of them compare by value.
func flat(t *testing.T, db *relation.Database) [][]relation.Value {
	t.Helper()
	out := make([][]relation.Value, len(db.Rels))
	for i, r := range db.Rels {
		out[i] = r.RawData()
	}
	return out
}

func TestInputsFollowTheSeed(t *testing.T) {
	for _, s := range specs {
		a, err := s.generate(7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.generate(7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := s.generate(8)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(flat(t, a.db), flat(t, b.db)) {
			t.Errorf("%s: same seed, different data", s.name)
		}
		if reflect.DeepEqual(flat(t, a.db), flat(t, c.db)) {
			t.Errorf("%s: different seeds, same data", s.name)
		}
		if !reflect.DeepEqual(a.reads, b.reads) {
			t.Errorf("%s: same seed, different request list", s.name)
		}
	}
	// plan_churn's list is several plan caches long, every request
	// distinct, and every query and solve carries its oracle.
	churn, _ := specByName("plan_churn")
	in, err := churn.generate(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.reads) < 860 {
		t.Errorf("plan_churn has %d requests, want ≥ 860", len(in.reads))
	}
	seen := map[string]bool{}
	for _, r := range in.reads {
		key := r.path + string(r.body)
		if seen[key] {
			t.Errorf("duplicate request %s", key)
		}
		seen[key] = true
		switch r.path {
		case "/v1/query", "/v1/solve":
			if r.wantCard < 0 {
				t.Errorf("%s %s has no oracle card", r.path, r.body)
			}
		default:
			if r.wantTree == nil {
				t.Errorf("%s %s has no oracle tree flag", r.path, r.body)
			}
		}
	}
}

func TestRelModelIsStationary(t *testing.T) {
	db, err := d20k.generate(3)
	if err != nil {
		t.Fatal(err)
	}
	m := newRelModel("ab", db.Rels[0])
	base := db.Rels[0].Card()
	rng := rand.New(rand.NewSource(3))
	var inserted [][]relation.Tuple
	deletes := 0
	for step := 1; step <= 200; step++ {
		w := m.next(rng)
		if len(w.tuples) != batchTuples {
			t.Fatalf("step %d: batch of %d tuples", step, len(w.tuples))
		}
		if w.del {
			// Deletes come oldest batch first.
			if !reflect.DeepEqual(w.tuples, inserted[deletes]) {
				t.Fatalf("step %d: delete is not the oldest pending batch", step)
			}
			deletes++
		} else {
			if step <= deleteLag && w.wantCard != base+step*batchTuples {
				t.Fatalf("step %d: ramp-up insert leaves card %d", step, w.wantCard)
			}
			inserted = append(inserted, w.tuples)
		}
		if w.wantCard != len(m.present) {
			t.Fatalf("step %d: wantCard %d, model holds %d", step, w.wantCard, len(m.present))
		}
		if pending := len(inserted) - deletes; step > deleteLag && (pending < deleteLag || pending > deleteLag+1) {
			t.Fatalf("step %d: %d batches pending, want %d or %d", step, pending, deleteLag, deleteLag+1)
		}
	}
}

func TestOpenLoopDueTimes(t *testing.T) {
	start := time.Unix(1000, 0)
	for i, want := range []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond} {
		if got := dueTime(start, i, 100).Sub(start); got != want {
			t.Errorf("request %d at 100/s is due after %v, want %v", i, got, want)
		}
	}
	// A request due at 30 ms, sent at 34 ms and answered at 41 ms ran
	// 4 ms late and took 11 ms from its due instant — not 7.
	due := dueTime(start, 3, 100)
	sent, done := start.Add(34*time.Millisecond), start.Add(41*time.Millisecond)
	if late, lat := msBetween(due, sent), msBetween(due, done); late != 4 || lat != 11 {
		t.Errorf("lateness %v ms, latency %v ms; want 4 and 11", late, lat)
	}
}

func TestProcParsing(t *testing.T) {
	// Field 2 may hold spaces and parentheses; utime=1234 stime=56.
	stat := "4242 (gyod (v1) x) S 1 4242 4242 0 -1 4194560 999 0 0 0 1234 56 0 0 20 0 9 0 100 200 300\n"
	ms, err := parseStatCPUMs(stat)
	if err != nil || ms != 12900 {
		t.Errorf("parseStatCPUMs = %v, %v; want 12900", ms, err)
	}
	if _, err := parseStatCPUMs("4242 gyod S 1"); err == nil {
		t.Error("parseStatCPUMs accepted a line without a command field")
	}
	if _, err := parseStatCPUMs("4242 (gyod) S 1 2"); err == nil {
		t.Error("parseStatCPUMs accepted a short line")
	}
	status := "Name:\tgyod\nVmPeak:\t 1300000 kB\nVmHWM:\t   83968 kB\nVmRSS:\t   70000 kB\n"
	mb, err := parseStatusHWMMB(status)
	if err != nil || mb != 82 {
		t.Errorf("parseStatusHWMMB = %v, %v; want 82", mb, err)
	}
	if _, err := parseStatusHWMMB("Name:\tgyod\n"); err == nil {
		t.Error("parseStatusHWMMB accepted a status without VmHWM")
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the catalogue: the gated
// metrics with their units, directions and bounds, and the workloads.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jm struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jm `json:"end_to_end"`
		PerLayer   []jm `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bj.Workloads), len(specs))
	}
	for i, s := range specs {
		if bj.Workloads[i].Name != s.name || bj.Workloads[i].Why != s.why {
			t.Errorf("workload %d is %+v, want %s: %s", i, bj.Workloads[i], s.name, s.why)
		}
		if len(s.why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", s.name, len(s.why))
		}
	}
	check := func(kind string, got []jm, defs []def, bounded bool) {
		want := gated(defs)
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the catalogue gates %d", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d is %+v, want %s %s %s", kind, i, g, d.name, d.unit, d.better)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound || d.bound <= 0 || d.bound > 0.25) {
				t.Errorf("%s %s: bound %v, want %v within (0, 0.25]", kind, d.name, g.Bound, d.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s carries a bound", kind, d.name)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEndDefs, true)
	check("per_layer", bj.PerLayer, perLayerDefs, false)
	if len(bj.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, the limit is 128", len(bj.PerLayer))
	}
	// The whole matrix — 4 + 22 runs per workload, each setting up
	// setupRepeats times — must fit the driver's 3420 s with room for
	// two builds.
	if runs := 4 + 22*len(specs); runs*(bj.RunSeconds+15) > 3300 {
		t.Errorf("%d runs of %d s leave no room for set-up inside 3420 s", runs, bj.RunSeconds)
	}
}

// TestSmoke runs all four workloads at 1 s scale against a real gyod:
// both phases, the integrity checks, the span pass and the probes.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not available:", err)
	}
	b, err := newBench()
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	b.setupRepeats = 1
	for _, s := range specs {
		res, err := b.runWorkload(s, 1, time.Second, true, true)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", s.name, res.Failed, res.Attempted, res.Failures)
		}
		for _, traced := range []bool{false, true} {
			if _, err := driverLine(res, traced); err != nil {
				t.Error(err)
			}
		}
		if s.durable && s.follower == false && res.PerLayer["storage.recover_ms"] <= 0 {
			t.Errorf("%s: the restart after SIGKILL was not timed", s.name)
		}
		if s.follower && res.PerLayer["repl.apply_ratio"] != 1 {
			t.Errorf("%s: repl.apply_ratio = %v, want 1", s.name, res.PerLayer["repl.apply_ratio"])
		}
	}
	if left, _ := filepath.Glob(filepath.Join(b.scratch, "*")); len(left) != 0 {
		t.Errorf("scratch data left behind: %v", left)
	}
}
