// Command gyobench regenerates every experiment in EXPERIMENTS.md: the
// paper's figures and worked examples (asserted reproductions) plus
// the synthetic performance tables. With -parallel it instead becomes
// a load driver that hammers a serving engine from N goroutines; with
// -json / -gate it is the benchmark-trajectory tool CI uses to record
// and police performance.
//
// Usage:
//
//	gyobench              run everything
//	gyobench -run sec6    run one experiment by id
//	gyobench -list        list experiment ids
//	gyobench -time        print per-experiment wall time
//	gyobench -parallel 8 [-duration 2s] [-schema "ab, bc, cd"]
//	                      [-tuples 5000] [-domain 32] [-nowriter]
//	                      [-shards P]
//	                      load-test an Engine; report throughput and
//	                      p50/p95/p99 latency
//	gyobench -ingest 100000 [-batch 128] [-datadir DIR] [-nosync]
//	                      drive the durable write path (WAL + snapshot
//	                      publish); report tuples/sec and verify by
//	                      reopening the store
//	gyobench -follower URL [-leader URL] [-parallel 4] [-duration 2s]
//	                      [-schema "ab, bc, cd"] [-batch 128] [-domain 32]
//	                      drive read load against a running replica over
//	                      HTTP (optionally ingesting through the leader);
//	                      report p50/p95/p99 latency and observed lag
//	gyobench -json [-sha SHA] < bench.out > BENCH_SHA.json
//	                      convert `go test -bench` output to JSON
//	gyobench -gate BENCH_baseline.json [-gatepattern 'Join|Semijoin']
//	                      [-maxregress 1.2] < BENCH_SHA.json
//	                      fail if gated benchmarks regressed
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gyokit/internal/engine"
	"gyokit/internal/exp"
	"gyokit/internal/obs"
	"gyokit/internal/program"
	"gyokit/internal/relation"
	"gyokit/internal/schema"
)

func main() {
	run := flag.String("run", "", "experiment id to run (default: all)")
	list := flag.Bool("list", false, "list experiment ids")
	timed := flag.Bool("time", false, "print per-experiment wall time")
	parallel := flag.Int("parallel", 0, "load-driver mode: number of query goroutines")
	duration := flag.Duration("duration", 2*time.Second, "load-driver run time")
	schemaText := flag.String("schema", "ab, bc, cd, de", "load-driver serving schema")
	tuples := flag.Int("tuples", 5000, "load-driver universal tuples")
	domain := flag.Int("domain", 32, "load-driver value domain")
	nowriter := flag.Bool("nowriter", false, "load-driver: disable the snapshot-swapping writer")
	shards := flag.Int("shards", 1, "load-driver: per-request partition parallelism (1 = serial)")
	ingest := flag.Int("ingest", 0, "ingest-driver mode: total tuples to write durably")
	batch := flag.Int("batch", 128, "ingest-driver: tuples per Apply batch")
	dataDir := flag.String("datadir", "", "ingest-driver: store directory (default: a temp dir, removed after)")
	noSync := flag.Bool("nosync", false, "ingest-driver: skip fsync on WAL appends")
	emit := flag.Bool("json", false, "convert `go test -bench` output on stdin to BENCH json on stdout")
	sha := flag.String("sha", os.Getenv("GITHUB_SHA"), "commit sha recorded by -json")
	gateBaseline := flag.String("gate", "", "baseline BENCH json to gate stdin against")
	gatePattern := flag.String("gatepattern", "Join|Semijoin|ReplApply", "regexp selecting gated benchmarks")
	maxRegress := flag.Float64("maxregress", 1.20, "max allowed current/baseline ns-per-op ratio")
	follower := flag.String("follower", "", "follower-driver mode: base URL of a read replica to load-test")
	leaderURL := flag.String("leader", "", "follower-driver: leader base URL to ingest through during the run")
	flag.Parse()

	if *follower != "" {
		if *parallel <= 0 {
			*parallel = 4
		}
		if err := followerDrive(*follower, *leaderURL, *parallel, *duration, *schemaText, *domain, *batch, *emit); err != nil {
			fmt.Fprintln(os.Stderr, "gyobench: FAILED:", err)
			os.Exit(1)
		}
		return
	}
	if *parallel > 0 {
		// -json here switches the load report (including the metrics
		// scrape deltas) to machine-readable output; without -parallel it
		// keeps its original meaning of converting `go test -bench` text.
		if err := loadDrive(*parallel, *duration, *schemaText, *tuples, *domain, !*nowriter, *shards, *emit); err != nil {
			fmt.Fprintln(os.Stderr, "gyobench: FAILED:", err)
			os.Exit(1)
		}
		return
	}
	if *emit {
		if err := emitJSON(*sha); err != nil {
			fmt.Fprintln(os.Stderr, "gyobench: FAILED:", err)
			os.Exit(1)
		}
		return
	}
	if *gateBaseline != "" {
		if err := gate(*gateBaseline, *gatePattern, *maxRegress); err != nil {
			fmt.Fprintln(os.Stderr, "gyobench: FAILED:", err)
			os.Exit(1)
		}
		return
	}
	if *ingest > 0 {
		if err := ingestDrive(*ingest, *batch, *dataDir, *schemaText, *domain, *noSync); err != nil {
			fmt.Fprintln(os.Stderr, "gyobench: FAILED:", err)
			os.Exit(1)
		}
		return
	}
	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	if *run != "" {
		e, ok := exp.ByID(*run)
		if !ok {
			fmt.Fprintf(os.Stderr, "gyobench: unknown experiment %q (try -list)\n", *run)
			os.Exit(2)
		}
		if err := exp.RunOne(e, os.Stdout, *timed); err != nil {
			fmt.Fprintln(os.Stderr, "gyobench: FAILED:", err)
			os.Exit(1)
		}
		return
	}
	if err := exp.RunAllTimed(os.Stdout, *timed); err != nil {
		fmt.Fprintln(os.Stderr, "gyobench: FAILED:", err)
		os.Exit(1)
	}
	fmt.Println("all experiments passed")
}

// solve evaluates (d, x) on e's snapshot at the given parallelism,
// through the plan cache.
func solve(e *engine.Engine, d *schema.Schema, x schema.AttrSet, shards int) error {
	pl, err := e.Plan(d, x)
	if err != nil {
		return err
	}
	_, _, err = e.SolveQuery(pl, shards, program.Limits{})
	return err
}

// loadDrive hammers one Engine from n goroutines for the given
// duration — the serving-path counterpart of the library benchmarks.
// Workers cycle through every attribute pair of the schema as query
// targets (so traffic mixes plan-cache hits with evictions), while an
// optional writer keeps deriving copy-on-write snapshots and swapping
// them in. Each request runs with the given partition parallelism.
// It reports aggregate throughput, per-request latency percentiles,
// and cache behavior.
//
// The run has two phases — a warm-up pass over every target (plans
// compiled, pools primed) and the measured load — with a metrics
// scrape between them and one after, exactly as an external Prometheus
// would scrape a gyod. The per-series deltas isolate what the measured
// phase did; with jsonOut the whole report, deltas included, is one
// JSON object on stdout.
func loadDrive(n int, d time.Duration, schemaText string, tuples, domain int, writer bool, shards int, jsonOut bool) error {
	u := schema.NewUniverse()
	sch, err := schema.Parse(u, schemaText)
	if err != nil {
		return err
	}
	attrs := sch.Attrs().Attrs()
	if len(attrs) < 2 {
		return fmt.Errorf("schema needs at least two attributes")
	}
	var targets []schema.AttrSet
	for i := 0; i < len(attrs); i++ {
		for j := i + 1; j < len(attrs); j++ {
			targets = append(targets, schema.NewAttrSet(attrs[i], attrs[j]))
		}
	}

	e := engine.New(engine.Options{Workers: shards})
	univ, got := relation.RandomUniversal(u, sch.Attrs(), tuples, domain, rand.New(rand.NewSource(1)))
	e.Swap(relation.URDatabase(sch, univ))

	// Phase 1: warm-up — solve every target once so plans are compiled
	// and pools primed before anything is measured.
	for _, x := range targets {
		if err := solve(e, sch, x, shards); err != nil {
			return err
		}
	}
	// Scrape between phases: the delta against the post-run scrape
	// isolates exactly what the measured load did.
	before, err := scrapeMetrics(e)
	if err != nil {
		return err
	}

	if !jsonOut {
		fmt.Printf("load-driving %s (%d universal tuples, %d query targets) with %d goroutines for %v",
			sch, got, len(targets), n, d)
		if shards > 1 {
			fmt.Printf(" at parallelism %d", e.ClampParallelism(shards))
		}
		if writer {
			fmt.Printf(" + 1 writer")
		}
		fmt.Println()
	}

	stop := make(chan struct{})
	var swaps int64
	var writerWG sync.WaitGroup
	if writer {
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			rng := rand.New(rand.NewSource(2))
			for {
				select {
				case <-stop:
					return
				default:
				}
				e.Update(func(snap *relation.Database) *relation.Database {
					ri := rng.Intn(len(snap.Rels))
					tup := make(relation.Tuple, len(snap.Rels[ri].Cols()))
					for k := range tup {
						tup[k] = relation.Value(rng.Intn(domain))
					}
					return snap.InsertTuple(ri, tup)
				})
				atomic.AddInt64(&swaps, 1)
				time.Sleep(time.Millisecond)
			}
		}()
	}

	// Latencies are kept per goroutine in a bounded reservoir (uniform
	// sample once full), so a long -duration run cannot grow the heap
	// without limit or perturb the numbers it is measuring.
	const reservoirCap = 1 << 16
	lats := make([][]time.Duration, n)
	ops := make([]int64, n)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	var errMu sync.Mutex
	var firstErr error
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			for i := 0; time.Now().Before(deadline); i++ {
				x := targets[(g+i)%len(targets)]
				t0 := time.Now()
				if err := solve(e, sch, x, shards); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
				lat := time.Since(t0)
				ops[g]++
				if len(lats[g]) < reservoirCap {
					lats[g] = append(lats[g], lat)
				} else if j := rng.Int63n(ops[g]); j < reservoirCap {
					lats[g][j] = lat
				}
			}
		}(g)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stop)
	writerWG.Wait()
	if firstErr != nil {
		return firstErr
	}

	var total int64
	for _, o := range ops {
		total += o
	}
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	after, err := scrapeMetrics(e)
	if err != nil {
		return err
	}
	deltas := metricsDelta(before, after)
	st := e.Stats()
	if len(all) > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	}

	if jsonOut {
		report := struct {
			Schema        string             `json:"schema"`
			Goroutines    int                `json:"goroutines"`
			Parallelism   int                `json:"parallelism"`
			Writer        bool               `json:"writer"`
			DurationSec   float64            `json:"durationSec"`
			Queries       int64              `json:"queries"`
			QueriesPerSec float64            `json:"queriesPerSec"`
			LatencyNs     map[string]int64   `json:"latencyNs,omitempty"`
			PlanHits      uint64             `json:"planHits"`
			PlanMisses    uint64             `json:"planMisses"`
			Swaps         int64              `json:"swaps,omitempty"`
			MetricsDelta  map[string]float64 `json:"metricsDelta"`
		}{
			Schema:        sch.String(),
			Goroutines:    n,
			Parallelism:   e.ClampParallelism(shards),
			Writer:        writer,
			DurationSec:   elapsed.Seconds(),
			Queries:       total,
			QueriesPerSec: float64(total) / elapsed.Seconds(),
			PlanHits:      st.PlanHits,
			PlanMisses:    st.PlanMisses,
			Swaps:         atomic.LoadInt64(&swaps),
			MetricsDelta:  deltas,
		}
		if len(all) > 0 {
			report.LatencyNs = map[string]int64{
				"p50": percentile(all, 50).Nanoseconds(),
				"p95": percentile(all, 95).Nanoseconds(),
				"p99": percentile(all, 99).Nanoseconds(),
				"max": all[len(all)-1].Nanoseconds(),
			}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	}

	fmt.Printf("total:      %d queries in %v\n", total, elapsed.Round(time.Millisecond))
	fmt.Printf("throughput: %.0f queries/sec aggregate (%.0f /sec/goroutine)\n",
		float64(total)/elapsed.Seconds(), float64(total)/elapsed.Seconds()/float64(n))
	if len(all) > 0 {
		fmt.Printf("latency:    p50 %v  p95 %v  p99 %v  max %v\n",
			percentile(all, 50), percentile(all, 95), percentile(all, 99), all[len(all)-1])
	}
	fmt.Printf("plan cache: %d hits, %d misses, %d resident\n", st.PlanHits, st.PlanMisses, st.CachedPlans)
	if shards > 1 {
		fmt.Printf("parallel:   %d of %d evals ran partition-parallel\n", st.ParEvals, st.Evals)
	}
	if writer {
		fmt.Printf("snapshots:  %d swaps during the run\n", atomic.LoadInt64(&swaps))
	}
	if len(deltas) > 0 {
		fmt.Printf("metrics:    %d series moved during the measured phase; notable deltas:\n", len(deltas))
		for _, k := range obs.SortedKeys(deltas) {
			if strings.Contains(k, "_bucket{") {
				continue // bucket lines swamp the summary; counts and sums tell the story
			}
			fmt.Printf("  %-56s %+g\n", k, deltas[k])
		}
	}
	return nil
}

// scrapeMetrics serializes the engine's registry to Prometheus text and
// parses it back — the in-process equivalent of curling /metrics, so
// the deltas the driver reports are exactly what an external scraper
// would see.
func scrapeMetrics(e *engine.Engine) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := e.Metrics().WriteText(&buf); err != nil {
		return nil, err
	}
	return obs.ParseText(&buf)
}

// metricsDelta returns after-minus-before for every series that moved.
func metricsDelta(before, after map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// percentile returns the p-th percentile of sorted latencies by the
// nearest-rank method.
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := (p*len(sorted) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
