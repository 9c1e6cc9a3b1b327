package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// metrics is a set of measured values by catalogue name.
type metrics map[string]float64

// def describes one metric of the catalogue.
type def struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: the share by which it may worsen
	// gated metrics are defined on every workload and listed in
	// BENCHMARK.json; the rest appear where their workload has them.
	gated bool
}

// Bounds: the share of the previous median by which an end-to-end
// metric may worsen before a change counts as a regression. On a quiet
// box ten same-build runs spread each timing by 2–6 % (README, "Bounds
// and spreads"), but the 2-core sandbox has slow minutes that move
// every timing by a third, so timings get the widest bound the
// benchmark contract allows; the exact byte ratio gets a tight one.
const (
	boundTiming = 0.25
	boundAmp    = 0.05
)

// endToEndDefs are what a client of the system sees. op_* are the
// latency and rate of one step of the workload's closed-loop clients —
// a read where it has readers, an insert-then-delete cycle of a writer
// otherwise — so that one gated name is defined on every workload;
// read_* and write_* are per request, where a workload has the class.
var endToEndDefs = []def{
	{"setup_s", "s", "lower", boundTiming, true},
	{"op_p50_ms", "ms", "lower", boundTiming, true},
	{"op_p95_ms", "ms", "lower", boundTiming, true},
	{"ops_per_s", "1/s", "higher", boundTiming, true},
	{"server_cpu_ms_per_op", "ms", "lower", boundTiming, true},
	{"server_rss_peak_mb", "MB", "lower", boundTiming, true},
	{"read_p50_ms", "ms", "lower", boundTiming, false},
	{"read_p95_ms", "ms", "lower", boundTiming, false},
	{"reads_per_s", "1/s", "higher", boundTiming, false},
	{"write_p50_ms", "ms", "lower", boundTiming, false},
	{"write_p99_ms", "ms", "lower", boundTiming, false},
	{"write_tuples_per_s", "1/s", "higher", boundTiming, false},
	{"write_amp", "ratio", "lower", boundAmp, false},
	{"fail_ratio", "ratio", "lower", 0, false},
}

// perLayerDefs are the per-layer metrics with fixed names, by layer
// (module). Source W is the traced wire pass and the /v1/metrics scrape
// around it, P an in-process probe, D the driver's own bookkeeping.
// bench/README.md says which end-to-end metric each should move.
var perLayerDefs = []def{
	// server (internal/engine Server) — P
	{"server.handle_read_us", "us", "lower", 0, true},
	{"server.handle_read_cold_us", "us", "lower", 0, true},
	{"server.self_read_us", "us", "lower", 0, true},
	{"server.handle_query_us", "us", "lower", 0, true},
	{"server.handle_solve_us", "us", "lower", 0, true},
	{"server.handle_classify_us", "us", "lower", 0, true},
	{"server.handle_plan_us", "us", "lower", 0, true},
	{"server.alloc_kb_per_read", "KB", "lower", 0, true},
	{"server.alloc_kb_per_traced_read", "KB", "lower", 0, true},
	{"server.handle_write_us", "us", "lower", 0, true},
	{"server.self_write_us", "us", "lower", 0, true},
	{"http.transport_us", "us", "lower", 0, true},
	// cq — P
	{"cq.parse_us", "us", "lower", 0, true},
	{"cq.compile_us", "us", "lower", 0, true},
	{"cq.compile_free_connex_us", "us", "lower", 0, true},
	{"cq.compile_acyclic_us", "us", "lower", 0, true},
	{"cq.compile_cyclic_us", "us", "lower", 0, false},
	// core, gyo, tableau — P
	{"core.prepare_us", "us", "lower", 0, true},
	{"core.classify_us", "us", "lower", 0, true},
	{"gyo.reduce_us", "us", "lower", 0, true},
	{"tableau.cc_us", "us", "lower", 0, true},
	// engine — P, then W
	{"engine.prepare_hit_us", "us", "lower", 0, true},
	{"engine.prepare_miss_us", "us", "lower", 0, true},
	{"engine.plan_us", "us", "lower", 0, true},
	{"engine.bind_us", "us", "lower", 0, true},
	{"engine.apply_us", "us", "lower", 0, true},
	{"engine.publish_us", "us", "lower", 0, true},
	{"engine.plan_cache_hit_ratio", "ratio", "higher", 0, true},
	{"engine.plan_cache_evictions", "count", "lower", 0, true},
	{"engine.solve_mean_ms", "ms", "lower", 0, false},
	{"engine.apply_mean_ms", "ms", "lower", 0, false},
	// program — P, then W
	{"program.eval_us", "us", "lower", 0, true},
	{"program.eval_ms", "ms", "lower", 0, true},
	{"program.eval_par1_ms", "ms", "lower", 0, true},
	{"program.eval_par2_ms", "ms", "lower", 0, true},
	{"program.tuples_per_result", "ratio", "lower", 0, true},
	{"program.max_intermediate", "count", "lower", 0, true},
	{"program.trace_overhead_pct", "%", "lower", 0, true},
	// relation — W spans, then P
	{"relation.semijoin_ms", "ms", "lower", 0, true},
	{"relation.join_ms", "ms", "lower", 0, true},
	{"relation.project_ms", "ms", "lower", 0, true},
	{"relation.semijoin_ns_per_row", "ns", "lower", 0, true},
	{"relation.join_ns_per_out_row", "ns", "lower", 0, true},
	{"relation.partition_ms", "ms", "lower", 0, true},
	{"relation.apply_insert_us", "us", "lower", 0, true},
	{"relation.apply_delete_us", "us", "lower", 0, true},
	// storage — P, then W
	{"storage.wal_append_us", "us", "lower", 0, true},
	{"storage.fsync_us", "us", "lower", 0, true},
	{"storage.wal_bytes_per_batch", "B", "lower", 0, true},
	{"storage.checkpoints", "count", "higher", 0, true},
	{"storage.checkpoint_bytes", "B", "lower", 0, true},
	{"storage.chunks_reused_ratio", "ratio", "higher", 0, true},
	{"storage.space_amp", "ratio", "lower", 0, true},
	{"storage.write_amp", "ratio", "lower", 0, true},
	{"storage.checkpoint_mean_ms", "ms", "lower", 0, false},
	{"storage.recover_ms", "ms", "lower", 0, false},
	{"storage.replayed_batches", "count", "lower", 0, false},
	// repl — P, then W
	{"repl.read_wal_us", "us", "lower", 0, true},
	{"repl.decode_us", "us", "lower", 0, true},
	{"repl.apply_replica_us", "us", "lower", 0, true},
	{"repl.apply_ratio", "ratio", "higher", 0, true},
	{"repl.lag_bytes_max", "B", "lower", 0, true},
	{"repl.lag_bytes_mean", "B", "lower", 0, true},
	{"repl.visible_p50_ms", "ms", "lower", 0, false},
	{"repl.visible_p95_ms", "ms", "lower", 0, false},
	// driver — D
	{"driver.op_p99_ms", "ms", "lower", 0, true},
	{"driver.op_max_ms", "ms", "lower", 0, true},
	{"driver.cpu_share", "ratio", "lower", 0, true},
	{"driver.ref_chase_ms", "ms", "lower", 0, true},
	{"driver.build_s", "s", "lower", 0, true},
	{"driver.load_s", "s", "lower", 0, true},
	{"driver.read_p99_ms", "ms", "lower", 0, false},
	{"driver.write_max_ms", "ms", "lower", 0, false},
	{"driver.lateness_p99_ms", "ms", "lower", 0, false},
}

// gated returns the names of defs listed in BENCHMARK.json.
func gated(defs []def) []def {
	var out []def
	for _, d := range defs {
		if d.gated {
			out = append(out, d)
		}
	}
	return out
}

// unitOf returns a metric's unit: the catalogue's, or for the names
// formed per shape (driver.shape.<id>_p50_ms, program.eval.<id>_ms)
// the one their suffix spells.
func unitOf(name string) string {
	for _, defs := range [][]def{endToEndDefs, perLayerDefs} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	return name[strings.LastIndexByte(name, '_')+1:]
}

// result is one workload's outcome.
type result struct {
	Workload  string         `json:"workload"`
	Seed      int64          `json:"seed"`
	Seconds   float64        `json:"seconds"`
	EndToEnd  metrics        `json:"endToEnd,omitempty"`
	PerLayer  metrics        `json:"perLayer,omitempty"`
	Samples   map[string]int `json:"samples"`
	Attempted int            `json:"attempted"`
	Failed    int            `json:"failed"`
	Failures  []string       `json:"failures,omitempty"`
}

// endToEnd derives the end-to-end metrics of one untraced phase.
func (res *result) endToEnd(s spec, setups []float64, ph *phase, rssMB float64) {
	m := metrics{"setup_s": median(setups), "server_rss_peak_mb": rssMB}
	res.Samples["setup_s"] = len(setups)
	read, write := ph.read.sorted(), ph.write.sorted()
	if len(read) > 0 {
		m["read_p50_ms"] = read.percentile(50)
		m["read_p95_ms"] = read.percentile(95)
		m["reads_per_s"] = float64(len(read)) / ph.seconds
		res.Samples["read_p50_ms"], res.Samples["read_p95_ms"] = len(read), len(read)
	}
	if len(write) > 0 {
		m["write_p50_ms"] = write.percentile(50)
		m["write_p99_ms"] = write.percentile(99)
		res.Samples["write_p50_ms"], res.Samples["write_p99_ms"] = len(write), len(write)
		if s.writers > 0 {
			m["write_tuples_per_s"] = float64(ph.writes*batchTuples) / ph.seconds
		}
	}
	op := ph.op.sorted()
	m["op_p50_ms"] = op.percentile(50)
	m["op_p95_ms"] = op.percentile(95)
	m["ops_per_s"] = float64(len(op)) / ph.seconds
	res.Samples["op_p50_ms"], res.Samples["op_p95_ms"] = len(op), len(op)
	m["server_cpu_ms_per_op"] = ph.serverCPUMs / float64(len(op))
	if s.durable && ph.writes > 0 {
		m["write_amp"] = ph.loggedBytes() / float64(ph.writes*userBytes)
	}
	res.EndToEnd = m
}

// loggedBytes is what every server wrote to its WAL and checkpoints
// during the phase.
func (ph *phase) loggedBytes() float64 {
	var total float64
	for i := range ph.before {
		total += delta(ph.before[i], ph.after[i], "gyo_wal_append_bytes_sum") +
			delta(ph.before[i], ph.after[i], "gyo_checkpoint_bytes_total")
	}
	return total
}

// ratio is a/b, or 0 when b is 0 (the layer did nothing).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// wireLayers derives the W and D metrics of one traced phase: what the
// driver timed by shape, and what the servers' own counters moved by.
func (res *result) wireLayers(sys *system, ph *phase, buildS float64) metrics {
	m := metrics{}
	op, read, write := ph.op.sorted(), ph.read.sorted(), ph.write.sorted()
	m["driver.op_p99_ms"] = op.percentile(99)
	m["driver.op_max_ms"] = op.percentile(100)
	res.Samples["driver.op_p99_ms"] = len(op)
	if len(read) > 0 {
		m["driver.read_p99_ms"] = read.percentile(99)
		res.Samples["driver.read_p99_ms"] = len(read)
	}
	if len(write) > 0 {
		m["driver.write_max_ms"] = write.percentile(100)
	}
	if len(ph.late) > 0 {
		m["driver.lateness_p99_ms"] = ph.late.sorted().percentile(99)
		res.Samples["driver.lateness_p99_ms"] = len(ph.late)
	}
	for id, lat := range ph.byID {
		name := "driver.shape." + id + "_p50_ms"
		m[name] = lat.sorted().percentile(50)
		res.Samples[name] = len(lat)
	}
	m["driver.cpu_share"] = ratio(ph.driverCPUMs, ph.driverCPUMs+ph.serverCPUMs)
	m["driver.ref_chase_ms"] = ph.chaseMs
	m["driver.build_s"] = buildS
	m["driver.load_s"] = sys.loadS

	// Reads are served by the last server (the follower when there is
	// one), writes by the first.
	last := len(ph.before) - 1
	d := func(i int, prefix string) float64 { return delta(ph.before[i], ph.after[i], prefix) }
	hits, misses := d(last, `gyo_plan_cache_total{event="hit"}`), d(last, `gyo_plan_cache_total{event="miss"}`)
	m["engine.plan_cache_hit_ratio"] = ratio(hits, hits+misses)
	m["engine.plan_cache_evictions"] = d(last, `gyo_plan_cache_total{event="eviction"}`)
	if n := d(last, "gyo_solve_seconds_count"); n > 0 {
		m["engine.solve_mean_ms"] = d(last, "gyo_solve_seconds_sum") / n * 1e3
	}
	if n := d(0, "gyo_apply_seconds_count"); n > 0 {
		m["engine.apply_mean_ms"] = d(0, "gyo_apply_seconds_sum") / n * 1e3
	}
	m["storage.wal_bytes_per_batch"] = ratio(d(0, "gyo_wal_append_bytes_sum"), d(0, "gyo_wal_append_bytes_count"))
	var ckpts, ckptSec, ckptBytes, written, reused, arena float64
	for i := range ph.before {
		ckpts += d(i, "gyo_checkpoint_seconds_count")
		ckptSec += d(i, "gyo_checkpoint_seconds_sum")
		ckptBytes += d(i, "gyo_checkpoint_bytes_total")
		written += d(i, `gyo_checkpoint_chunks_total{result="written"}`)
		reused += d(i, `gyo_checkpoint_chunks_total{result="reused"}`)
		arena += sumSeries(ph.after[i], "gyo_snapshot_arena_bytes")
	}
	m["storage.checkpoints"] = ckpts
	m["storage.checkpoint_bytes"] = ckptBytes
	m["storage.chunks_reused_ratio"] = ratio(reused, reused+written)
	if ckpts > 0 {
		m["storage.checkpoint_mean_ms"] = ckptSec / ckpts * 1e3
	}
	m["storage.space_amp"] = ratio(ph.dirBytes, arena)
	m["storage.write_amp"] = ratio(ph.loggedBytes(), float64(ph.writes*userBytes))
	m["repl.apply_ratio"] = 0
	m["repl.lag_bytes_max"], m["repl.lag_bytes_mean"] = 0, 0
	if sys.follower != nil {
		m["repl.apply_ratio"] = ratio(d(1, "gyo_repl_applied_records_total"), d(0, "gyo_wal_append_seconds_count"))
		lag := series(ph.lagBytes).sorted()
		m["repl.lag_bytes_max"], m["repl.lag_bytes_mean"] = lag.percentile(100), lag.mean()
		vis := ph.visible.sorted()
		m["repl.visible_p50_ms"] = vis.percentile(50)
		m["repl.visible_p95_ms"] = vis.percentile(95)
		res.Samples["repl.visible_p50_ms"], res.Samples["repl.visible_p95_ms"] = len(vis), len(vis)
		res.Samples["repl.lag_bytes_mean"] = len(lag)
	}
	return m
}

// tailOf returns the percentile a metric's name says it is, for the
// tails the report checks against the ten-beyond rule.
func tailOf(name string) (float64, bool) {
	for tag, p := range map[string]float64{"_p95_": 95, "_p99_": 99} {
		if strings.Contains(name, tag) {
			return p, true
		}
	}
	return 0, false
}

// printMetrics writes one line per metric: name, value, unit, and the
// sample count where the value summarises samples. A tail percentile
// with fewer than ten samples beyond it is marked: it is printed for
// the record, not to be compared.
func printMetrics(w io.Writer, m metrics, samples map[string]int) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		line := fmt.Sprintf("  %-36s %14.4f %-6s", name, m[name], unitOf(name))
		if n, ok := samples[name]; ok {
			line += fmt.Sprintf(" n=%d", n)
			if p, tail := tailOf(name); tail && !supported(n, p) {
				line += " (fewer than 10 samples beyond)"
			}
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
}
