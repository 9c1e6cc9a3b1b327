// Fixture: metricname — constant gyo_-prefixed names, one constant
// series per package.
package metricname

import (
	"os"

	"gyokit/internal/obs"
)

func register(reg *obs.Registry, dynamic string) {
	reg.Counter("gyo_queries_total", "queries", "kind")
	reg.Counter(dynamic, "boom")                      // want `metric name must be a compile-time constant string`
	reg.Gauge("queries_active", "active")             // want `metric name "queries_active" must match`
	reg.Counter("gyo_queries_total", "again", "kind") // want `duplicate registration of metric series`
	reg.Histogram("gyo_solve_seconds", "latency", nil)
	reg.GaugeFunc("gyo_heap_bytes", "heap", func() float64 { return 0 })
	reg.CounterFunc("gyo_gc_total", "collections", func() float64 { return 0 })
	reg.CounterFunc("gc_total", "collections", func() float64 { return 0 }) // want `metric name "gc_total" must match`
}

func sameNameDifferentLabels(reg *obs.Registry) {
	// Distinct label sets are distinct series: not a duplicate.
	reg.Counter("gyo_rows_total", "rows", "op")
	reg.Counter("gyo_rows_total", "rows", "kind")
}

func adHocExposition() {
	// WriteSeries is exposition, not registration: name-checked but
	// never deduplicated.
	obs.WriteSeries(os.Stdout, "gyo_adhoc", "h", "gauge", 1)
	obs.WriteSeries(os.Stdout, "gyo_adhoc", "h", "gauge", 1)
	obs.WriteSeries(os.Stdout, "Bad_Name", "h", "gauge", 1) // want `metric name "Bad_Name" must match`
}

func perShard(reg *obs.Registry, shards []string) {
	for _, s := range shards {
		// Computed label value: exempt from the duplicate check.
		reg.Gauge("gyo_shard_depth", "per-shard depth", "shard", s)
	}
}
