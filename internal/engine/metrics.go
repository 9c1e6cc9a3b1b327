package engine

import (
	"gyokit/internal/obs"
	"gyokit/internal/relation"
)

// engineMetrics holds the engine's observability instruments. Handles
// are plain pointers observed on the hot paths (one or two atomic ops
// each — the cached-plan solve overhead is CI-gated at ≤5%); pull-style
// gauges are registered as scrape-time callbacks in registerGauges.
type engineMetrics struct {
	// solve latency split by plan-cache outcome: [0]=cache hit,
	// [1]=cache miss (cold).
	solve [2]*obs.Histogram

	planHits      *obs.Counter
	planMisses    *obs.Counter
	planEvictions *obs.Counter

	applySec         *obs.Histogram // Apply latency: copy-on-write + WAL append + publish
	applyBatchTuples *obs.Histogram // tuples per Apply batch

	cqPlans   map[string]*obs.Counter // compiled plans (written or lowered) by plan kind
	cqLimited map[string]*obs.Counter // evaluations aborted by a resource rail
}

func newEngineMetrics(reg *obs.Registry) engineMetrics {
	const solveHelp = "Evaluation latency (binding, then the run), by the outcome of the plan lookup that preceded it."
	solve := func(cache string) *obs.Histogram {
		return reg.Histogram("gyo_solve_seconds", solveHelp, obs.LatencyBuckets(), "cache", cache)
	}
	const planHelp = "Plan-cache events: hits served, misses compiled, LRU evictions."
	plan := func(event string) *obs.Counter {
		return reg.Counter("gyo_plan_cache_total", planHelp, "event", event)
	}
	const cqHelp = "Plans compiled, by kind: written conjunctive queries and lowered (schema, X) solves alike."
	cqPlans := make(map[string]*obs.Counter, 3)
	for _, kind := range []string{"free-connex", "acyclic", "cyclic"} {
		cqPlans[kind] = reg.Counter("gyo_cq_plans_total", cqHelp, "kind", kind)
	}
	const limHelp = "Evaluations aborted by a resource rail (gas budget or deadline)."
	cqLimited := make(map[string]*obs.Counter, 2)
	for _, reason := range []string{"gas", "deadline"} {
		cqLimited[reason] = reg.Counter("gyo_cq_limited_total", limHelp, "reason", reason)
	}
	return engineMetrics{
		solve:         [2]*obs.Histogram{solve("hit"), solve("miss")},
		planHits:      plan("hit"),
		planMisses:    plan("miss"),
		planEvictions: plan("eviction"),
		applySec: reg.Histogram("gyo_apply_seconds",
			"Durable write-path latency per batch: copy-on-write apply, WAL append, snapshot publish.",
			obs.LatencyBuckets()),
		applyBatchTuples: reg.Histogram("gyo_apply_batch_tuples",
			"Tuples per Apply mutation batch.", obs.SizeBuckets(1, 4, 12)),
		cqPlans:   cqPlans,
		cqLimited: cqLimited,
	}
}

// solveHist picks the latency histogram for one solve call.
func (m *engineMetrics) solveHist(cacheHit bool) *obs.Histogram {
	if cacheHit {
		return m.solve[0]
	}
	return m.solve[1]
}

// registerGauges adds the engine's pull-style gauges: values that are
// snapshots of live state rather than events. Called once from New;
// the callbacks run at scrape time on the scraper's goroutine.
func (e *Engine) registerGauges(reg *obs.Registry) {
	reg.GaugeFunc("gyo_plan_cache_resident",
		"Plans currently resident in the LRU cache.", func() float64 {
			if e.cache == nil {
				return 0
			}
			e.mu.Lock()
			defer e.mu.Unlock()
			return float64(e.cache.len())
		})
	// sum adds up one per-relation figure over the live snapshot.
	sum := func(of func(*relation.Relation) float64) func() float64 {
		return func() float64 {
			db := e.db.Load()
			if db == nil {
				return 0
			}
			var total float64
			for _, r := range db.Rels {
				total += of(r)
			}
			return total
		}
	}
	reg.GaugeFunc("gyo_snapshot_arena_bytes",
		"Bytes of the live tuples in the live database snapshot's arenas.",
		sum(func(r *relation.Relation) float64 { return float64(r.ArenaBytes()) }))
	reg.GaugeFunc("gyo_snapshot_dead_rows",
		"Deleted rows still holding arena positions in the live database snapshot, until a compaction reclaims them.",
		sum(func(r *relation.Relation) float64 { return float64(r.DeadRows()) }))
	reg.CounterFunc("gyo_relation_compactions_total",
		"Compactions (repack + index rebuild, triggered by deletes) in the history of the live snapshot's relations; dropping a relation takes its count with it.",
		sum(func(r *relation.Relation) float64 { return float64(r.Compactions()) }))
	reg.GaugeFunc("gyo_snapshot_relations",
		"Relations in the live database snapshot.", func() float64 {
			db := e.db.Load()
			if db == nil {
				return 0
			}
			return float64(len(db.Rels))
		})
}

// Metrics returns the engine's observability registry — the one passed
// in Options.Metrics, or the engine's private registry when none was.
// Serve it as a Prometheus endpoint with Registry.WriteText.
func (e *Engine) Metrics() *obs.Registry { return e.reg }
