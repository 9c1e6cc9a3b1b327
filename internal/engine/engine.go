// Package engine is the concurrent query-serving layer on top of the
// paper's machinery: it separates planning (GYO reduction, tableau
// minimization, full-reducer/Yannakakis construction — the expensive,
// data-independent part) from execution (running the compiled program
// against a database state), and amortizes both across requests.
//
// Three mechanisms carry the load:
//
//   - a plan cache: one LRU keyed by canonical query text, holding the
//     §3 Classification together with the compiled §4/§6 Program. A
//     (schema, X) solve is lowered to the conjunctive query it already
//     is (cq.Lower), so both front ends share the cache and the one
//     prepare → bind → run path, and a repeated query skips
//     classification and planning entirely;
//   - an execution-context pool: a sync.Pool of relation.Exec
//     contexts, one per in-flight evaluation, so concurrent requests
//     reuse join hash tables and scratch buffers without contending on
//     a lock. Each evaluation is serial; concurrency is across
//     requests;
//   - database snapshots: the engine serves reads from an immutable
//     (frozen) relation.Database held in an atomic pointer; writers
//     derive new snapshots copy-on-write and publish them with Update
//     (serialized read-modify-write) or Swap (blind store), so readers
//     never block and never observe a half-written state.
//
// An Engine is safe for concurrent use by any number of goroutines.
package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gyokit/internal/core"
	"gyokit/internal/cq"
	"gyokit/internal/obs"
	"gyokit/internal/program"
	"gyokit/internal/relation"
	"gyokit/internal/schema"
	"gyokit/internal/storage"
)

// DefaultPlanCacheSize is the plan-cache capacity used when Options
// leaves PlanCacheSize at zero.
const DefaultPlanCacheSize = 256

// Options configures an Engine.
type Options struct {
	// PlanCacheSize is the LRU capacity in plans. Zero means
	// DefaultPlanCacheSize; negative disables caching (every query is
	// classified and planned from scratch — the cold baseline).
	PlanCacheSize int
	// Store, when non-nil, makes the engine durable: the store's
	// recovered database is installed as the first snapshot, Apply
	// appends every mutation batch to the write-ahead log (fsynced)
	// before publishing it, and a background checkpoint is taken off
	// the latest frozen snapshot whenever the live WAL outgrows the
	// store's threshold. With a Store configured, all writes must go
	// through Apply — Swap and Update still publish, but what they
	// publish is not logged and would diverge from disk.
	Store *storage.Store
	// Logf, when non-nil, receives operational log lines the engine has
	// no other way to surface — today that is background checkpoint
	// failures, which would otherwise only land in the store's stats.
	// log.Printf fits directly; nil makes engine logging a no-op.
	Logf func(format string, args ...any)
	// Metrics, when non-nil, is the observability registry the engine
	// registers its instruments in (solve latency histograms, plan-cache
	// counters, apply histograms, snapshot gauges). Registries reject
	// duplicate series, so each registry serves at most one engine; share
	// one registry between an engine and its storage.Options.Metrics to
	// get a single /metrics page. Nil means the engine creates a private
	// registry, reachable via Engine.Metrics — instrumentation is always
	// on (its cost is a few atomic ops per operation).
	Metrics *obs.Registry
}

// Plan is a cache-resident compiled query — written (PrepareQuery) or
// lowered from a schema solve (Plan): the query's hypergraph D in the
// relation order of the request that compiled it, its target Head, the
// §3 classification Cls of D, the program Prog solving (D, Head), and
// the atoms evaluation binds to stored relations, by name, at solve
// time. Plans are immutable once built and may be shared by concurrent
// evaluations. Classify's classification-only entries hold Cls alone.
type Plan = cq.Compiled

// Stats is a point-in-time snapshot of engine counters.
type Stats struct {
	PlanHits    uint64 // cache hits (classification or plan)
	PlanMisses  uint64 // cache misses compiled from scratch
	Evictions   uint64 // plans pushed out of the LRU by newer entries
	CachedPlans int    // entries currently resident
	Evals       uint64 // completed evaluations (Solve, SolveQuery, the HTTP read endpoints)
}

// Engine is a concurrency-safe query-serving engine.
type Engine struct {
	mu    sync.Mutex // guards cache
	cache *lruCache  // nil when caching is disabled

	reg *obs.Registry // never nil; Options.Metrics or a private one
	m   engineMetrics

	execs sync.Pool // *relation.Exec, one per in-flight evaluation

	wmu sync.Mutex                        // serializes snapshot writers (Swap/Update/Apply)
	db  atomic.Pointer[relation.Database] // current frozen snapshot

	// readOnly rejects external Apply calls while the engine is a
	// replication follower; ApplyReplica (the tailer's path) and
	// promotion-time SetReadOnly(false) are the only ways around it.
	readOnly atomic.Bool

	store *storage.Store // nil for a purely in-memory engine
	logf  func(format string, args ...any)
	// ckptMu is held for the whole duration of any checkpoint write —
	// background (TryLock; at most one in flight, never blocking the
	// Apply path) or synchronous (Lock; concurrent Checkpoint callers
	// queue on the mutex instead of spinning on a busy flag).
	ckptMu sync.Mutex
	ckptWG sync.WaitGroup // outstanding background checkpoints
}

// New returns an Engine with the given options.
func New(opts Options) *Engine {
	e := &Engine{
		execs: sync.Pool{New: func() any { return relation.NewExec() }},
	}
	size := opts.PlanCacheSize
	if size == 0 {
		size = DefaultPlanCacheSize
	}
	if size > 0 {
		e.cache = newLRUCache(size)
	}
	e.reg = opts.Metrics
	if e.reg == nil {
		e.reg = obs.NewRegistry()
	}
	e.m = newEngineMetrics(e.reg)
	e.registerGauges(e.reg)
	e.logf = opts.Logf
	if opts.Store != nil {
		e.store = opts.Store
		// Install the recovered state as the first snapshot: a durable
		// engine starts serving exactly what the directory holds (an
		// empty-schema database for a fresh store).
		if db := e.store.State(); db != nil {
			db.Freeze()
			e.db.Store(db)
			e.store.Detach()
		}
	}
	return e
}

// prepare is the one reader (and writer) of the plan cache: it returns
// the plan cached under key — the query's canonical text, so a hit is
// exact — or compiles, stores and returns it. hit reports which, so
// solve paths can label their latency observations.
func (e *Engine) prepare(key string, compile func() (*Plan, error)) (pl *Plan, hit bool, err error) {
	if e.cache != nil {
		e.mu.Lock()
		pl, hit = e.cache.get(key)
		e.mu.Unlock()
		if hit {
			e.m.planHits.Inc()
			return pl, true, nil
		}
	}
	e.m.planMisses.Inc()
	if pl, err = compile(); err != nil {
		return nil, false, err
	}
	if e.cache != nil {
		e.mu.Lock()
		evicted := e.cache.put(key, pl)
		e.mu.Unlock()
		e.m.planEvictions.Add(uint64(evicted))
	}
	return pl, false, nil
}

// compiled counts a freshly compiled query by plan kind.
func (e *Engine) compiled(pl *Plan, err error) (*Plan, error) {
	if err != nil {
		return nil, err
	}
	e.m.cqPlans[pl.Kind.String()].Inc()
	return pl, nil
}

// Classify returns the §3 classification of d, from cache when the
// schema has been seen before in the same relation order. Classify
// hands the Classification straight back to the caller, and its
// QualTree edges are positional (relation indexes), so its cache key
// (cq.ClassifyText) is order-sensitive; permutations of a cached schema
// reclassify.
func (e *Engine) Classify(d *schema.Schema) (*core.Classification, error) {
	pl, _, err := e.prepare(cq.ClassifyText(d), func() (*Plan, error) {
		cls, err := core.Classify(d)
		return &Plan{QueryPlan: &core.QueryPlan{Cls: cls}}, err
	})
	if err != nil {
		return nil, err
	}
	return pl.Cls, nil
}

// Plan returns the compiled plan for the query (d, x), from cache when
// the same schema — any relation order, any universe that gives the
// same ids the same names — and target have been planned before.
func (e *Engine) Plan(d *schema.Schema, x schema.AttrSet) (*Plan, error) {
	pl, _, err := e.plan(d, x)
	return pl, err
}

// plan is Plan plus the cache-outcome flag. (d, x) is lowered to the
// conjunctive query it already is and from there shares PrepareQuery's
// path. A permuted hit returns a plan compiled in another relation
// order, whose classification is positional in that order — which is
// why Classify keeps entries of its own rather than reading a plan's.
func (e *Engine) plan(d *schema.Schema, x schema.AttrSet) (*Plan, bool, error) {
	key := cq.LoweredText(d, x)
	return e.prepare(key, func() (*Plan, error) { return e.compiled(cq.Lower(key, d, x)) })
}

// Swap freezes db and atomically publishes it as the engine's current
// snapshot, returning the previous snapshot (nil on first install).
// In-flight evaluations keep the snapshot they started with.
//
// Swap is a blind store: concurrent Swaps are last-writer-wins, and a
// Snapshot→modify→Swap sequence racing another writer loses that
// writer's changes. Multiple writers deriving from the current state
// must use Update instead.
func (e *Engine) Swap(db *relation.Database) *relation.Database {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	db.Freeze()
	return e.db.Swap(db)
}

// Update atomically derives and publishes a new snapshot: fn receives
// the current snapshot (nil before the first install) and returns the
// database to publish, typically via the copy-on-write Database
// methods. Writers are serialized, so concurrent Updates never lose
// each other's changes; readers stay on the old snapshot, unblocked,
// until the new one lands. Returning fn's argument unchanged
// republishes it (a no-op for readers).
func (e *Engine) Update(fn func(*relation.Database) *relation.Database) *relation.Database {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	db := fn(e.db.Load())
	db.Freeze()
	e.db.Store(db)
	return db
}

// Snapshot returns the current database snapshot (nil before the first
// Swap). The snapshot is frozen; derive modified states with the
// copy-on-write Database methods and publish them with Swap.
func (e *Engine) Snapshot() *relation.Database { return e.db.Load() }

// Store returns the engine's durability store, or nil for a purely
// in-memory engine.
func (e *Engine) Store() *storage.Store { return e.store }

// Durable reports whether acknowledged Apply calls survive a crash: a
// store must be configured and fsyncing (a NoSync store survives a
// process kill but not power loss, so it does not get to claim
// durability to clients).
func (e *Engine) Durable() bool { return e.store != nil && e.store.Synced() }

// ErrDurability marks Apply failures on the storage side of the write
// path (the mutation was valid but could not be made durable), so
// callers can report a server fault rather than a bad request.
var ErrDurability = errors.New("engine: durability failure")

// ErrReadOnly rejects writes on a replication follower: the write
// belongs on the leader, and the server layer translates this into a
// 409 leader-redirect envelope.
var ErrReadOnly = errors.New("engine: read-only replica")

// SetReadOnly flips the engine's external write gate. A replication
// follower runs read-only until promoted; reads and the replica apply
// path are unaffected.
func (e *Engine) SetReadOnly(v bool) { e.readOnly.Store(v) }

// ReadOnly reports whether external writes are currently rejected.
func (e *Engine) ReadOnly() bool { return e.readOnly.Load() }

// Apply is the engine's logical write path: it applies the mutation
// batch copy-on-write to the current snapshot, appends the whole batch
// to the write-ahead log as one atomic fsynced record (when a Store is
// configured), and only then publishes the new snapshot — so by the
// time Apply returns, the mutation is both visible to readers and
// durable. The batch is all-or-nothing: a validation error leaves both
// the snapshot and the log untouched. counts reports, per mutation,
// the tuples actually inserted or deleted (set semantics make both
// idempotent).
//
// Writers are serialized with Update/Swap; readers stay on the old
// snapshot, unblocked, until the new one lands.
func (e *Engine) Apply(muts ...storage.Mutation) (db *relation.Database, counts []int, err error) {
	if e.readOnly.Load() {
		return nil, nil, ErrReadOnly
	}
	return e.applyBatch(muts, true)
}

// ApplyReplica is the replication tailer's write path: identical to
// Apply — the batch lands in this follower's own WAL before the
// snapshot publishes, so the follower can itself recover or be
// promoted — except that it bypasses the read-only gate and never
// triggers a background checkpoint (the tailer checkpoints
// synchronously, after persisting its cursor sidecar, so a checkpoint
// can never truncate a cursor mark the sidecar has not caught up to).
func (e *Engine) ApplyReplica(muts ...storage.Mutation) (db *relation.Database, counts []int, err error) {
	return e.applyBatch(muts, false)
}

func (e *Engine) applyBatch(muts []storage.Mutation, autoCkpt bool) (db *relation.Database, counts []int, err error) {
	t0 := time.Now()
	e.wmu.Lock()
	defer e.wmu.Unlock()
	cur := e.db.Load()
	if cur == nil {
		return nil, nil, fmt.Errorf("engine: no database snapshot installed (call Swap first)")
	}
	next, counts, err := storage.ApplyAll(cur, muts)
	if err != nil {
		return nil, nil, err
	}
	if e.store != nil {
		// Append-then-publish: if the log write fails the snapshot is
		// not published, so nothing unacknowledged becomes visible.
		if err := e.store.Append(muts); err != nil {
			return nil, nil, fmt.Errorf("%w: WAL append: %v", ErrDurability, err)
		}
	}
	next.Freeze()
	e.db.Store(next)
	if autoCkpt {
		e.maybeCheckpointLocked(next)
	}
	e.m.applySec.Observe(time.Since(t0).Seconds())
	tuples := 0
	for _, m := range muts {
		if m.Width > 0 {
			tuples += len(m.Values) / m.Width
		}
	}
	e.m.applyBatchTuples.Observe(float64(tuples))
	return next, counts, nil
}

// maybeCheckpointLocked starts a background checkpoint when the live
// WAL has outgrown the store's threshold and no checkpoint is already
// in flight. Caller holds wmu, so the snapshot reflects every record
// appended so far — exactly the consistency BeginCheckpoint requires.
// The expensive snapshot encode and file write run off the writer
// lock, against the frozen snapshot, so neither readers nor writers
// block; failures are recorded in the store's stats and retried on a
// later trigger.
func (e *Engine) maybeCheckpointLocked(db *relation.Database) {
	if e.store == nil || !e.store.ShouldCheckpoint() || !e.ckptMu.TryLock() {
		return
	}
	e.ckptWG.Add(1)
	seq, err := e.store.BeginCheckpoint()
	if err != nil {
		e.ckptWG.Done()
		e.ckptMu.Unlock()
		return
	}
	go func() {
		defer e.ckptWG.Done()
		defer e.ckptMu.Unlock()
		// The error also lands in the store's stats (and is cleared by
		// the next successful checkpoint); logging it here is the only
		// push-style signal a fire-and-forget background write gets.
		if err := e.store.WriteCheckpoint(seq, db); err != nil && e.logf != nil {
			e.logf("engine: background checkpoint (seq %d) failed: %v", seq, err)
		}
	}()
}

// Checkpoint synchronously checkpoints the current snapshot. It holds
// the same checkpoint mutex the background writer uses, so it blocks
// (without spinning) until any in-flight checkpoint finishes, and when
// it returns no checkpoint write is outstanding — safe to Close the
// store right after. Concurrent Checkpoint calls serialize on the
// mutex. It is a no-op without a Store. Use it at shutdown so the next
// Open replays a short WAL tail.
func (e *Engine) Checkpoint() error {
	if e.store == nil {
		return nil
	}
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	e.wmu.Lock()
	db := e.db.Load()
	dirty := e.store.Dirty()
	var seq uint64
	var err error
	if dirty {
		seq, err = e.store.BeginCheckpoint()
	}
	e.wmu.Unlock()
	if !dirty {
		// Every record is already covered by a checkpoint: re-encoding
		// the whole snapshot would cost a full write for zero recovery
		// gain (a restart loop on a large store would otherwise churn
		// gigabytes per cycle).
		return nil
	}
	if err != nil {
		return err
	}
	if db == nil {
		return nil
	}
	return e.store.WriteCheckpoint(seq, db)
}

// ReplSnapshot returns the current snapshot paired with the store's
// WAL tail cursor, captured atomically under the writer lock: the
// snapshot reflects exactly the records below the cursor, which is the
// consistency a replication initial sync needs (stream the snapshot,
// then records from the cursor, and nothing is duplicated or lost).
func (e *Engine) ReplSnapshot() (*relation.Database, storage.Cursor, error) {
	if e.store == nil {
		return nil, storage.Cursor{}, fmt.Errorf("engine: replication requires a durable store")
	}
	e.wmu.Lock()
	defer e.wmu.Unlock()
	db := e.db.Load()
	if db == nil {
		return nil, storage.Cursor{}, fmt.Errorf("engine: no database snapshot installed")
	}
	return db, e.store.TailCursor(), nil
}

// Solve evaluates the query (d, x), without limits, against the
// current snapshot, using the plan cache.
func (e *Engine) Solve(d *schema.Schema, x schema.AttrSet) (*relation.Relation, *program.Stats, error) {
	pl, hit, err := e.plan(d, x)
	if err != nil {
		return nil, nil, err
	}
	return e.run(e.db.Load(), pl, hit, program.Limits{})
}

// SolveQuery evaluates a plan — from Plan or PrepareQuery — against
// the current snapshot under lim. A limit violation returns a
// *program.LimitError matching program.ErrGasExhausted or
// program.ErrDeadlineExceeded.
//
// The middle argument is accepted and ignored; evaluation is serial. It
// was the per-request shard count of the deleted partition-parallel
// executor, and it is still in the signature only because bench/probe.go
// — which no PR but a benchmark PR may edit — calls SolveQuery(pl, 1, …);
// the benchmark PR that updates that call drops the argument.
func (e *Engine) SolveQuery(pl *Plan, _ int, lim program.Limits) (*relation.Relation, *program.Stats, error) {
	return e.run(e.db.Load(), pl, true, lim)
}

// run is the engine's one evaluation path. It binds the plan's atoms to
// db's relations (bind) and runs the program over them in a pooled
// execution context. db is never mutated. cacheHit says how the caller
// came by pl and only labels the latency observation.
func (e *Engine) run(db *relation.Database, pl *Plan, cacheHit bool, lim program.Limits) (*relation.Relation, *program.Stats, error) {
	if pl == nil || pl.QueryPlan == nil || pl.Prog == nil {
		return nil, nil, fmt.Errorf("engine: plan has no program (use Plan or PrepareQuery)")
	}
	if db == nil {
		return nil, nil, fmt.Errorf("engine: no database snapshot installed (call Swap first)")
	}
	t0 := time.Now()
	db, err := bind(pl, db)
	if err != nil {
		return nil, nil, err
	}
	ex := e.execs.Get().(*relation.Exec)
	out, st, err := pl.Prog.Run(db, ex, lim)
	e.execs.Put(ex)
	if err != nil {
		switch {
		case errors.Is(err, program.ErrGasExhausted):
			e.m.cqLimited["gas"].Inc()
		case errors.Is(err, program.ErrDeadlineExceeded):
			e.m.cqLimited["deadline"].Inc()
		}
		return nil, nil, err
	}
	e.m.solveHist(cacheHit).Observe(time.Since(t0).Seconds())
	return out, st, nil
}

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	s := Stats{
		PlanHits:   e.m.planHits.Value(),
		PlanMisses: e.m.planMisses.Value(),
		Evictions:  e.m.planEvictions.Value(),
		Evals:      e.m.solve[0].Count() + e.m.solve[1].Count(),
	}
	if e.cache != nil {
		e.mu.Lock()
		s.CachedPlans = e.cache.len()
		e.mu.Unlock()
	}
	return s
}
