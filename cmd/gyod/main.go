// Command gyod serves the paper's machinery over HTTP: schema
// classification, query planning, query evaluation, and durable
// mutation of a universal-relation database, backed by one shared
// concurrent engine (plan cache + Exec pool + snapshot swapping) and,
// with -data, a write-ahead log with checkpointed snapshots
// (internal/storage) so acknowledged writes survive a crash.
//
// Usage:
//
//	gyod [-addr :8080] [-schema "ab, bc, cd"] [-tuples 1000] [-domain 32] [-seed 1] [-cache 256]
//	     [-data DIR] [-segbytes N] [-ckptbytes N] [-compactbytes N] [-nosync]
//	     [-pprof] [-slowquery 1s] [-gas 1000000] [-querytimeout 10s]
//	     [-follow URL] [-maxlag BYTES]
//
// Endpoints (JSON in/out, versioned under /v1):
//
//	POST /v1/classify  {"schema": "ab, bc, cd"}
//	POST /v1/plan      {"schema": "ab, bc, cd", "x": "ad"}
//	POST /v1/solve     {"x": "ad", "timeoutMs"?: 500}   evaluate on the server database
//	                   ("parallelism" is accepted and ignored; evaluation is serial)
//	POST /v1/query     {"query": "ans(X,Z) :- ab(X,Y), bc(Y,Z)."}  conjunctive query,
//	                   free-connex-aware planning; also accepts a text/plain body
//	POST /v1/insert    {"rel": "ab", "tuples": [[1,2]]} durable insert batch
//	POST /v1/delete    {"rel": "ab", "tuples": [[1,2]]} durable delete batch
//	POST /v1/load      {"relations": [...]}             bulk ingest, one atomic batch
//	GET  /v1/stats     engine counters, per-relation cardinalities, durability, build info
//	GET  /v1/metrics   Prometheus text exposition (solve latency, plan cache, WAL, checkpoints)
//	GET  /v1/healthz   JSON readiness: leader WAL health; follower lag vs -maxlag (503 when not ready)
//	GET  /v1/replica/status   role, leader URL, applied cursor, lag (records/bytes/seconds)
//	POST /v1/promote   turn a follower into a leader: stop tailing, fence the cursor, open writes
//
// With -data, gyod also serves the replication feed under /v1/repl/
// (snapshot seeding plus WAL tailing). Start a read replica with
// -follow: a fresh -data directory seeds itself from the leader's
// snapshot, then tails its WAL, re-applying every batch through its
// own WAL — so a replica crash-recovers like any store. A replica
// serves all reads locally and answers writes with a typed 409 naming
// the leader ({"error": {"code": "read_only_replica", "leader": ...}}).
// POST /v1/promote fails the node over; a promoted directory refuses
// -follow (wipe and re-seed to rejoin a topology).
//
// Errors on every endpoint share one JSON envelope:
// {"error": {"code", "message", "requestId"}}.
//
// Every evaluation — /v1/solve and /v1/query alike — runs under two
// per-request rails: -gas caps the tuples one evaluation may produce across all program statements (exceeding it
// returns HTTP 429, code resource_exhausted) and -querytimeout bounds
// its wall-clock time (HTTP 504, code deadline_exceeded). Clients may
// tighten the deadline per request ("timeoutMs") but never loosen it.
//
// Observability: every reply carries a server-generated request id
// (X-Request-Id header, echoed in /v1/solve and /v1/query bodies and
// in error envelopes); requests slower than -slowquery are logged with
// that id, the query fingerprint, and the top-3 most expensive
// statements. -pprof additionally serves net/http/pprof under
// /debug/pprof/ (off by default).
//
// With -data DIR, the directory's recovered state is served (the
// -schema/-tuples generator only seeds a fresh directory, through the
// WAL, so even the seed is durable). Without -data the database is
// in-memory and mutations are lost on exit.
//
// gyod shuts down gracefully on SIGINT/SIGTERM: in-flight requests get
// a deadline, a final checkpoint is taken so the next boot replays an
// empty WAL tail, and the log is flushed and closed before exit.
//
// Example:
//
//	gyod -schema "ab, bc, cd" -tuples 1000 -data /var/lib/gyod &
//	curl -s localhost:8080/v1/insert -H 'content-type: application/json' -d '{"rel": "ab", "tuples": [[7,8]]}'
//	kill -9 %1; gyod -data /var/lib/gyod &          # recovers, [7,8] still there
//	curl -s localhost:8080/v1/solve -H 'content-type: application/json' -d '{"x": "ad"}'
//	curl -s localhost:8080/v1/query -H 'content-type: text/plain' -d 'ans(A, D) :- ab(A, B), bc(B, C), cd(C, D).'
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gyokit/internal/engine"
	"gyokit/internal/obs"
	"gyokit/internal/relation"
	"gyokit/internal/repl"
	"gyokit/internal/schema"
	"gyokit/internal/storage"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "gyod:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	schemaText := flag.String("schema", "ab, bc, cd", "serving schema in the paper's notation (seeds a fresh store)")
	tuples := flag.Int("tuples", 1000, "universal tuples to generate when seeding a fresh database")
	domain := flag.Int("domain", 32, "per-column value domain of the generated database")
	seed := flag.Int64("seed", 1, "generator seed")
	cache := flag.Int("cache", engine.DefaultPlanCacheSize, "plan-cache capacity (negative disables)")
	dataDir := flag.String("data", "", "durable storage directory (empty = in-memory only)")
	segBytes := flag.Int64("segbytes", storage.DefaultSegmentBytes, "WAL segment rotation threshold in bytes")
	ckptBytes := flag.Int64("ckptbytes", storage.DefaultCheckpointBytes, "live-WAL bytes that trigger a background checkpoint (negative disables)")
	compactBytes := flag.Int64("compactbytes", storage.DefaultCompactBytes, "chunk-store bytes past which checkpoint GC may compact (negative disables)")
	noSync := flag.Bool("nosync", false, "skip fsync on WAL appends (faster, loses crash durability)")
	pprofOn := flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ (off by default: exposes stacks and heap contents)")
	slowQuery := flag.Duration("slowquery", time.Second, "log /v1/solve and /v1/query requests slower than this (0 disables)")
	gas := flag.Int("gas", 1000000, "gas budget of every evaluation: tuples one /v1/solve or /v1/query run may produce (0 disables)")
	queryTimeout := flag.Duration("querytimeout", 10*time.Second, "deadline of every evaluation, /v1/solve and /v1/query (0 disables)")
	follow := flag.String("follow", "", "run as a read replica of this leader base URL (requires -data)")
	maxLag := flag.Int64("maxlag", 1<<20, "replica lag in bytes past which /v1/healthz reports unavailable (0 disables)")
	flag.Parse()

	if *follow != "" && *dataDir == "" {
		return fmt.Errorf("-follow requires -data: a replica keeps its own durable store")
	}

	// One registry spans engine and store, so GET /metrics is the whole
	// server on one page.
	reg := obs.NewRegistry()
	opts := engine.Options{PlanCacheSize: *cache, Logf: log.Printf, Metrics: reg}
	var store *storage.Store
	if *dataDir != "" {
		if *follow != "" {
			// Seed or re-point the replica before opening the store: a
			// fresh directory is bootstrapped from the leader's snapshot
			// endpoint, an existing replica resumes from its own state.
			if err := repl.Bootstrap(*dataDir, *follow, nil, log.Printf); err != nil {
				return err
			}
		}
		var err error
		store, err = storage.Open(*dataDir, storage.Options{
			SegmentBytes:    *segBytes,
			CheckpointBytes: *ckptBytes,
			CompactBytes:    *compactBytes,
			NoSync:          *noSync,
			Metrics:         reg,
		})
		if err != nil {
			return err
		}
		defer store.Close()
		opts.Store = store
	}

	var e *engine.Engine
	var u *schema.Universe
	var d *schema.Schema
	switch {
	case store == nil:
		// In-memory: parse the schema and install a generated database.
		var err error
		u = schema.NewUniverse()
		if d, err = schema.Parse(u, *schemaText); err != nil {
			return err
		}
		e = engine.New(opts)
		rng := rand.New(rand.NewSource(*seed))
		univ, n := relation.RandomUniversal(u, d.Attrs(), *tuples, *domain, rng)
		e.Swap(relation.URDatabase(d, univ))
		log.Printf("gyod: serving %s in-memory (%d universal tuples)", d, n)
	case store.Empty():
		// Fresh store: seed the generated database through the WAL, so
		// even the initial state is durable and replayable.
		e = engine.New(opts)
		n, err := seedStore(e, *schemaText, *tuples, *domain, *seed)
		if err != nil {
			return err
		}
		db := e.Snapshot()
		u, d = db.D.U, db.D
		log.Printf("gyod: seeded fresh store %s with %s (%d universal tuples)", *dataDir, d, n)
	default:
		// Recovered store: serve exactly what the directory holds; the
		// -schema/-tuples flags are generator inputs and do not apply.
		e = engine.New(opts)
		db := e.Snapshot()
		u, d = db.D.U, db.D
		st := store.Stats()
		log.Printf("gyod: recovered %s from %s (%d WAL batches replayed, %d bytes live WAL)",
			d, *dataDir, st.Replayed, st.WALBytes)
	}

	srv := engine.NewServer(e, u, d)
	srv.SlowQuery = *slowQuery
	srv.Gas = *gas
	srv.QueryTimeout = *queryTimeout

	var tailer *repl.Tailer
	if *follow != "" {
		var err error
		tailer, err = repl.NewTailer(e, *dataDir, *follow, repl.Config{Logf: log.Printf, Metrics: reg})
		if err != nil {
			return err
		}
		srv.Replica = tailer
		srv.MaxLagBytes = *maxLag
		tailer.Start()
		log.Printf("gyod: following %s (read replica; writes answer 409)", *follow)
	}

	handler := srv.Handler()
	if store != nil {
		// Any durable node serves the replication feed: snapshot seeding
		// and WAL tailing under /v1/repl/. Mounted like pprof, on an
		// outer mux in front of the API.
		mux := http.NewServeMux()
		mux.Handle("/v1/repl/", repl.NewStreamer(e, reg, log.Printf))
		mux.Handle("/", handler)
		handler = mux
	}
	if *pprofOn {
		// pprof mounts on its own mux in front of the API: the DefaultServeMux
		// registrations done by the net/http/pprof import are deliberately not
		// served, so the profiles are exposed only behind the flag.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		log.Printf("gyod: pprof enabled under /debug/pprof/")
	}
	hs := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	log.Printf("gyod: listening on %s", ln.Addr())

	// Serve until SIGINT/SIGTERM, then drain in-flight requests with a
	// deadline, checkpoint, and flush/close the WAL before exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	select {
	case err := <-errCh:
		return err // listener failed before any signal
	case <-ctx.Done():
		stop()
		log.Printf("gyod: shutting down")
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		log.Printf("gyod: shutdown: %v", err)
	}
	if tailer != nil {
		// Stop tailing (and persist the replication cursor) before the
		// final checkpoint truncates the WAL that carries it.
		tailer.Stop()
	}
	if store != nil {
		if err := e.Checkpoint(); err != nil {
			log.Printf("gyod: final checkpoint: %v", err)
		}
		if err := store.Close(); err != nil {
			return fmt.Errorf("closing WAL: %w", err)
		}
	}
	log.Printf("gyod: bye")
	return nil
}

// seedStore generates the -schema/-tuples universal-relation database
// and ingests it through the engine's durable Apply path as ONE atomic
// batch (creates + per-relation insert batches): either the whole seed
// lands in the WAL or none of it, so a crash mid-seed leaves the store
// Empty and the next boot simply seeds again — never a half-seeded
// store that later boots silently serve. Returns the achieved
// universal-tuple count.
//
// The projections are computed over the parse universe, whose ids
// coincide with the store universe's: CreatesFor emits each relation's
// names in ascending parse-id order, which is exactly first-mention
// order, so replaying the creates interns identical ids and the raw
// arenas align column-for-column.
func seedStore(e *engine.Engine, schemaText string, tuples, domain int, seed int64) (int, error) {
	u := schema.NewUniverse()
	td, err := schema.Parse(u, schemaText)
	if err != nil {
		return 0, err
	}
	batch := storage.CreatesFor(td)
	n := 0
	if tuples > 0 {
		var univ *relation.Relation
		univ, n = relation.RandomUniversal(u, td.Attrs(), tuples, domain, rand.New(rand.NewSource(seed)))
		for i, r := range td.Rels {
			proj := univ.Project(r)
			if proj.Card() == 0 {
				continue
			}
			// A zero-width projection of a non-empty universal relation
			// is the single empty tuple; Width 0 encodes exactly that.
			batch = append(batch, storage.Mutation{
				Kind:   storage.KindInsert,
				Rel:    i,
				Width:  r.Card(),
				Values: proj.RawData(), // RawData is already a fresh flat copy

			})
		}
	}
	if _, _, err := e.Apply(batch...); err != nil {
		return 0, err
	}
	return n, nil
}
