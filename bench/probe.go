package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"gyokit/internal/core"
	"gyokit/internal/cq"
	"gyokit/internal/engine"
	"gyokit/internal/gyo"
	"gyokit/internal/program"
	"gyokit/internal/relation"
	"gyokit/internal/schema"
	"gyokit/internal/storage"
	"gyokit/internal/tableau"
)

// The in-process probes time calls into each layer's public functions
// from this process, on the inputs the workload's servers were given.
// They are the "P" metrics of the catalogue: no server is involved, so
// a probe isolates one layer where the wire numbers can only bound it.

// timeUs runs fn and returns how long it took in microseconds.
func timeUs(fn func()) float64 {
	t0 := time.Now()
	fn()
	return float64(time.Since(t0).Nanoseconds()) / 1e3
}

// probeWrites is how many batches each write-side probe applies.
const probeWrites = 100

// serve runs one request through h on a recorder.
func serve(h http.Handler, path string, body []byte) (*httptest.ResponseRecorder, float64) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	us := timeUs(func() { h.ServeHTTP(rec, req) })
	return rec, us
}

// probes runs every in-process probe on in and adds the P metrics to
// m. dir is scratch space for the stores the write-side probes open.
func probes(in *inputs, dir string, m metrics, f *failures) error {
	if err := probePlanning(in, m); err != nil {
		return err
	}
	if err := probeReads(in, m, f); err != nil {
		return err
	}
	probeKernels(in, m)
	return probeWritesAndRepl(in, dir, m, f)
}

// probePlanning times the data-independent layers: the CQ front end on
// the workload's query texts, and GYO reduction, classification,
// tableau minimisation and plan preparation on the serving schema's
// small targets and on the chain and ring schemas of 3 to 19 relations.
func probePlanning(in *inputs, m metrics) error {
	var parse, compile []float64
	byKind := map[string][]float64{}
	for _, r := range in.reads {
		if r.path != "/v1/query" {
			continue
		}
		var body struct {
			Query string `json:"query"`
		}
		if err := json.Unmarshal(r.body, &body); err != nil {
			return err
		}
		var q *cq.Query
		var c *cq.Compiled
		var err error
		parse = append(parse, timeUs(func() { q, err = cq.Parse(body.Query) }))
		if err != nil {
			return err
		}
		us := timeUs(func() { c, err = q.Compile() })
		if err != nil {
			return err
		}
		compile = append(compile, us)
		byKind[c.Kind.String()] = append(byKind[c.Kind.String()], us)
	}
	m["cq.parse_us"] = median(parse)
	m["cq.compile_us"] = median(compile)
	for kind, us := range byKind {
		m["cq.compile_"+strings.ReplaceAll(kind, "-", "_")+"_us"] = median(us)
	}

	d := in.db.D
	var prepare, cc, reduce, classify []float64
	for _, x := range smallTargets(d) {
		var err error
		prepare = append(prepare, timeUs(func() { _, _, err = core.Prepare(d, x) }))
		if err != nil {
			return err
		}
		cc = append(cc, timeUs(func() { tableau.CC(d, x) }))
	}
	schemas := []*schema.Schema{d}
	for k := 3; k <= 19; k++ {
		for _, text := range []string{chainSchema(k), ringSchema(k)} {
			s, err := schema.Parse(schema.NewUniverse(), text)
			if err != nil {
				return err
			}
			schemas = append(schemas, s)
		}
	}
	for _, s := range schemas {
		var err error
		reduce = append(reduce, timeUs(func() { gyo.ReduceFull(s) }))
		classify = append(classify, timeUs(func() { _, err = core.Classify(s) }))
		if err != nil {
			return err
		}
	}
	m["core.prepare_us"] = median(prepare)
	m["tableau.cc_us"] = median(cc)
	m["gyo.reduce_us"] = median(reduce)
	m["core.classify_us"] = median(classify)
	return nil
}

// probeReads runs the workload's read list through an in-process
// Server twice — a cold pass (every plan a cache miss) and a warm one —
// and through the engine's own entry points, splitting a read into
// server, engine and program time.
func probeReads(in *inputs, m metrics, f *failures) error {
	e := engine.New(engine.Options{})
	e.Swap(in.db.Clone())
	srv := engine.NewServer(e, in.db.D.U, in.db.D)
	srv.Gas = 1000000 // gyod's default -gas
	srv.QueryTimeout = 10 * time.Second
	h := srv.Handler()

	// pass serves every request once, checks the answers, and returns
	// per request the handler time and the program evaluation time the
	// answer reports for that same call (0 for classify and plan, which
	// evaluate nothing), and what the pass allocated per request.
	pass := func(reqs []request) (us, evalUs []float64, allocKB float64) {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for _, r := range reqs {
			rec, t := serve(h, r.path, r.body)
			var ans readAnswer
			err := fmt.Errorf("%s answered %d: %s", r.path, rec.Code, rec.Body)
			if rec.Code == http.StatusOK {
				if err = json.Unmarshal(rec.Body.Bytes(), &ans); err == nil {
					err = checkRead(r, ans, r.wantCard)
				}
			}
			f.check(err)
			eval := 0.0
			if ans.Stats != nil {
				eval = float64(ans.Stats.ElapsedNs) / 1e3
			}
			us, evalUs = append(us, t), append(evalUs, eval)
		}
		runtime.ReadMemStats(&ms1)
		return us, evalUs, float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / float64(len(reqs))
	}
	// The first pass compiles every plan. The list is longer than the
	// plan cache on Dtiny, so later passes still miss there, as on the
	// servers; on D20k every later read is a cache hit. Each request's
	// warm numbers are the median of three passes.
	cold, _, _ := pass(in.reads)
	var us, evalUs [3][]float64
	var allocKB float64
	for p := range us {
		us[p], evalUs[p], allocKB = pass(in.reads)
	}
	traced := make([]request, len(in.reads))
	for i, r := range in.reads {
		traced[i] = r.withTrace()
	}
	_, _, tracedAllocKB := pass(traced)
	pass(in.extra)
	extra, _, _ := pass(in.extra)

	byPath := map[string][]float64{}
	var handle, eval, queryRest []float64
	for i, r := range in.reads {
		of := func(f func(p int) float64) float64 { return median([]float64{f(0), f(1), f(2)}) }
		t := of(func(p int) float64 { return us[p][i] })
		handle = append(handle, t)
		eval = append(eval, of(func(p int) float64 { return evalUs[p][i] }))
		byPath[r.path] = append(byPath[r.path], t)
		if r.path == "/v1/query" {
			// Handler time outside program evaluation, within one call.
			queryRest = append(queryRest, of(func(p int) float64 { return us[p][i] - evalUs[p][i] }))
		}
	}
	for i, r := range in.extra {
		byPath[r.path] = append(byPath[r.path], extra[i])
	}
	m["server.handle_read_cold_us"] = series(cold).mean()
	m["server.handle_read_us"] = series(handle).mean()
	m["program.eval_us"] = series(eval).mean()
	m["server.alloc_kb_per_read"] = allocKB
	m["server.alloc_kb_per_traced_read"] = tracedAllocKB
	for _, ep := range []string{"query", "solve", "classify", "plan"} {
		m["server.handle_"+ep+"_us"] = series(byPath["/v1/"+ep]).mean()
	}

	// The engine's share of a read, called directly: plan lookup on a
	// miss and on a hit, and binding (SolveQuery minus the program's own
	// elapsed time).
	e2 := engine.New(engine.Options{})
	e2.Swap(in.db.Clone())
	var miss, hit, bind, plan []float64
	for _, r := range append(append([]request(nil), in.reads...), in.extra...) {
		var body struct {
			Query, Schema, X string
		}
		if err := json.Unmarshal(r.body, &body); err != nil {
			return err
		}
		switch r.path {
		case "/v1/query":
			var pl *engine.Plan
			var err error
			miss = append(miss, timeUs(func() { pl, err = e2.PrepareQuery(body.Query) }))
			if err != nil {
				return err
			}
			hit = append(hit, timeUs(func() { _, err = e2.PrepareQuery(body.Query) }))
			if err != nil {
				return err
			}
			var st *program.Stats
			us := timeUs(func() { _, st, err = e2.SolveQuery(pl, 1, program.Limits{}) })
			if err != nil {
				return err
			}
			bind = append(bind, us-float64(st.Elapsed.Nanoseconds())/1e3)
		case "/v1/plan":
			u := schema.NewUniverse()
			d, err := schema.Parse(u, body.Schema)
			if err != nil {
				return err
			}
			x, err := schema.Parse(u, body.X)
			if err != nil {
				return err
			}
			plan = append(plan, timeUs(func() { _, err = e2.Plan(d, x.Rels[0]) }))
			if err != nil {
				return err
			}
		}
	}
	m["engine.prepare_miss_us"] = median(miss)
	m["engine.prepare_hit_us"] = median(hit)
	m["engine.bind_us"] = median(bind)
	m["engine.plan_us"] = median(plan)
	// What a /v1/query spends outside the engine's children — plan
	// lookup (a miss when the list overflows the cache, as on the
	// servers), binding and program evaluation: decode, routing, encode.
	lookup := m["engine.prepare_hit_us"]
	if len(in.reads) > engine.DefaultPlanCacheSize {
		lookup = m["engine.prepare_miss_us"]
	}
	m["server.self_read_us"] = series(queryRest).mean() - lookup - m["engine.bind_us"]
	return nil
}

// probeKernels times the relation operators on the dataset's first two
// relations (ab, bc), which share one attribute.
func probeKernels(in *inputs, m metrics) {
	ab, bc := in.db.Rels[0], in.db.Rels[1]
	ex := relation.NewExec()
	const reps = 5
	var semi, join, part []float64
	var out *relation.Relation
	for i := 0; i < reps; i++ {
		semi = append(semi, timeUs(func() { ex.Semijoin(ab, bc) }))
		join = append(join, timeUs(func() { out = ex.Join(ab, bc) }))
		key := ab.Attrs().Intersect(bc.Attrs())
		part = append(part, timeUs(func() { relation.Partition(ab, key, 2) }))
	}
	m["relation.semijoin_ns_per_row"] = median(semi) * 1e3 / float64(ab.Card()+bc.Card())
	m["relation.join_ns_per_out_row"] = median(join) * 1e3 / float64(out.Card())
	m["relation.partition_ms"] = median(part) / 1e3
}

// kinds keeps the timings of a write stream apart by kind. The stream
// alternates inserts and deletes, whose costs differ by an order of
// magnitude, so its median would be whichever kind landed in the
// middle; the cost of a typical write is the mean of the two medians.
type kinds struct{ insert, del []float64 }

func (k *kinds) add(w write, us float64) {
	if w.del {
		k.del = append(k.del, us)
	} else {
		k.insert = append(k.insert, us)
	}
}

func (k *kinds) typical() float64 { return (median(k.insert) + median(k.del)) / 2 }

// seedDurable opens a store in dir and installs db in a new engine
// through the durable write path, as gyod seeds a fresh -data directory.
func seedDurable(dir string, db *relation.Database, noSync bool) (*engine.Engine, *storage.Store, error) {
	store, err := storage.Open(dir, storage.Options{NoSync: noSync})
	if err != nil {
		return nil, nil, err
	}
	e := engine.New(engine.Options{Store: store})
	batch := storage.CreatesFor(db.D)
	for i, r := range db.Rels {
		batch = append(batch, storage.Mutation{Kind: storage.KindInsert, Rel: i, Width: r.Attrs().Card(), Values: r.RawData()})
	}
	if _, _, err := e.Apply(batch...); err != nil {
		_ = store.Close() // the Apply error is the one to report
		return nil, nil, err
	}
	return e, store, nil
}

// probeWritesAndRepl times the write path layer by layer on batches of
// the workload's own shape: the HTTP handler, Engine.Apply, the
// copy-on-write relation update, the WAL append with and without fsync,
// and the follower's read → decode → apply loop over the same records.
func probeWritesAndRepl(in *inputs, dir string, m metrics, f *failures) error {
	db := in.db
	rng := writerRNG(1, 0)
	models := make([]*relModel, len(db.Rels))
	for i, name := range relNames(db) {
		models[i] = newRelModel(name, db.Rels[i])
	}
	// One stream of writes, past the ramp-up, replayed against every
	// subject so all of them time the same batches.
	var stream []write
	var rels []int
	for i := 0; i < (deleteLag+1)*len(models)+probeWrites; i++ {
		k := i % len(models)
		stream = append(stream, models[k].next(rng))
		rels = append(rels, k)
	}
	ramp, timed := stream[:len(stream)-probeWrites], stream[len(stream)-probeWrites:]
	timedRels := rels[len(rels)-probeWrites:]

	open := func(name string, noSync bool) (*engine.Engine, *storage.Store, error) {
		e, store, err := seedDurable(filepath.Join(dir, name), db, noSync)
		if err != nil {
			return nil, nil, err
		}
		for i, w := range ramp {
			if _, _, err := e.Apply(w.mutation(rels[i])); err != nil {
				_ = store.Close() // the Apply error is the one to report
				return nil, nil, err
			}
		}
		return e, store, nil
	}

	// Through the handler, fsync on, as gyod -data serves a write.
	eh, sh, err := open("handler", false)
	if err != nil {
		return err
	}
	defer sh.Close()
	h := engine.NewServer(eh, eh.Snapshot().D.U, eh.Snapshot().D).Handler()
	var handle kinds
	for _, w := range timed {
		rec, us := serve(h, w.path(), w.body())
		err := fmt.Errorf("%s answered %d: %s", w.path(), rec.Code, rec.Body)
		if rec.Code == http.StatusOK {
			err = checkWrite(w, rec.Body.Bytes())
		}
		f.check(err)
		handle.add(w, us)
	}

	// Engine.Apply directly, fsync on; then its parts on the same batches.
	ea, sa, err := open("apply", false)
	if err != nil {
		return err
	}
	defer sa.Close()
	tip := sa.TailCursor()
	var apply, update kinds
	for i, w := range timed {
		mut := w.mutation(timedRels[i])
		snap := ea.Snapshot()
		us := timeUs(func() { _, _, err = storage.ApplyAll(snap, []storage.Mutation{mut}) })
		if err != nil {
			return err
		}
		update.add(w, us)
		apply.add(w, timeUs(func() { _, _, err = ea.Apply(mut) }))
		if err != nil {
			return err
		}
	}

	// Store.Append alone, with and without fsync.
	var synced, unsynced []float64
	for _, noSync := range []bool{false, true} {
		store, err := storage.Open(filepath.Join(dir, fmt.Sprintf("wal-nosync-%v", noSync)), storage.Options{NoSync: noSync})
		if err != nil {
			return err
		}
		for i, w := range timed {
			muts := []storage.Mutation{w.mutation(timedRels[i])}
			us := timeUs(func() { err = store.Append(muts) })
			if err != nil {
				_ = store.Close() // the Append error is the one to report
				return err
			}
			if noSync {
				unsynced = append(unsynced, us)
			} else {
				synced = append(synced, us)
			}
		}
		if err := store.Close(); err != nil {
			return err
		}
	}

	m["server.handle_write_us"] = handle.typical()
	m["engine.apply_us"] = apply.typical()
	m["server.self_write_us"] = handle.typical() - apply.typical()
	m["relation.apply_insert_us"] = median(update.insert)
	m["relation.apply_delete_us"] = median(update.del)
	m["storage.wal_append_us"] = median(unsynced)
	m["storage.fsync_us"] = median(synced) - median(unsynced)
	// Apply = copy-on-write update + synced append + publish.
	m["engine.publish_us"] = apply.typical() - update.typical() - median(synced)

	// The follower's loop over the records Apply just logged: read the
	// leader's WAL from the cursor, split and decode the frames, apply
	// each batch through a second durable engine's replica path.
	er, sr, err := open("replica", false)
	if err != nil {
		return err
	}
	defer sr.Close()
	var win storage.WALWindow
	var frames [][]byte
	readUs := timeUs(func() { win, err = sa.ReadWAL(tip, 8<<20) })
	if err != nil {
		return err
	}
	var batches [][]storage.Mutation
	decodeUs := timeUs(func() {
		frames, _ = storage.SplitFrames(win.Frames)
		for _, p := range frames {
			var b []storage.Mutation
			if b, err = storage.DecodeBatch(p); err != nil {
				return
			}
			batches = append(batches, b)
		}
	})
	if err != nil {
		return err
	}
	if len(batches) != probeWrites {
		return fmt.Errorf("repl probe read %d of %d logged batches", len(batches), probeWrites)
	}
	var replica kinds
	for i, b := range batches {
		replica.add(timed[i], timeUs(func() { _, _, err = er.ApplyReplica(b...) }))
		if err != nil {
			return err
		}
	}
	m["repl.read_wal_us"] = readUs / probeWrites
	m["repl.decode_us"] = decodeUs / probeWrites
	m["repl.apply_replica_us"] = replica.typical()
	// The replica applied the leader's records: it must hold what the
	// model does.
	for i, mod := range models {
		var err error
		if got := er.Snapshot().Rels[i].Card(); got != len(mod.present) {
			err = fmt.Errorf("replica probe: %s holds %d tuples, model %d", mod.name, got, len(mod.present))
		}
		f.check(err)
	}
	return nil
}
