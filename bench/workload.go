package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gyokit/internal/relation"
)

// spec is one workload: a topology, a dataset and a set of clients.
type spec struct {
	name     string
	why      string
	data     dataset
	durable  bool    // the leader runs with -data (fsync on every append)
	follower bool    // a -follow replica runs beside the leader and serves the reads
	readers  int     // closed-loop readers
	writers  int     // closed-loop writers on the leader
	openRate float64 // batches per second of one open-loop writer on the leader; 0 = none
}

var specs = []spec{
	{name: "eval_read", data: d20k, readers: 2,
		why: "9 cached plans over 20k-row relations: nearly all time is semijoin/join/project evaluation; planning, storage and repl idle"},
	{name: "plan_churn", data: dtiny, readers: 2,
		why: "990 distinct plans cycled through a 256-entry cache on 20-row relations: parse, classify, plan, per-statement overhead and the wire; no per-row work"},
	{name: "durable_write", data: d20k, durable: true, writers: 2,
		why: "256-tuple insert/delete batches with fsync on: copy-on-write apply, WAL append and background checkpoints; no query runs"},
	{name: "replica_mixed", data: d20k, durable: true, follower: true, readers: 1, openRate: 100,
		why: "follower evaluates reads while it applies a 100 batch/s write stream shipped from the leader: prices snapshot churn and repl"},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// staticData reports whether the served data never changes during the
// measured phase, so every read's cardinality can be held to its pin.
func (s spec) staticData() bool { return s.writers == 0 && s.openRate == 0 }

// inputs are everything the driver generates from the seed before any
// process starts: the database, the read list and its oracles.
type inputs struct {
	db    *relation.Database
	reads []request
	// extra are reads the in-process probes add to the list so that every
	// endpoint is probed on every dataset; no server is sent them.
	extra []request
}

func (s spec) generate(seed int64) (*inputs, error) {
	db, err := s.data.generate(seed)
	if err != nil {
		return nil, err
	}
	in := &inputs{db: db}
	if s.data.name == dtiny.name {
		in.reads, err = churnRequests(db, seed)
		return in, err
	}
	in.reads = evalShapes(db)
	in.extra = schemaRequests()
	return in, nil
}

// system is one set-up system under test: its processes, its scratch
// directory, and the per-run state the clients share.
type system struct {
	spec     spec
	in       *inputs
	dir      string
	leader   *gyod
	follower *gyod
	readBase string
	// want[i] is the cardinality reads[i] must report (-1 = unchecked).
	want []int
	// models[w] are the relations writer w owns. Built per system: a
	// model mirrors one server's state.
	models [][]*relModel
	rngs   []*rand.Rand // writer w's tuple generator
	setupS float64
	loadS  float64
}

func (sys *system) servers() []*gyod {
	if sys.follower != nil {
		return []*gyod{sys.leader, sys.follower}
	}
	return []*gyod{sys.leader}
}

// teardown kills the system's processes and removes its scratch data.
func (sys *system) teardown() {
	for _, g := range sys.servers() {
		if g != nil {
			g.kill()
		}
	}
	_ = os.RemoveAll(sys.dir) // best effort: the next run uses a fresh directory anyway
}

// failures counts checked operations and keeps the first few messages.
type failures struct {
	attempted, failed int
	msgs              []string
}

func (f *failures) check(err error) {
	f.attempted++
	if err == nil {
		return
	}
	f.failed++
	if len(f.msgs) < 5 {
		f.msgs = append(f.msgs, err.Error())
	}
}

func (f *failures) merge(o failures) {
	f.attempted += o.attempted
	f.failed += o.failed
	for _, m := range o.msgs {
		if len(f.msgs) < 5 {
			f.msgs = append(f.msgs, m)
		}
	}
}

// setup starts the workload's processes with default flags, loads the
// data, waits for the follower, and warms every request shape up. The
// time it takes is the workload's setup_s.
func (b *bench) setup(s spec, in *inputs, seed int64) (*system, error) {
	t0 := time.Now()
	dir, err := os.MkdirTemp(b.scratch, s.name+"-")
	if err != nil {
		return nil, err
	}
	sys := &system{spec: s, in: in, dir: dir}
	ok := false
	defer func() {
		if !ok {
			sys.teardown()
		}
	}()

	args := []string{"-schema", s.data.schemaText, "-tuples", "0"}
	if s.durable {
		args = append(args, "-data", filepath.Join(dir, "leader"))
	}
	if sys.leader, err = b.procs.startGyod(b.bin, args...); err != nil {
		return nil, err
	}
	c := newClient()
	tLoad := time.Now()
	if _, err := post(c, sys.leader.base+"/v1/load", loadBody(in.db)); err != nil {
		return nil, b.withStderr(err, sys)
	}
	sys.loadS = time.Since(tLoad).Seconds()
	sys.readBase = sys.leader.base
	if s.follower {
		sys.follower, err = b.procs.startGyod(b.bin,
			"-data", filepath.Join(dir, "follower"), "-follow", sys.leader.base)
		if err != nil {
			return nil, err
		}
		sys.readBase = sys.follower.base
	}

	// Writers ramp up to their steady state: deleteLag batches pending
	// per relation, then one full insert/delete alternation.
	names := relNames(in.db)
	nw := s.writers
	if s.openRate > 0 {
		nw = 1
	}
	sys.models = make([][]*relModel, nw)
	for i, name := range names {
		if nw > 0 {
			w := i % nw
			sys.models[w] = append(sys.models[w], newRelModel(name, in.db.Rels[i]))
		}
	}
	var warm failures
	for w, ms := range sys.models {
		sys.rngs = append(sys.rngs, writerRNG(seed, w))
		for i := 0; i < (deleteLag+2)*len(ms); i++ {
			_, err := doWrite(c, sys.leader.base, ms[i%len(ms)].next(sys.rngs[w]))
			warm.check(err)
		}
	}
	if s.follower {
		if err := awaitCaughtUp(c, sys.leader.base, sys.follower.base, 30*time.Second); err != nil {
			return nil, b.withStderr(err, sys)
		}
	}

	// Every read once: compiles its plan and, while the data is static,
	// pins its cardinality. Once writers have run, the oracles computed
	// from the generated database no longer apply.
	sys.want = make([]int, len(in.reads))
	for i, r := range in.reads {
		want := r.wantCard
		if !s.staticData() {
			want = -1
		}
		ans, _, err := doRead(c, sys.readBase, r, want)
		warm.check(err)
		sys.want[i] = want
		if err == nil && ans.Card != nil && s.staticData() {
			sys.want[i] = *ans.Card
		}
	}
	if warm.failed > 0 {
		return nil, b.withStderr(fmt.Errorf("%s warm-up: %d of %d operations failed: %v", s.name, warm.failed, warm.attempted, warm.msgs), sys)
	}
	sys.setupS = time.Since(t0).Seconds()
	ok = true
	return sys, nil
}

// writerRNG seeds writer w's tuple generator.
func writerRNG(seed int64, w int) *rand.Rand { return rand.New(rand.NewSource(seed*31 + int64(w) + 1)) }

// withStderr attaches the servers' stderr to a failure, so a run that
// dies on the server side says why.
func (b *bench) withStderr(err error, sys *system) error {
	msg := err.Error()
	for i, g := range sys.servers() {
		if g != nil {
			msg += fmt.Sprintf("\n--- gyod %d stderr ---\n%s", i, g.stderr)
		}
	}
	return errors.New(msg)
}

// doRead issues r and checks the answer: HTTP 200, the expected tree
// flag, and — when wantCard ≥ 0 — the expected cardinality. It returns
// the decoded answer and the request's latency in milliseconds.
func doRead(c *http.Client, base string, r request, wantCard int) (readAnswer, float64, error) {
	var ans readAnswer
	t0 := time.Now()
	body, err := post(c, base+r.path, r.body)
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		return ans, ms, err
	}
	if err := json.Unmarshal(body, &ans); err != nil {
		return ans, ms, fmt.Errorf("%s %s: %v", r.path, r.id, err)
	}
	return ans, ms, checkRead(r, ans, wantCard)
}

func checkRead(r request, ans readAnswer, wantCard int) error {
	if r.wantTree != nil && (ans.Tree == nil || *ans.Tree != *r.wantTree) {
		return fmt.Errorf("%s %s: tree flag differs from the oracle's %v", r.path, r.body, *r.wantTree)
	}
	if r.wantTree == nil && ans.Card == nil {
		return fmt.Errorf("%s %s: answer has no card", r.path, r.body)
	}
	if wantCard >= 0 && *ans.Card != wantCard {
		return fmt.Errorf("%s %s: card %d, want %d", r.path, r.body, *ans.Card, wantCard)
	}
	return nil
}

// doWrite issues w and checks that every tuple of the batch took effect
// and that the relation's cardinality equals the model's.
func doWrite(c *http.Client, base string, w write) (float64, error) {
	t0 := time.Now()
	body, err := post(c, base+w.path(), w.body())
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		return ms, err
	}
	return ms, checkWrite(w, body)
}

func checkWrite(w write, body []byte) error {
	var ans struct {
		Applied int `json:"applied"`
		Card    int `json:"card"`
	}
	if err := json.Unmarshal(body, &ans); err != nil {
		return fmt.Errorf("%s: %v", w.path(), err)
	}
	if ans.Applied != batchTuples || ans.Card != w.wantCard {
		return fmt.Errorf("%s: applied %d card %d, want applied %d card %d", w.path(), ans.Applied, ans.Card, batchTuples, w.wantCard)
	}
	return nil
}

// phase is what one measured phase observed from outside.
type phase struct {
	seconds float64
	// op holds one latency per step of a closed-loop client, ms: a read,
	// or a writer's insert-then-delete cycle. A writer's requests come
	// in two kinds an order of magnitude apart, half of each, so their
	// median would sit on the gap between the kinds; a cycle has one of
	// each, and its median is a property of the system.
	op     series
	read   series            // read latencies, ms
	write  series            // write latencies per request, ms (open loop: from the due instant)
	byID   map[string]series // read latencies by shape or endpoint
	late   series            // open-loop writer: how late each send was, ms
	writes int               // acknowledged write batches
	fails  failures

	chaseMs     float64 // the machine-speed reference, taken just before the clients start
	serverCPUMs float64 // Δ utime+stime over every gyod
	driverCPUMs float64 // Δ of this process
	before      []map[string]float64
	after       []map[string]float64 // /v1/metrics of each server around the phase

	dirBytes float64   // size of the data directories after the phase (durable only)
	visible  series    // ack → visible on the follower, ms (sampled, follower only)
	lagBytes []float64 // follower lag samples (sampled, follower only)
}

// measure drives the workload's clients against sys for the given
// time. With sampled set, a lag sampler and a visibility prober run
// beside the clients of a replicated topology; end-to-end numbers are
// always taken with it off. The traffic is the same either way — reads
// never carry "trace": true here, because a traced /v1/solve looks its
// plan up a second time and would count as a cache hit of its own.
func (b *bench) measure(sys *system, d time.Duration, sampled bool) (*phase, error) {
	s := sys.spec
	ph := &phase{byID: map[string]series{}}
	c := newClient()
	cpu0 := make([]float64, len(sys.servers()))
	for i, g := range sys.servers() {
		m, err := scrape(c, g.base)
		if err != nil {
			return nil, b.withStderr(err, sys)
		}
		ph.before = append(ph.before, m)
		if cpu0[i], err = g.cpuMs(); err != nil {
			return nil, err
		}
	}
	ph.chaseMs = chaseMs()
	self0 := selfCPUMs()

	reads := sys.in.reads
	type result struct {
		op, read, write, late series
		byID                  map[string]series
		writes                int
		fails                 failures
	}
	var results []*result
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	spawn := func(fn func(res *result)) {
		res := &result{byID: map[string]series{}}
		results = append(results, res)
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(res)
		}()
	}

	for r := 0; r < s.readers; r++ {
		offset := r * len(reads) / s.readers
		spawn(func(res *result) {
			c := newClient()
			for i := offset; time.Now().Before(deadline); i++ {
				k := i % len(reads)
				_, ms, err := doRead(c, sys.readBase, reads[k], sys.want[k])
				res.fails.check(err)
				res.op = append(res.op, ms)
				res.read = append(res.read, ms)
				res.byID[reads[k].id] = append(res.byID[reads[k].id], ms)
			}
		})
	}
	for w := 0; w < s.writers; w++ {
		ms, rng := sys.models[w], sys.rngs[w]
		spawn(func(res *result) {
			c := newClient()
			for i := 0; time.Now().Before(deadline); i++ {
				// One cycle on one relation: insert a new batch, delete
				// the oldest pending one.
				m, cycle := ms[i%len(ms)], 0.0
				for k := 0; k < 2; k++ {
					lat, err := doWrite(c, sys.leader.base, m.next(rng))
					res.fails.check(err)
					res.write = append(res.write, lat)
					res.writes++
					cycle += lat
				}
				res.op = append(res.op, cycle)
			}
		})
	}
	// acked wakes the visibility prober after every tenth ack. Buffer 1:
	// a prober still busy with the previous probe skips this one.
	acked := make(chan struct{}, 1)
	if s.openRate > 0 {
		ms, rng := sys.models[0], sys.rngs[0]
		spawn(func(res *result) {
			c := newClient()
			for i := 0; ; i++ {
				due := dueTime(start, i, s.openRate)
				if !due.Before(deadline) {
					return
				}
				time.Sleep(time.Until(due))
				sent := time.Now()
				_, err := doWrite(c, sys.leader.base, ms[i%len(ms)].next(rng))
				res.fails.check(err)
				res.late = append(res.late, msBetween(due, sent))
				res.write = append(res.write, msBetween(due, time.Now()))
				res.writes++
				if i%10 == 9 {
					select {
					case acked <- struct{}{}:
					default:
					}
				}
			}
		})
	}

	stop := make(chan struct{})
	var sideWG sync.WaitGroup
	if sampled && sys.follower != nil {
		sideWG.Add(2)
		go func() {
			defer sideWG.Done()
			ph.lagBytes = sampleLag(sys.follower.base, stop)
		}()
		go func() {
			defer sideWG.Done()
			ph.visible = probeVisibility(sys.leader.base, sys.follower.base, acked, stop)
		}()
	}
	wg.Wait()
	ph.seconds = time.Since(start).Seconds()
	close(stop)
	sideWG.Wait()

	ph.driverCPUMs = selfCPUMs() - self0
	for i, g := range sys.servers() {
		cpu1, err := g.cpuMs()
		if err != nil {
			return nil, err
		}
		ph.serverCPUMs += cpu1 - cpu0[i]
	}
	if sys.follower != nil {
		// The counters scraped next compare what the leader logged with
		// what the follower applied, so let the follower finish first.
		if err := awaitCaughtUp(c, sys.leader.base, sys.follower.base, 30*time.Second); err != nil {
			return nil, b.withStderr(err, sys)
		}
	}
	if s.durable {
		n, err := dirBytes(sys.dir)
		if err != nil {
			return nil, err
		}
		ph.dirBytes = float64(n)
	}
	for _, g := range sys.servers() {
		m, err := scrape(c, g.base)
		if err != nil {
			return nil, b.withStderr(err, sys)
		}
		ph.after = append(ph.after, m)
	}
	for _, res := range results {
		ph.op = append(ph.op, res.op...)
		ph.read = append(ph.read, res.read...)
		ph.write = append(ph.write, res.write...)
		ph.late = append(ph.late, res.late...)
		ph.writes += res.writes
		ph.fails.merge(res.fails)
		for id, lat := range res.byID {
			ph.byID[id] = append(ph.byID[id], lat...)
		}
	}
	return ph, nil
}

// dueTime is when an open-loop generator running at rate per second
// owes its i-th request.
func dueTime(start time.Time, i int, rate float64) time.Time {
	return start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
}

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a).Nanoseconds()) / 1e6 }

// sampleLag reads the follower's reported lag every 100 ms until stop.
func sampleLag(follower string, stop <-chan struct{}) []float64 {
	c := newClient()
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	var out []float64
	for {
		select {
		case <-stop:
			return out
		case <-tick.C:
			if _, st, err := replCursor(c, follower); err == nil && st.LagBytes >= 0 {
				out = append(out, float64(st.LagBytes))
			}
		}
	}
}

// probeVisibility times, after each signalled ack, how long the
// follower takes to apply everything the leader has acknowledged.
func probeVisibility(leader, follower string, acked <-chan struct{}, stop <-chan struct{}) series {
	c := newClient()
	var out series
	for {
		select {
		case <-stop:
			return out
		case <-acked:
			t0 := time.Now()
			if err := awaitCaughtUp(c, leader, follower, 5*time.Second); err == nil {
				out = append(out, msBetween(t0, time.Now()))
			}
		}
	}
}

// integrity runs the workload's post-run checks and returns what the
// restart measured (zero unless the workload is durable and unreplicated).
//
// A durable leader is SIGKILLed and restarted on its directory: it must
// come back with exactly the cardinalities the driver's model holds,
// which every acknowledged write contributed to. A follower must reach
// lag 0 with cardinalities equal to its leader's.
func (b *bench) integrity(sys *system, f *failures) (recoverMs, replayed float64, err error) {
	c := newClient()
	if sys.follower != nil {
		f.check(awaitCaughtUp(c, sys.leader.base, sys.follower.base, 30*time.Second))
		ls, err1 := serverStats(c, sys.leader.base)
		fs, err2 := serverStats(c, sys.follower.base)
		if err1 != nil || err2 != nil {
			return 0, 0, b.withStderr(fmt.Errorf("reading final stats: %v %v", err1, err2), sys)
		}
		for i := range ls.Relations {
			var err error
			if fs.Relations[i].Card != ls.Relations[i].Card {
				err = fmt.Errorf("follower %s card %d, leader %d", ls.Relations[i].Rel, fs.Relations[i].Card, ls.Relations[i].Card)
			}
			f.check(err)
		}
	}
	if len(sys.models) == 0 {
		return 0, 0, nil
	}
	if sys.spec.durable && sys.follower == nil {
		dataDir := filepath.Join(sys.dir, "leader")
		sys.leader.kill()
		t0 := time.Now()
		sys.leader, err = b.procs.startGyod(b.bin, "-data", dataDir)
		if err != nil {
			return 0, 0, err
		}
		if _, err := get(c, sys.leader.base+"/v1/healthz"); err != nil {
			return 0, 0, b.withStderr(err, sys)
		}
		recoverMs = msBetween(t0, time.Now())
		sys.readBase = sys.leader.base
	}
	st, err := serverStats(c, sys.leader.base)
	if err != nil {
		return 0, 0, b.withStderr(err, sys)
	}
	if st.Durability != nil {
		replayed = float64(st.Durability.Replayed)
	}
	cards := map[string]int{}
	for _, r := range st.Relations {
		cards[r.Rel] = r.Card
	}
	for _, ms := range sys.models {
		for _, m := range ms {
			var err error
			if cards[m.name] != len(m.present) {
				err = fmt.Errorf("%s holds %d tuples after the run, acknowledged writes leave %d", m.name, cards[m.name], len(m.present))
			}
			f.check(err)
		}
	}
	return recoverMs, replayed, nil
}

// userBytes is the payload of one acknowledged write batch.
const userBytes = batchTuples * 2 * relation.ValueBytes
