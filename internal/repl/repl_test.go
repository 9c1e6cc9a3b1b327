package repl

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gyokit/internal/engine"
	"gyokit/internal/relation"
	"gyokit/internal/storage"
)

// leaderNode is a durable engine plus the replication feed over HTTP.
type leaderNode struct {
	e  *engine.Engine
	st *storage.Store
	ts *httptest.Server
}

func newLeader(t *testing.T, opt storage.Options) *leaderNode {
	t.Helper()
	opt.NoSync = true
	st, err := storage.Open(t.TempDir(), opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	e := engine.New(engine.Options{Store: st})
	mux := http.NewServeMux()
	mux.Handle("/v1/repl/", NewStreamer(e, nil, t.Logf))
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return &leaderNode{e: e, st: st, ts: ts}
}

// seed applies the schema plus a first batch of rows on the leader.
func (l *leaderNode) seed(t *testing.T) {
	t.Helper()
	if _, _, err := l.e.Apply(storage.Create("a", "b"), storage.Create("b", "c")); err != nil {
		t.Fatal(err)
	}
	l.insert(t, 0, relation.Tuple{1, 2}, relation.Tuple{3, 4})
}

func (l *leaderNode) insert(t *testing.T, rel int, tuples ...relation.Tuple) {
	t.Helper()
	if _, _, err := l.e.Apply(storage.Insert(rel, 2, tuples)); err != nil {
		t.Fatal(err)
	}
}

func (l *leaderNode) delete(t *testing.T, rel int, tuples ...relation.Tuple) {
	t.Helper()
	if _, counts, err := l.e.Apply(storage.Delete(rel, 2, tuples)); err != nil || counts[0] != len(tuples) {
		t.Fatalf("delete removed %v of %d tuples: %v", counts, len(tuples), err)
	}
}

// seedBig gives relation 0 more than a chunk of rows, then deletes some
// from the full chunk and from the tail, so an initial sync taken now
// ships a manifest with a dead-row list. It returns the rows left.
func (l *leaderNode) seedBig(t *testing.T) []relation.Tuple {
	t.Helper()
	rows := make([]relation.Tuple, relation.ChunkRows+64)
	for i := range rows {
		rows[i] = relation.Tuple{relation.Value(1000 + i), relation.Value(i)}
	}
	l.insert(t, 0, rows...)
	l.delete(t, 0, append(append([]relation.Tuple(nil), rows[10:30]...), rows[relation.ChunkRows+5:relation.ChunkRows+9]...)...)
	if got := l.e.Snapshot().Rels[0].DeadRows(); got != 24 {
		t.Fatalf("leader carries %d dead rows, want 24", got)
	}
	return append(append(rows[:10:10], rows[30:relation.ChunkRows+5]...), rows[relation.ChunkRows+9:]...)
}

// followerNode is a bootstrapped replica over its own store.
type followerNode struct {
	dir    string
	e      *engine.Engine
	st     *storage.Store
	tailer *Tailer
}

func newFollower(t *testing.T, leaderURL string, cfg Config) *followerNode {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "replica")
	if err := Bootstrap(dir, leaderURL, nil, t.Logf); err != nil {
		t.Fatal(err)
	}
	f := &followerNode{dir: dir}
	f.open(t, leaderURL, cfg)
	return f
}

// open (re)opens the replica's store, engine, and tailer.
func (f *followerNode) open(t *testing.T, leaderURL string, cfg Config) {
	t.Helper()
	st, err := storage.Open(f.dir, storage.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	f.st = st
	f.e = engine.New(engine.Options{Store: st})
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	if cfg.PollWait == 0 {
		cfg.PollWait = 200 * time.Millisecond
	}
	tl, err := NewTailer(f.e, f.dir, leaderURL, cfg)
	if err != nil {
		st.Close()
		t.Fatal(err)
	}
	f.tailer = tl
	t.Cleanup(func() {
		f.tailer.Stop()
		f.st.Close()
	})
	tl.Start()
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// caughtUp reports whether the replica has applied everything the
// leader acknowledged.
func caughtUp(f *followerNode, l *leaderNode) bool {
	st := f.tailer.ReplicaStatus()
	tip := l.st.TailCursor()
	return st.LagBytes == 0 && st.CursorSeg == tip.Seg && st.CursorOff == tip.Off
}

func dbEqual(a, b *relation.Database) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.D.String() != b.D.String() || len(a.Rels) != len(b.Rels) {
		return false
	}
	for i := range a.Rels {
		if a.Rels[i].Card() != b.Rels[i].Card() {
			return false
		}
		for j := 0; j < a.Rels[i].Card(); j++ {
			if !b.Rels[i].Has(a.Rels[i].TupleAt(j)) {
				return false
			}
		}
	}
	return true
}

func TestReplicationEndToEnd(t *testing.T) {
	l := newLeader(t, storage.Options{})
	l.seed(t)
	f := newFollower(t, l.ts.URL, Config{})

	waitFor(t, "initial catch-up", func() bool { return caughtUp(f, l) })
	if !dbEqual(l.e.Snapshot(), f.e.Snapshot()) {
		t.Fatal("replica state differs from the leader after catch-up")
	}

	// Writes stream continuously: several more batches, including rows
	// in the second relation, arrive without re-bootstrapping.
	for i := 0; i < 20; i++ {
		l.insert(t, 0, relation.Tuple{relation.Value(10 + i), relation.Value(20 + i)})
		if i%5 == 4 { // deletes stream too: an old row, a recent one
			l.delete(t, 0, relation.Tuple{relation.Value(10 + i - 4), relation.Value(20 + i - 4)},
				relation.Tuple{relation.Value(10 + i), relation.Value(20 + i)})
		}
	}
	l.insert(t, 1, relation.Tuple{5, 6})
	waitFor(t, "streaming catch-up", func() bool { return caughtUp(f, l) })
	if !dbEqual(l.e.Snapshot(), f.e.Snapshot()) {
		t.Fatal("replica state diverged while streaming")
	}

	st := f.tailer.ReplicaStatus()
	if st.Role != "follower" || !st.Connected || st.Diverged {
		t.Errorf("status = %+v", st)
	}
	if st.LagRecords != 0 || st.LagSeconds != 0 {
		t.Errorf("idle pair should report zero lag, got records=%d seconds=%v", st.LagRecords, st.LagSeconds)
	}

	// The replica engine is fenced.
	if _, _, err := f.e.Apply(storage.Insert(0, 2, []relation.Tuple{{9, 9}})); err != engine.ErrReadOnly {
		t.Errorf("replica Apply = %v, want ErrReadOnly", err)
	}
}

// TestStatusSaysBehindWhileApplying reads the replica's status from
// inside an apply: the follower's writer lock is held, so the tailer
// sits in applyFrames with a shipped batch it cannot yet publish. For
// that whole time the status must say the replica is behind — not
// repeat the zero lag of the last completed poll, on which readiness
// and promote decisions would act.
func TestStatusSaysBehindWhileApplying(t *testing.T) {
	l := newLeader(t, storage.Options{})
	l.seed(t)
	f := newFollower(t, l.ts.URL, Config{})
	waitFor(t, "catch-up", func() bool { return caughtUp(f, l) })
	idle := f.tailer.ReplicaStatus()

	// Update runs its callback under the engine's writer lock, which
	// ApplyReplica needs: nothing applies until release closes.
	held, release := make(chan struct{}), make(chan struct{})
	updated := make(chan struct{})
	go func() {
		defer close(updated)
		f.e.Update(func(db *relation.Database) *relation.Database {
			close(held)
			<-release
			return db
		})
	}()
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }); <-updated }
	defer unblock()
	<-held

	l.insert(t, 0, relation.Tuple{5, 6})
	waitFor(t, "the status to say the replica is behind", func() bool {
		return f.tailer.ReplicaStatus().LagBytes > 0
	})
	st := f.tailer.ReplicaStatus()
	if st.LagRecords < 1 || st.LagSeconds <= 0 {
		t.Errorf("mid-apply status reports lag records=%d seconds=%v, want ≥ 1 and > 0", st.LagRecords, st.LagSeconds)
	}
	if st.CursorSeg != idle.CursorSeg || st.CursorOff != idle.CursorOff {
		t.Errorf("cursor moved from %d/%d to %d/%d with the apply still blocked",
			idle.CursorSeg, idle.CursorOff, st.CursorSeg, st.CursorOff)
	}

	unblock()
	waitFor(t, "catch-up after the apply", func() bool { return caughtUp(f, l) })
	if st := f.tailer.ReplicaStatus(); st.LagRecords != 0 || st.LagSeconds != 0 {
		t.Errorf("caught-up status reports lag records=%d seconds=%v", st.LagRecords, st.LagSeconds)
	}
	if !dbEqual(l.e.Snapshot(), f.e.Snapshot()) {
		t.Fatal("replica state differs from the leader")
	}
}

func TestReplicationSurvivesLeaderRotationAndCheckpoint(t *testing.T) {
	// Tiny segments force rotations mid-stream; the connected follower
	// rides through them (and through a leader checkpoint) because its
	// cursor stays near the tail.
	l := newLeader(t, storage.Options{SegmentBytes: 256, CheckpointBytes: -1})
	l.seed(t)
	f := newFollower(t, l.ts.URL, Config{})
	for i := 0; i < 40; i++ {
		l.insert(t, 0, relation.Tuple{relation.Value(100 + i), relation.Value(i)})
		if i == 20 {
			waitFor(t, "mid-stream catch-up", func() bool { return caughtUp(f, l) })
			if err := l.e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitFor(t, "catch-up across rotations", func() bool { return caughtUp(f, l) })
	if !dbEqual(l.e.Snapshot(), f.e.Snapshot()) {
		t.Fatal("replica state diverged across segment rotations")
	}
	if tip := l.st.TailCursor(); tip.Seg < 3 {
		t.Fatalf("test never rotated the leader WAL (tip %v); lower SegmentBytes", tip)
	}
}

func TestFollowerResumesAfterRestart(t *testing.T) {
	l := newLeader(t, storage.Options{})
	l.seed(t)
	left := l.seedBig(t) // the snapshot the replica boots from carries dead rows
	f := newFollower(t, l.ts.URL, Config{})
	waitFor(t, "first catch-up", func() bool { return caughtUp(f, l) })
	if !dbEqual(l.e.Snapshot(), f.e.Snapshot()) {
		t.Fatal("replica state differs from the leader after the initial sync")
	}
	if got := f.e.Snapshot().Rels[0].DeadRows(); got != 20 { // the full chunk's; a tail ships live rows only
		t.Errorf("replica installed %d dead rows, want 20", got)
	}

	// Stop the replica, write more on the leader — inserts, deletes of
	// rows the replica holds in its chunk and tail, a deleted tuple put
	// back — and restart the replica.
	f.tailer.Stop()
	f.st.Close()
	for i := 0; i < 10; i++ {
		l.insert(t, 1, relation.Tuple{relation.Value(i), relation.Value(i + 1)})
		l.delete(t, 0, left[i], left[len(left)-1-i])
	}
	l.insert(t, 0, left[3])
	f.open(t, l.ts.URL, Config{})
	waitFor(t, "catch-up after restart", func() bool { return caughtUp(f, l) })
	// Creates are not idempotent: if the restart replayed any batch
	// twice, apply would have failed and the tailer would be diverged.
	if st := f.tailer.ReplicaStatus(); st.Diverged {
		t.Fatalf("replica diverged after restart: %s", st.LastError)
	}
	if !dbEqual(l.e.Snapshot(), f.e.Snapshot()) {
		t.Fatal("replica state differs after restart")
	}
}

func TestPromote(t *testing.T) {
	l := newLeader(t, storage.Options{})
	l.seed(t)
	f := newFollower(t, l.ts.URL, Config{})
	waitFor(t, "catch-up", func() bool { return caughtUp(f, l) })

	if err := f.tailer.Promote(); err != nil {
		t.Fatal(err)
	}
	if err := f.tailer.Promote(); err != nil {
		t.Fatalf("second promote should be a no-op, got %v", err)
	}
	st := f.tailer.ReplicaStatus()
	if st.Role != "leader" || st.PreviousLeader == "" {
		t.Errorf("post-promote status = %+v", st)
	}
	if _, _, err := f.e.Apply(storage.Insert(0, 2, []relation.Tuple{{77, 78}})); err != nil {
		t.Fatalf("promoted node rejected a write: %v", err)
	}

	// The promotion fence is durable: the directory refuses to follow.
	if _, err := NewTailer(f.e, f.dir, l.ts.URL, Config{}); err == nil || !strings.Contains(err.Error(), "promoted") {
		t.Errorf("NewTailer on a promoted dir = %v, want promoted refusal", err)
	}
	if err := Bootstrap(f.dir, l.ts.URL, nil, nil); err == nil || !strings.Contains(err.Error(), "promoted") {
		t.Errorf("Bootstrap on a promoted dir = %v, want promoted refusal", err)
	}
}

func TestDivergedWhenCursorTruncated(t *testing.T) {
	l := newLeader(t, storage.Options{SegmentBytes: 256, CheckpointBytes: -1})
	l.seed(t)

	// Seed a replica, then — while it is not tailing — rotate the
	// leader WAL past its cursor and checkpoint, truncating the history
	// it still needs.
	dir := filepath.Join(t.TempDir(), "replica")
	if err := Bootstrap(dir, l.ts.URL, nil, t.Logf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		l.insert(t, 0, relation.Tuple{relation.Value(i), relation.Value(i)})
	}
	if err := l.e.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	f := &followerNode{dir: dir}
	f.open(t, l.ts.URL, Config{})
	waitFor(t, "divergence detection", func() bool { return f.tailer.ReplicaStatus().Diverged })
	st := f.tailer.ReplicaStatus()
	if st.Connected {
		t.Error("diverged replica still reports connected")
	}
	if !strings.Contains(st.LastError, "no longer contains cursor") {
		t.Errorf("operator message = %q", st.LastError)
	}
}

func TestDivergedOnLeaderIdentityChange(t *testing.T) {
	a := newLeader(t, storage.Options{})
	a.seed(t)
	b := newLeader(t, storage.Options{})
	b.seed(t)

	dir := filepath.Join(t.TempDir(), "replica")
	if err := Bootstrap(dir, a.ts.URL, nil, t.Logf); err != nil {
		t.Fatal(err)
	}
	// Re-point at a different store: allowed at bootstrap time, caught
	// on first contact.
	if err := Bootstrap(dir, b.ts.URL, nil, t.Logf); err != nil {
		t.Fatal(err)
	}
	f := &followerNode{dir: dir}
	f.open(t, b.ts.URL, Config{})
	waitFor(t, "identity mismatch detection", func() bool { return f.tailer.ReplicaStatus().Diverged })
	if st := f.tailer.ReplicaStatus(); !strings.Contains(st.LastError, "identity") {
		t.Errorf("operator message = %q", st.LastError)
	}
}

func TestFollowerReconnectsAfterLeaderOutage(t *testing.T) {
	l := newLeader(t, storage.Options{})
	l.seed(t)

	// A proxy we can cut stands in for a flapping leader; its handlers
	// read up while the test flips it.
	var up atomic.Bool
	up.Store(true)
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !up.Load() {
			http.Error(w, "leader unreachable", http.StatusBadGateway)
			return
		}
		resp, err := http.Get(l.ts.URL + r.URL.String())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		w.WriteHeader(resp.StatusCode)
		buf := make([]byte, 32<<10)
		for {
			n, err := resp.Body.Read(buf)
			if n > 0 {
				w.Write(buf[:n])
			}
			if err != nil {
				return
			}
		}
	}))
	t.Cleanup(proxy.Close)

	f := newFollower(t, proxy.URL, Config{})
	waitFor(t, "catch-up through proxy", func() bool { return caughtUp(f, l) })

	up.Store(false)
	waitFor(t, "outage detection", func() bool { return !f.tailer.ReplicaStatus().Connected })
	l.insert(t, 0, relation.Tuple{55, 56})
	up.Store(true)
	waitFor(t, "reconnect catch-up", func() bool { return caughtUp(f, l) })
	st := f.tailer.ReplicaStatus()
	if st.Diverged {
		t.Fatalf("transient outage must not diverge: %s", st.LastError)
	}
	if !dbEqual(l.e.Snapshot(), f.e.Snapshot()) {
		t.Fatal("replica state differs after reconnect")
	}
}

func TestBackoffDelayEnvelope(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	prevCap := time.Duration(0)
	for failures := 0; failures <= 12; failures++ {
		want := 100 * time.Millisecond << min(failures, 20)
		if want > 15*time.Second || want <= 0 {
			want = 15 * time.Second
		}
		for i := 0; i < 50; i++ {
			d := backoffDelay(failures, rng)
			if lo, hi := time.Duration(float64(want)*0.75), time.Duration(float64(want)*1.25); d < lo || d > hi {
				t.Fatalf("backoffDelay(%d) = %v outside [%v, %v]", failures, d, lo, hi)
			}
		}
		if want < prevCap {
			t.Fatalf("backoff schedule regressed at %d failures", failures)
		}
		prevCap = want
	}
}

func TestBootstrapRefusesForeignStore(t *testing.T) {
	l := newLeader(t, storage.Options{})
	l.seed(t)

	// A directory holding a store that is not a replica must not be
	// silently converted.
	st, err := storage.Open(filepath.Join(t.TempDir(), "own"), storage.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append([]storage.Mutation{storage.Create("x", "y")}); err != nil {
		t.Fatal(err)
	}
	dir := st.Dir()
	st.Close()
	if err := Bootstrap(dir, l.ts.URL, nil, nil); err == nil || !strings.Contains(err.Error(), "not a replica") {
		t.Errorf("Bootstrap over a foreign store = %v, want refusal", err)
	}

	// Re-running Bootstrap on an already-seeded replica is a no-op.
	rdir := filepath.Join(t.TempDir(), "replica")
	if err := Bootstrap(rdir, l.ts.URL, nil, nil); err != nil {
		t.Fatal(err)
	}
	before, _, err := LoadState(rdir)
	if err != nil {
		t.Fatal(err)
	}
	if err := Bootstrap(rdir, l.ts.URL, nil, nil); err != nil {
		t.Fatal(err)
	}
	after, _, _ := LoadState(rdir)
	if before != after {
		t.Errorf("idempotent Bootstrap changed state: %+v → %+v", before, after)
	}
}

func TestStateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := LoadState(dir); ok || err != nil {
		t.Fatalf("LoadState on empty dir = ok=%v err=%v", ok, err)
	}
	want := State{LeaderURL: "http://x:1", LeaderID: "deadbeef", CursorSeg: 3, CursorOff: 99, Promoted: true}
	if err := SaveState(dir, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := LoadState(dir)
	if err != nil || !ok || got != want {
		t.Fatalf("LoadState = %+v ok=%v err=%v", got, ok, err)
	}
	if got.ParseLeaderID() != 0xdeadbeef {
		t.Errorf("ParseLeaderID = %x", got.ParseLeaderID())
	}
	// Corruption is an error, not a silent fresh start.
	if err := os.WriteFile(filepath.Join(dir, stateFile), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadState(dir); err == nil {
		t.Error("LoadState on corrupt sidecar = nil error")
	}
}

func TestPreambleRoundTrip(t *testing.T) {
	p := preamble{
		StoreID:    0xfeedface,
		Req:        storage.Cursor{Seg: 1, Off: 8},
		Next:       storage.Cursor{Seg: 2, Off: 8},
		Tip:        storage.Cursor{Seg: 2, Off: 4096},
		LagBytes:   4088,
		Appends:    17,
		FrameBytes: 0,
	}
	buf := encodePreamble(p)
	if len(buf) != preambleLen {
		t.Fatalf("preamble length = %d", len(buf))
	}
	got, err := decodePreamble(buf)
	if err != nil || got != p {
		t.Fatalf("round trip = %+v, %v", got, err)
	}
	// Any flipped bit fails the checksum.
	for i := 0; i < len(buf); i++ {
		mut := append([]byte(nil), buf...)
		mut[i] ^= 0x40
		if _, err := decodePreamble(mut); err == nil {
			t.Fatalf("bit flip at %d went undetected", i)
		}
	}

	hdr := encodeSnapHeader(0xfeedface, storage.Cursor{Seg: 9, Off: 1234})
	id, c, err := decodeSnapHeader(hdr)
	if err != nil || id != 0xfeedface || c != (storage.Cursor{Seg: 9, Off: 1234}) {
		t.Fatalf("snapshot header round trip = %x %v %v", id, c, err)
	}
}
