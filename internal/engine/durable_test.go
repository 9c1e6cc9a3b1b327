package engine

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"gyokit/internal/program"
	"gyokit/internal/relation"
	"gyokit/internal/schema"
	"gyokit/internal/storage"
)

// openDurable returns an engine backed by a store in dir.
func openDurable(t testing.TB, dir string, opt storage.Options) (*Engine, *storage.Store) {
	t.Helper()
	st, err := storage.Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	return New(Options{Store: st}), st
}

func snapshotsEqual(a, b *relation.Database) bool {
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

func TestEngineDurableApply(t *testing.T) {
	dir := t.TempDir()
	e, st := openDurable(t, dir, storage.Options{NoSync: true})
	if e.Store() != st {
		t.Fatal("engine does not report its store")
	}
	// NoSync stores survive process kills but not power loss, so the
	// engine must not claim durability for them.
	if e.Durable() {
		t.Error("NoSync store claims crash durability")
	}
	if snap := e.Snapshot(); snap == nil || len(snap.Rels) != 0 {
		t.Fatalf("fresh durable engine snapshot = %v", snap)
	}

	if _, counts, err := e.Apply(
		storage.Create("a", "b"),
		storage.Create("b", "c"),
		storage.Insert(0, 2, []relation.Tuple{{1, 2}, {3, 4}, {1, 2}}),
	); err != nil {
		t.Fatal(err)
	} else if counts[2] != 2 {
		t.Errorf("insert count = %d, want 2 (dedup)", counts[2])
	}
	if _, counts, err := e.Apply(
		storage.Delete(0, 2, []relation.Tuple{{3, 4}, {9, 9}}),
		storage.Insert(1, 2, []relation.Tuple{{7, 8}}),
	); err != nil {
		t.Fatal(err)
	} else if counts[0] != 1 {
		t.Errorf("delete count = %d, want 1", counts[0])
	}
	want := e.Snapshot()
	if want.Rels[0].Card() != 1 || !want.Rels[0].Has(relation.Tuple{1, 2}) {
		t.Fatalf("live snapshot wrong: %v", want.Rels[0])
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the recovered engine serves the identical state.
	e2, st2 := openDurable(t, dir, storage.Options{NoSync: true})
	defer st2.Close()
	if !snapshotsEqual(want, e2.Snapshot()) {
		t.Error("recovered snapshot differs from pre-close snapshot")
	}
}

func TestEngineApplyValidationLeavesStateUntouched(t *testing.T) {
	dir := t.TempDir()
	e, st := openDurable(t, dir, storage.Options{NoSync: true})
	defer st.Close()
	if _, _, err := e.Apply(storage.Create("a", "b")); err != nil {
		t.Fatal(err)
	}
	before := e.Snapshot()
	appends := st.Stats().Appends

	// Second mutation of the batch is invalid: nothing may be applied
	// or logged.
	_, _, err := e.Apply(
		storage.Insert(0, 2, []relation.Tuple{{1, 1}}),
		storage.Insert(5, 2, []relation.Tuple{{2, 2}}),
	)
	if err == nil {
		t.Fatal("invalid batch accepted")
	}
	if e.Snapshot() != before {
		t.Error("failed batch changed the snapshot")
	}
	if st.Stats().Appends != appends {
		t.Error("failed batch reached the WAL")
	}
}

func TestEngineApplyWithoutStore(t *testing.T) {
	e := New(Options{})
	if e.Durable() {
		t.Fatal("in-memory engine claims durability")
	}
	if _, _, err := e.Apply(storage.Create("a", "b")); err == nil {
		t.Fatal("Apply before any snapshot succeeded")
	}
	u := schema.NewUniverse()
	d := schema.MustParse(u, "ab, bc")
	e.Swap(urdb(d, 1, 10, 8))
	if _, _, err := e.Apply(storage.Insert(0, 2, []relation.Tuple{{100, 200}})); err != nil {
		t.Fatal(err)
	}
	if !e.Snapshot().Rels[0].Has(relation.Tuple{100, 200}) {
		t.Error("in-memory Apply lost the insert")
	}
}

func TestEngineBackgroundCheckpoint(t *testing.T) {
	dir := t.TempDir()
	e, st := openDurable(t, dir, storage.Options{NoSync: true, CheckpointBytes: 256})
	defer st.Close()
	if _, _, err := e.Apply(storage.Create("a", "b")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, _, err := e.Apply(storage.Insert(0, 2, []relation.Tuple{{relation.Value(i), relation.Value(i)}})); err != nil {
			t.Fatal(err)
		}
	}
	e.ckptWG.Wait()
	if st.Stats().Checkpoints == 0 {
		t.Error("no background checkpoint despite threshold crossings")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	e2, st2 := openDurable(t, dir, storage.Options{NoSync: true})
	defer st2.Close()
	if !snapshotsEqual(e.Snapshot(), e2.Snapshot()) {
		t.Error("recovery after background checkpoint differs")
	}
}

// TestEngineCheckpointSkipsWhenClean: a shutdown checkpoint with no
// records since the last one must not rewrite the snapshot.
func TestEngineCheckpointSkipsWhenClean(t *testing.T) {
	dir := t.TempDir()
	e, st := openDurable(t, dir, storage.Options{NoSync: true})
	defer st.Close()
	if _, _, err := e.Apply(storage.Create("a", "b")); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().Checkpoints; got != 1 {
		t.Fatalf("checkpoints = %d, want 1", got)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().Checkpoints; got != 1 {
		t.Errorf("clean checkpoint was not skipped: %d", got)
	}
	if _, _, err := e.Apply(storage.Insert(0, 2, []relation.Tuple{{1, 2}})); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().Checkpoints; got != 2 {
		t.Errorf("dirty checkpoint skipped: %d", got)
	}
}

// TestEngineConcurrentCheckpoints races synchronous Checkpoint calls
// against each other and against Apply-triggered background
// checkpoints. The old implementation claimed a bare busy flag without
// joining the in-flight WaitGroup, so a second synchronous caller
// hot-looped on the CAS for the whole checkpoint window; callers now
// serialize on the checkpoint mutex. Run under -race in CI.
func TestEngineConcurrentCheckpoints(t *testing.T) {
	dir := t.TempDir()
	// A tiny threshold makes Apply trigger background checkpoints that
	// contend with the synchronous ones.
	e, st := openDurable(t, dir, storage.Options{NoSync: true, CheckpointBytes: 256})
	defer st.Close()
	if _, _, err := e.Apply(storage.Create("a", "b")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				v := relation.Value(w*1000 + i)
				if _, _, err := e.Apply(storage.Insert(0, 2, []relation.Tuple{{v, v + 1}})); err != nil {
					t.Error(err)
					return
				}
				if err := e.Checkpoint(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	e.ckptWG.Wait()
	if st.Stats().Checkpoints == 0 {
		t.Error("no checkpoint completed")
	}
	// The store must still recover cleanly after the contention.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	e2, st2 := openDurable(t, dir, storage.Options{NoSync: true})
	defer st2.Close()
	if !snapshotsEqual(e.Snapshot(), e2.Snapshot()) {
		t.Error("recovered state differs after concurrent checkpoints")
	}
}

// TestEngineDurableConcurrentReadWrite exercises the durable write path
// under concurrent solves; run with -race it proves append-then-publish
// never exposes a half-written snapshot.
func TestEngineDurableConcurrentReadWrite(t *testing.T) {
	dir := t.TempDir()
	e, st := openDurable(t, dir, storage.Options{NoSync: true, CheckpointBytes: 1 << 10})
	defer st.Close()
	if _, _, err := e.Apply(storage.Create("a", "b"), storage.Create("b", "c")); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	d := snap.D
	x := d.U.Set("a", "c")

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				v := relation.Value(w*1000 + i)
				if _, _, err := e.Apply(
					storage.Insert(0, 2, []relation.Tuple{{v, v + 1}}),
					storage.Insert(1, 2, []relation.Tuple{{v + 1, v + 2}}),
				); err != nil {
					t.Error(err)
					return
				}
				if i%2 == 1 { // every other row of relation 0 goes again
					if _, counts, err := e.Apply(storage.Delete(0, 2, []relation.Tuple{{v - 1, v}})); err != nil || counts[0] != 1 {
						t.Errorf("delete removed %v: %v", counts, err)
						return
					}
				}
			}
		}(w)
	}
	// Readers alternate the schema path with a conjunctive query, whose
	// bind takes identity views of the stored relations — sharing their
	// overlays and dead-row bitmaps — while the writers derive successors.
	pl, err := e.PrepareQuery("ans(A, C) :- ab(A, B), bc(B, C).")
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, _, err := e.Solve(d, x); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := e.SolveQuery(pl, 1, program.Limits{}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	e.ckptWG.Wait()

	if got := e.Snapshot().Rels[0].Card(); got != 100 {
		t.Errorf("relation 0 card = %d, want 100", got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	e2, st2 := openDurable(t, dir, storage.Options{NoSync: true})
	defer st2.Close()
	if !snapshotsEqual(e.Snapshot(), e2.Snapshot()) {
		t.Error("recovered state differs after concurrent writes")
	}
}

// TestEngineBackgroundCheckpointFailureLogged: a background checkpoint
// is fire-and-forget, so Apply callers never see its error — the
// engine must push it through Logf and the store must keep it sticky
// in Stats until the next checkpoint succeeds and clears it.
func TestEngineBackgroundCheckpointFailureLogged(t *testing.T) {
	dir := t.TempDir()
	st, err := storage.Open(dir, storage.Options{NoSync: true, CheckpointBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var logMu sync.Mutex
	var logs []string
	e := New(Options{Store: st, Logf: func(format string, args ...any) {
		logMu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		logMu.Unlock()
	}})

	// A directory squatting on the chunk-store path makes every
	// checkpoint fail deterministically: the store's first checkpoint
	// always opens generation 1, and the generation only advances on
	// success.
	obstacle := filepath.Join(dir, "chunks-0000000000000001.gyo")
	if err := os.Mkdir(obstacle, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Apply(storage.Create("a", "b")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, _, err := e.Apply(storage.Insert(0, 2, []relation.Tuple{{relation.Value(i), relation.Value(i + 1)}})); err != nil {
			t.Fatal(err)
		}
	}
	e.ckptWG.Wait()
	logMu.Lock()
	logged := false
	for _, l := range logs {
		if strings.Contains(l, "background checkpoint") && strings.Contains(l, "failed") {
			logged = true
		}
	}
	logMu.Unlock()
	if !logged {
		t.Errorf("background checkpoint failure not logged via Logf; logs = %q", logs)
	}
	if got := st.Stats(); got.LastCheckpointErr == "" {
		t.Error("failed background checkpoint not recorded in Stats.LastCheckpointErr")
	} else if got.Checkpoints != 0 {
		t.Errorf("checkpoints = %d despite blocked chunk store", got.Checkpoints)
	}

	// Clear the obstacle: the next (synchronous) checkpoint succeeds
	// and wipes the sticky error.
	if err := os.Remove(obstacle); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats(); got.LastCheckpointErr != "" {
		t.Errorf("successful checkpoint did not clear LastCheckpointErr: %q", got.LastCheckpointErr)
	} else if got.Checkpoints == 0 {
		t.Error("checkpoint after clearing obstacle not counted")
	}
	// The failure window never lost acknowledged data.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	e2, st2 := openDurable(t, dir, storage.Options{NoSync: true})
	defer st2.Close()
	if !snapshotsEqual(e.Snapshot(), e2.Snapshot()) {
		t.Error("recovered snapshot differs after checkpoint failure window")
	}
}

// --- real-binary SIGKILL-during-incremental-checkpoint harness ------
//
// The in-process torn-file sweeps (internal/storage) prove recovery
// from every byte-level crash state; this test closes the loop on the
// real process: gyod with a tiny -ckptbytes threshold runs background
// incremental checkpoints almost continuously, so SIGKILL right after
// an acknowledged insert regularly lands mid-checkpoint. Every restart
// must serve exactly the acknowledged tuples.

func buildGyodBin(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not available:", err)
	}
	bin := filepath.Join(t.TempDir(), "gyod")
	out, err := exec.Command("go", "build", "-o", bin, "gyokit/cmd/gyod").CombinedOutput()
	if err != nil {
		t.Fatalf("go build gyod: %v\n%s", err, out)
	}
	return bin
}

type gyodInst struct {
	cmd      *exec.Cmd
	base     string
	done     chan error
	waitOnce sync.Once
	waitErr  error
}

// wait blocks until the process exits and returns its exit error
// (cached: safe to call repeatedly).
func (p *gyodInst) wait() error {
	p.waitOnce.Do(func() { p.waitErr = <-p.done })
	return p.waitErr
}

// startGyodInst launches the binary and waits for its listen line.
func startGyodInst(t *testing.T, bin string, args ...string) *gyodInst {
	t.Helper()
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &gyodInst{cmd: cmd, done: make(chan error, 1)}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case addrCh <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
			}
		}
		p.done <- cmd.Wait()
	}()
	select {
	case addr := <-addrCh:
		p.base = "http://" + addr
	case err := <-p.done:
		t.Fatalf("gyod exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("timeout waiting for gyod to listen")
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		p.wait()
	})
	return p
}

// kill SIGKILLs the process and reaps it (so the next boot's directory
// lock is free).
func (p *gyodInst) kill(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	p.wait()
}

func (p *gyodInst) postJSON(t *testing.T, path string, body, out any) {
	t.Helper()
	enc, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(p.base+path, "application/json", bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s → %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s response: %v", path, err)
	}
}

func (p *gyodInst) stats(t *testing.T) StatsResponse {
	t.Helper()
	resp, err := http.Get(p.base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestGyodSIGKILLDuringIncrementalCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	bin := buildGyodBin(t)
	dataDir := filepath.Join(t.TempDir(), "data")
	// ~1.6 KiB per acknowledged batch against a 200-byte checkpoint
	// threshold: a background incremental checkpoint is in flight for
	// most of the run, so the SIGKILL after the last ack regularly
	// tears a manifest or chunk-store tail mid-write.
	args := []string{"-data", dataDir, "-schema", "ab", "-tuples", "0",
		"-nosync", "-ckptbytes", "200", "-segbytes", "4096"}

	// Every third batch is followed by a delete of half of the batch
	// before it, so the checkpoints being torn carry dead-row lists, the
	// WAL tails being replayed carry delete records, and a tuple a kill
	// resurrected or a delete a kill lost shows in the card.
	const rounds, batches, perBatch = 4, 24, 200
	acked, next := 0, 0
	var prev [][2]int
	for round := 0; round < rounds; round++ {
		p := startGyodInst(t, bin, args...)
		st := p.stats(t)
		if len(st.Relations) != 1 || st.Relations[0].Card != acked {
			t.Fatalf("round %d: recovered %+v, want card %d", round, st.Relations, acked)
		}
		for b := 0; b < batches; b++ {
			tuples := make([][2]int, perBatch)
			for j := range tuples {
				tuples[j] = [2]int{2 * next, 2*next + 1}
				next++
			}
			var mr MutateResponse
			p.postJSON(t, "/v1/insert", map[string]any{"rel": "ab", "tuples": tuples}, &mr)
			if mr.Applied != perBatch {
				t.Fatalf("round %d batch %d: applied %d, want %d", round, b, mr.Applied, perBatch)
			}
			acked += perBatch
			if b%3 == 2 {
				p.postJSON(t, "/v1/delete", map[string]any{"rel": "ab", "tuples": prev[:perBatch/2]}, &mr)
				if mr.Applied != perBatch/2 || mr.Card != acked-perBatch/2 {
					t.Fatalf("round %d batch %d: delete applied %d leaving %d, want %d leaving %d",
						round, b, mr.Applied, mr.Card, perBatch/2, acked-perBatch/2)
				}
				acked -= perBatch / 2
			}
			prev = tuples
		}
		p.kill(t)
	}

	// Final boot: all acked tuples survived every kill, and the
	// graceful shutdown path (drain, final checkpoint, close) exits 0.
	p := startGyodInst(t, bin, args...)
	st := p.stats(t)
	if len(st.Relations) != 1 || st.Relations[0].Card != acked {
		t.Fatalf("final boot: recovered %+v, want card %d", st.Relations, acked)
	}
	if st.Durability == nil {
		t.Fatal("final boot: /stats missing durability section")
	}
	if st.Relations[0].DeadRows == 0 {
		t.Error("final boot: no dead row recovered — the deletes never reached a checkpoint or the WAL tail")
	}
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := p.wait(); err != nil {
		t.Fatalf("graceful shutdown after kill rounds: %v", err)
	}
}
