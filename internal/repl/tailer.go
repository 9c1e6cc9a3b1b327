package repl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"gyokit/internal/engine"
	"gyokit/internal/obs"
	"gyokit/internal/storage"
)

// ErrDiverged means replication stopped permanently: the leader no
// longer serves this replica's cursor, or the store at the leader URL
// is not the store this replica was seeded from. There is no automatic
// recovery — the operator must wipe the replica's data directory and
// re-seed it from a live leader.
var ErrDiverged = errors.New("repl: replica diverged from its leader")

// Config tunes a Tailer. The zero value works.
type Config struct {
	// Client performs feed requests. It must not set a Timeout shorter
	// than PollWait (each request carries its own deadline). Nil means
	// a private client.
	Client *http.Client
	// Logf receives operational lines (reconnects, divergence). Nil
	// disables logging.
	Logf func(format string, args ...any)
	// Metrics, when non-nil, receives the gyo_repl_* instruments.
	Metrics *obs.Registry
	// PollWait is the long-poll budget sent to the leader. Zero means
	// 20s.
	PollWait time.Duration
	// WindowBytes is the per-response frame budget. Zero means 1 MiB.
	WindowBytes int
}

// Tailer is the follower side of replication: it tails the leader's
// WAL feed and re-applies every batch through the engine's
// append-then-publish path, so the replica's own WAL and checkpoints
// stay recoverable by the ordinary storage.Open. It implements
// engine.ReplicaController.
type Tailer struct {
	e         *engine.Engine
	store     *storage.Store
	dir       string
	leaderURL string
	client    *http.Client
	logf      func(format string, args ...any)
	wait      time.Duration
	window    int

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
	halted sync.Once

	promoteMu sync.Mutex

	mu            sync.Mutex
	cur           storage.Cursor
	leaderID      uint64
	connected     bool
	diverged      bool
	promoted      bool
	lastErr       string
	lagBytes      int64 // -1 until the first successful poll
	lagRecords    int64 // -1 until anchored (first full catch-up)
	caughtUpAt    time.Time
	caughtUpNow   bool
	anchored      bool
	anchorAppends uint64 // leader's append counter at the anchor
	anchorApplied uint64 // our applied counter at the anchor
	applied       uint64 // frames applied since this process started

	mApplied      *obs.Counter
	mAppliedBytes *obs.Counter
	mReconnects   *obs.Counter
}

// NewTailer opens the follower machinery over an engine whose store
// lives in dir (a directory previously prepared by Bootstrap). It
// fences the engine read-only; Start begins tailing.
func NewTailer(e *engine.Engine, dir, leaderURL string, cfg Config) (*Tailer, error) {
	store := e.Store()
	if store == nil {
		return nil, fmt.Errorf("repl: a follower requires a durable store")
	}
	st, ok, err := LoadState(dir)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("repl: %s is not a bootstrapped replica (no %s)", dir, stateFile)
	}
	if st.Promoted {
		return nil, fmt.Errorf("repl: %s was promoted to leader; it cannot follow again — wipe it and re-seed to rejoin", dir)
	}
	t := &Tailer{
		e:          e,
		store:      store,
		dir:        dir,
		leaderURL:  strings.TrimRight(leaderURL, "/"),
		client:     cfg.Client,
		logf:       cfg.Logf,
		wait:       cfg.PollWait,
		window:     cfg.WindowBytes,
		done:       make(chan struct{}),
		leaderID:   st.ParseLeaderID(),
		lagBytes:   -1,
		lagRecords: -1,
	}
	if t.client == nil {
		t.client = &http.Client{}
	}
	if t.wait <= 0 {
		t.wait = 20 * time.Second
	}
	if t.window <= 0 {
		t.window = defaultFeedWindow
	}
	// The applied cursor: the sidecar records it as of the last
	// checkpoint or clean stop, and a CursorMark rides in every applied
	// batch — whichever the WAL replayed last is at least as fresh.
	t.cur = st.Cursor()
	if c, ok := store.ReplayedCursor(); ok && t.cur.Less(c) {
		t.cur = c
	}
	t.ctx, t.cancel = context.WithCancel(context.Background())
	e.SetReadOnly(true)
	if reg := cfg.Metrics; reg != nil {
		t.mApplied = reg.Counter("gyo_repl_applied_records_total",
			"Replicated batches applied since this process started.")
		t.mAppliedBytes = reg.Counter("gyo_repl_applied_bytes_total",
			"Replicated WAL bytes applied since this process started (frame headers included).")
		t.mReconnects = reg.Counter("gyo_repl_reconnects_total",
			"Feed reconnect attempts after a transient failure.")
		reg.GaugeFunc("gyo_repl_lag_bytes",
			"Leader WAL bytes not yet applied here; -1 means unknown.",
			func() float64 { return float64(t.ReplicaStatus().LagBytes) })
		reg.GaugeFunc("gyo_repl_connected",
			"1 while the leader feed is healthy, else 0.",
			func() float64 {
				if t.ReplicaStatus().Connected {
					return 1
				}
				return 0
			})
	}
	return t, nil
}

// Start launches the tailing loop.
func (t *Tailer) Start() {
	go t.run()
}

func (t *Tailer) run() {
	defer close(t.done)
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	failures := 0
	for {
		err := t.poll()
		if t.ctx.Err() != nil {
			return
		}
		if err == nil {
			if failures > 0 && t.logf != nil {
				t.logf("repl: reconnected to %s", t.leaderURL)
			}
			failures = 0
			t.maybeCheckpoint()
			continue
		}
		if errors.Is(err, ErrDiverged) {
			t.mu.Lock()
			t.diverged = true
			t.connected = false
			t.lastErr = err.Error()
			cur := t.cur
			t.mu.Unlock()
			if t.logf != nil {
				t.logf("repl: FATAL: %v", err)
				t.logf("repl: replication stopped at cursor %v; this replica cannot catch up.", cur)
				t.logf("repl: to rejoin: stop this node, wipe %s, and restart with -follow to re-seed from a live leader.", t.dir)
			}
			return
		}
		t.mu.Lock()
		t.connected = false
		t.lastErr = err.Error()
		t.mu.Unlock()
		t.mReconnects.Inc()
		delay := backoffDelay(failures, rng)
		failures++
		if t.logf != nil {
			t.logf("repl: feed from %s failed (%v); retrying in %v", t.leaderURL, err, delay.Round(time.Millisecond))
		}
		select {
		case <-t.ctx.Done():
			return
		case <-time.After(delay):
		}
	}
}

// backoffDelay is the reconnect schedule: exponential from 100ms,
// capped at 15s, with ±25% jitter so a fleet of replicas does not
// hammer a recovering leader in lockstep.
func backoffDelay(failures int, rng *rand.Rand) time.Duration {
	const (
		base = 100 * time.Millisecond
		cap  = 15 * time.Second
	)
	d := base
	for i := 0; i < failures && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	jitter := 0.75 + 0.5*rng.Float64()
	return time.Duration(float64(d) * jitter)
}

// poll performs one feed request and applies whatever it ships.
// A nil return means the request succeeded (possibly with zero
// frames). ErrDiverged (wrapped) means replication must stop.
func (t *Tailer) poll() error {
	t.mu.Lock()
	cur := t.cur
	leaderID := t.leaderID
	t.mu.Unlock()

	ctx, cancel := context.WithTimeout(t.ctx, t.wait+30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, feedURL(t.leaderURL, cur, t.wait, t.window), nil)
	if err != nil {
		return err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%w: the leader's WAL no longer contains cursor %v (%s)",
			ErrDiverged, cur, strings.TrimSpace(string(msg)))
	default:
		return fmt.Errorf("repl: leader answered %s", resp.Status)
	}

	var hdr [preambleLen]byte
	if _, err := io.ReadFull(resp.Body, hdr[:]); err != nil {
		return fmt.Errorf("repl: reading feed preamble: %w", err)
	}
	p, err := decodePreamble(hdr[:])
	if err != nil {
		return err
	}
	if leaderID != 0 && p.StoreID != leaderID {
		return fmt.Errorf("%w: the store at %s has identity %s, this replica was seeded from %s",
			ErrDiverged, t.leaderURL, FormatStoreID(p.StoreID), FormatStoreID(leaderID))
	}
	if p.Req != cur {
		return fmt.Errorf("repl: leader echoed cursor %v for a request at %v", p.Req, cur)
	}

	if p.FrameBytes > 0 {
		// The leader holds records this replica has not applied. Say so
		// before reading and applying them: status, readiness and promote
		// decisions must not read the previous poll's zero lag for as
		// long as the apply takes. The block after the apply overwrites
		// this with what is left.
		t.mu.Lock()
		t.caughtUpNow = false
		t.lagBytes = p.LagBytes + int64(p.FrameBytes)
		t.lagRecords = -1
		if lag, ok := t.recordsBehind(p.Appends); ok {
			t.lagRecords = max(lag, 1)
		}
		t.mu.Unlock()
	}

	frames := make([]byte, p.FrameBytes)
	n, err := io.ReadFull(resp.Body, frames)
	frames = frames[:n]
	// Even a torn read can carry complete frames; apply them (the
	// cursor advances per frame), then surface the transport error.
	next, _, consumed, applyErr := t.applyFrames(cur, frames)
	if applyErr != nil {
		return applyErr
	}
	complete := err == nil && consumed == len(frames)
	if complete && next.Less(p.Next) {
		// Everything consumed: adopt the leader's Next, which can hop
		// across a segment boundary that the frames themselves never
		// cross.
		next = p.Next
	}

	t.mu.Lock()
	t.cur = next
	t.connected = true
	t.lastErr = ""
	if t.leaderID == 0 {
		t.leaderID = p.StoreID
	}
	if complete {
		t.lagBytes = p.LagBytes
		if next == p.Tip {
			t.lagRecords = 0
			t.caughtUpNow = true
			t.caughtUpAt = time.Now()
			t.anchored = true
			t.anchorAppends = p.Appends
			t.anchorApplied = t.applied
		} else {
			t.caughtUpNow = false
			if lag, ok := t.recordsBehind(p.Appends); ok {
				t.lagRecords = max(lag, 0)
			} else {
				// The leader's append counter regressed: it restarted.
				// The anchor is meaningless until we catch up again.
				t.anchored = false
				t.lagRecords = -1
			}
		}
	}
	saveID := t.leaderID
	t.mu.Unlock()

	if leaderID == 0 && saveID != 0 {
		// First contact with an identity the sidecar lacked (legacy
		// bootstrap): persist it so a later restart still verifies. A
		// failed save is not fatal — replication stays correct, only
		// the identity check waits for the next successful persist —
		// but it must not pass silently.
		if err := t.saveSidecar(saveID); err != nil && t.logf != nil {
			t.logf("repl: persisting leader identity failed: %v", err)
		}
	}
	if err != nil {
		return fmt.Errorf("repl: reading feed frames: %w", err)
	}
	if !complete {
		return fmt.Errorf("repl: feed shipped a torn frame section (%d of %d bytes framed)", consumed, len(frames))
	}
	return nil
}

// recordsBehind is the number of batches the leader has appended and
// this replica has not applied, counted from the anchor (the last full
// catch-up). ok is false when there is no anchor to count from: none
// taken yet, or the leader's append counter regressed below it (the
// leader restarted). The caller holds t.mu.
func (t *Tailer) recordsBehind(appends uint64) (lag int64, ok bool) {
	if !t.anchored || appends < t.anchorAppends {
		return 0, false
	}
	return int64(appends-t.anchorAppends) - int64(t.applied-t.anchorApplied), true
}

// applyFrames applies every complete frame in buf, advancing from cur.
// Each batch is re-framed into the replica's own WAL with a CursorMark
// appended, so the applied position persists atomically with the data
// it covers — a batch is never applied twice across a crash. Partial
// trailing bytes are ignored (never applied); a decode or apply
// failure is divergence, because the bytes already passed the CRC.
func (t *Tailer) applyFrames(cur storage.Cursor, buf []byte) (next storage.Cursor, applied, consumed int, err error) {
	payloads, consumed := storage.SplitFrames(buf)
	next = cur
	for _, pl := range payloads {
		muts, err := storage.DecodeBatch(pl)
		if err != nil {
			return next, applied, consumed, fmt.Errorf("%w: acknowledged leader record at %v does not decode: %v", ErrDiverged, next, err)
		}
		// Strip the leader's own cursor marks (a leader that was once a
		// follower has them in its history); ours is the only position
		// that means anything in this WAL.
		kept := muts[:0]
		for _, m := range muts {
			if m.Kind != storage.KindCursor {
				kept = append(kept, m)
			}
		}
		after := storage.Cursor{Seg: next.Seg, Off: next.Off + storage.FrameOverhead + int64(len(pl))}
		kept = append(kept, storage.CursorMark(after))
		if _, _, err := t.e.ApplyReplica(kept...); err != nil {
			return next, applied, consumed, fmt.Errorf("%w: applying leader record at %v failed: %v", ErrDiverged, next, err)
		}
		next = after
		applied++
		t.mApplied.Inc()
		t.mAppliedBytes.Add(uint64(storage.FrameOverhead + len(pl)))
		t.mu.Lock()
		t.applied++
		t.cur = next
		t.mu.Unlock()
	}
	return next, applied, consumed, nil
}

// maybeCheckpoint compacts the replica's own WAL when it has outgrown
// the store threshold. The sidecar is saved first: the checkpoint
// truncates WAL segments — and the cursor marks they carry — so the
// cursor must already be durable elsewhere before they go.
func (t *Tailer) maybeCheckpoint() {
	if !t.store.ShouldCheckpoint() {
		return
	}
	if err := t.saveSidecar(0); err != nil {
		if t.logf != nil {
			t.logf("repl: saving %s failed, skipping checkpoint: %v", stateFile, err)
		}
		return
	}
	if err := t.e.Checkpoint(); err != nil && t.logf != nil {
		t.logf("repl: replica checkpoint failed: %v", err)
	}
}

// saveSidecar persists the current replication state. A nonzero id
// overrides the leader identity (first-contact adoption).
func (t *Tailer) saveSidecar(id uint64) error {
	t.mu.Lock()
	if id == 0 {
		id = t.leaderID
	}
	st := State{
		LeaderURL: t.leaderURL,
		LeaderID:  FormatStoreID(id),
		CursorSeg: t.cur.Seg,
		CursorOff: t.cur.Off,
		Promoted:  t.promoted,
	}
	t.mu.Unlock()
	return SaveState(t.dir, st)
}

// halt stops the tailing loop and waits for it to exit.
func (t *Tailer) halt() {
	t.halted.Do(t.cancel)
	<-t.done
}

// Stop ends tailing and persists the sidecar; the engine stays
// read-only. Safe to call more than once and after Promote.
func (t *Tailer) Stop() {
	t.halt()
	if err := t.saveSidecar(0); err != nil && t.logf != nil {
		t.logf("repl: saving %s at stop failed: %v", stateFile, err)
	}
}

// Promote turns this replica into a leader: stop tailing, fence the
// cursor in the sidecar, and open the engine for writes. Idempotent.
// After it returns nil the node accepts /v1 writes; it will refuse to
// follow anyone again without a re-seed.
func (t *Tailer) Promote() error {
	t.promoteMu.Lock()
	defer t.promoteMu.Unlock()
	t.mu.Lock()
	already := t.promoted
	t.mu.Unlock()
	if already {
		return nil
	}
	t.halt()
	t.mu.Lock()
	t.promoted = true
	t.mu.Unlock()
	if err := t.saveSidecar(0); err != nil {
		// Without a durable fence a restart would tail the old leader
		// again and interleave histories. Stay read-only.
		t.mu.Lock()
		t.promoted = false
		t.mu.Unlock()
		return fmt.Errorf("repl: persisting the promotion fence failed: %w", err)
	}
	t.e.SetReadOnly(false)
	if t.logf != nil {
		t.logf("repl: promoted to leader at cursor %v (previous leader %s)", t.cursor(), t.leaderURL)
	}
	return nil
}

func (t *Tailer) cursor() storage.Cursor {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cur
}

// ReplicaStatus implements engine.ReplicaController.
func (t *Tailer) ReplicaStatus() engine.ReplicaStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := engine.ReplicaStatus{
		Role:       "follower",
		LeaderURL:  t.leaderURL,
		CursorSeg:  t.cur.Seg,
		CursorOff:  t.cur.Off,
		LagBytes:   t.lagBytes,
		LagRecords: t.lagRecords,
		Connected:  t.connected,
		Diverged:   t.diverged,
		LastError:  t.lastErr,
	}
	switch {
	case t.caughtUpNow:
		st.LagSeconds = 0
	case t.caughtUpAt.IsZero():
		st.LagSeconds = -1
	default:
		st.LagSeconds = time.Since(t.caughtUpAt).Seconds()
	}
	if t.promoted {
		st.Role = "leader"
		st.LeaderURL = ""
		st.PreviousLeader = t.leaderURL
		st.Connected = true
		st.LagBytes, st.LagRecords, st.LagSeconds = 0, 0, 0
	}
	return st
}

// Bootstrap prepares dir to follow leaderURL. An existing replica
// sidecar makes it a no-op (re-pointing at a new URL just updates the
// sidecar — the store identity is verified on first contact). A fresh
// directory is seeded over HTTP from the leader's snapshot endpoint;
// a failed seed cleans up after itself, so a retry needs no operator
// action. A directory holding a store without a sidecar, or one that
// was promoted, is refused.
func Bootstrap(dir, leaderURL string, client *http.Client, logf func(string, ...any)) error {
	leaderURL = strings.TrimRight(leaderURL, "/")
	st, ok, err := LoadState(dir)
	if err != nil {
		return err
	}
	if ok {
		if st.Promoted {
			return fmt.Errorf("repl: %s was promoted to leader; it cannot follow %s — wipe it and re-seed to rejoin", dir, leaderURL)
		}
		if st.LeaderURL != leaderURL {
			if logf != nil {
				logf("repl: re-pointing replica from %s to %s (store identity will be verified on first contact)", st.LeaderURL, leaderURL)
			}
			st.LeaderURL = leaderURL
			return SaveState(dir, st)
		}
		return nil
	}
	has, err := storage.DirHasStore(dir)
	if err != nil {
		return err
	}
	if has {
		return fmt.Errorf("repl: %s holds a store that is not a replica; refusing to follow %s over it", dir, leaderURL)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if client == nil {
		client = &http.Client{}
	}
	resp, err := client.Get(leaderURL + SnapshotPath)
	if err != nil {
		return fmt.Errorf("repl: fetching seed snapshot: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("repl: leader %s answered %s to the snapshot request: %s",
			leaderURL, resp.Status, strings.TrimSpace(string(msg)))
	}
	var hdr [snapHeaderLen]byte
	if _, err := io.ReadFull(resp.Body, hdr[:]); err != nil {
		return fmt.Errorf("repl: reading snapshot header: %w", err)
	}
	leaderID, cur, err := decodeSnapHeader(hdr[:])
	if err != nil {
		return err
	}
	if err := storage.InstallReplSnapshot(dir, resp.Body); err != nil {
		return fmt.Errorf("repl: installing seed snapshot: %w", err)
	}
	if err := SaveState(dir, State{
		LeaderURL: leaderURL,
		LeaderID:  FormatStoreID(leaderID),
		CursorSeg: cur.Seg,
		CursorOff: cur.Off,
	}); err != nil {
		return err
	}
	if logf != nil {
		logf("repl: seeded %s from %s (leader store %s, cursor %v)", dir, leaderURL, FormatStoreID(leaderID), cur)
	}
	return nil
}
